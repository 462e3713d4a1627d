package sim

import (
	"fmt"
	"math/rand"

	"mwllsc/internal/mem"
)

// Memory is the simulated mem.Memory backend: every word operation and
// every buffer word access is one scheduler step, buffer reads overlapping
// a concurrent writer return adversarial garbage (safe-register semantics),
// and all mutations plus trace events are routed to registered observers.
type Memory struct {
	sched *Sched
	rng   *rand.Rand // garbage source for torn reads; used only inside granted windows

	tornReads  bool
	tornCount  int64
	words      map[wordKey]*Word
	buffers    []*Buffers
	observers  []Observer
	perProcOps []opAccounting
}

type wordKey struct {
	kind mem.WordKind
	idx  int
}

// Observer receives memory mutations and algorithm trace events, in
// execution order, always from within a granted window or the setup phase
// (never concurrently).
type Observer interface {
	// OnMutate reports a successful mutation of a word (SC success or
	// Write). isWrite distinguishes unconditional writes.
	OnMutate(w *Word, p int, old, new uint64, isWrite bool)
	// OnBufWrite reports the start of a W-word buffer write by p.
	OnBufWrite(buf, p int)
	// OnTrace receives algorithm-level events.
	OnTrace(p int, ev mem.Event)
}

// opAccounting tracks the in-flight operation of one process for step
// bounds: the step counter at operation start. A Read keeps its own start
// because its fallback runs a whole LL inside it.
type opAccounting struct {
	startOf   int
	readStart int
	maxLL     int
	maxSC     int
	maxVL     int
	maxRead   int
}

// NewMemory returns a simulated memory bound to sched. If tornReads is
// true, buffer reads that overlap a writer return seeded garbage instead of
// data (the safe-register adversary).
func NewMemory(sched *Sched, seed int64, tornReads bool) *Memory {
	return &Memory{
		sched:      sched,
		rng:        rand.New(rand.NewSource(seed)),
		tornReads:  tornReads,
		words:      make(map[wordKey]*Word),
		perProcOps: make([]opAccounting, sched.n),
	}
}

// Observe registers an observer; call before running.
func (m *Memory) Observe(o Observer) { m.observers = append(m.observers, o) }

// Sync parks the calling process until granted a step; the runner uses it
// as a start barrier so all workload code runs inside granted windows.
func (m *Memory) Sync(p int) { m.sched.Yield(p) }

// TornReads returns how many buffer word reads returned garbage.
func (m *Memory) TornReads() int64 { return m.tornCount }

// WordValue returns the current value of a word by identity; invariant
// checkers call it from AfterStep hooks.
func (m *Memory) WordValue(kind mem.WordKind, idx int) uint64 {
	w, ok := m.words[wordKey{kind, idx}]
	if !ok {
		panic(fmt.Sprintf("sim: no word %v[%d]", kind, idx))
	}
	return w.val
}

// MaxOpSteps returns the maximum steps any process spent inside one LL, SC
// and VL operation respectively.
func (m *Memory) MaxOpSteps() (ll, sc, vl int) {
	for i := range m.perProcOps {
		a := &m.perProcOps[i]
		ll = max(ll, a.maxLL)
		sc = max(sc, a.maxSC)
		vl = max(vl, a.maxVL)
	}
	return ll, sc, vl
}

// MaxReadSteps returns the maximum steps any process spent inside one
// Read, its fallback LL included.
func (m *Memory) MaxReadSteps() int {
	r := 0
	for i := range m.perProcOps {
		r = max(r, m.perProcOps[i].maxRead)
	}
	return r
}

// linked reports whether process p's latest LL of a word is still valid,
// without taking a step; invariant checkers call it from trace hooks.
func (m *Memory) linked(kind mem.WordKind, idx, p int) bool {
	w := m.words[wordKey{kind, idx}]
	return w.links[p].ver == w.ver
}

// NewWord implements mem.Memory.
func (m *Memory) NewWord(kind mem.WordKind, idx int, valueBits uint, init uint64) mem.Word {
	w := &Word{
		m:     m,
		kind:  kind,
		idx:   idx,
		val:   init,
		links: make([]wordLink, m.sched.n),
	}
	m.words[wordKey{kind, idx}] = w
	return w
}

// NewBuffers implements mem.Memory.
func (m *Memory) NewBuffers(count, w int) mem.Buffers {
	b := &Buffers{
		m:       m,
		w:       w,
		data:    make([]uint64, count*w),
		writers: make([]int, count),
	}
	m.buffers = append(m.buffers, b)
	return b
}

// Trace implements mem.Memory: it forwards to observers and maintains
// per-operation step accounting.
func (m *Memory) Trace(p int, ev mem.Event) {
	a := &m.perProcOps[p]
	switch ev.Kind {
	case mem.EvLLStart, mem.EvSCStart, mem.EvVLStart:
		a.startOf = m.sched.StepsOf(p)
	case mem.EvLLDone:
		a.maxLL = max(a.maxLL, m.sched.StepsOf(p)-a.startOf)
	case mem.EvSCDone:
		a.maxSC = max(a.maxSC, m.sched.StepsOf(p)-a.startOf)
	case mem.EvVLDone:
		a.maxVL = max(a.maxVL, m.sched.StepsOf(p)-a.startOf)
	case mem.EvReadStart:
		a.readStart = m.sched.StepsOf(p)
	case mem.EvReadDone:
		a.maxRead = max(a.maxRead, m.sched.StepsOf(p)-a.readStart)
	}
	for _, o := range m.observers {
		o.OnTrace(p, ev)
	}
}

// Tracing implements mem.Memory.
func (m *Memory) Tracing() bool { return true }

var _ mem.Memory = (*Memory)(nil)

func (m *Memory) onMutate(w *Word, p int, old, new uint64, isWrite bool) {
	for _, o := range m.observers {
		o.OnMutate(w, p, old, new, isWrite)
	}
}

func (m *Memory) onBufWrite(buf, p int) {
	for _, o := range m.observers {
		o.OnBufWrite(buf, p)
	}
}

// Word is a simulated single-word LL/SC/VL object with exact semantics
// (a version counter incremented on every mutation).
type Word struct {
	m     *Memory
	kind  mem.WordKind
	idx   int
	val   uint64
	ver   uint64
	links []wordLink
}

type wordLink struct {
	ver uint64
}

// Kind returns which shared variable family this word belongs to.
func (w *Word) Kind() mem.WordKind { return w.kind }

// Idx returns the word's index within its family.
func (w *Word) Idx() int { return w.idx }

// LL implements mem.Word.
func (w *Word) LL(p int) uint64 {
	w.m.sched.Yield(p)
	w.links[p] = wordLink{ver: w.ver}
	return w.val
}

// SC implements mem.Word.
func (w *Word) SC(p int, v uint64) bool {
	w.m.sched.Yield(p)
	if w.links[p].ver != w.ver {
		return false
	}
	old := w.val
	w.val = v
	w.ver++
	w.m.onMutate(w, p, old, v, false)
	return true
}

// VL implements mem.Word.
func (w *Word) VL(p int) bool {
	w.m.sched.Yield(p)
	return w.links[p].ver == w.ver
}

// Read implements mem.Word.
func (w *Word) Read(p int) uint64 {
	w.m.sched.Yield(p)
	return w.val
}

// Write implements mem.Word.
func (w *Word) Write(p int, v uint64) {
	w.m.sched.Yield(p)
	old := w.val
	w.val = v
	w.ver++
	w.m.onMutate(w, p, old, v, true)
}

var _ mem.Word = (*Word)(nil)

// Buffers is the simulated safe-register buffer array. A W-word write
// occupies W+2 steps (open, W word writes, close); while any writer is
// inside a buffer, reads of that buffer return garbage when torn reads are
// enabled. This is the weakest register semantics the paper permits.
type Buffers struct {
	m       *Memory
	w       int
	data    []uint64
	writers []int // in-progress writer count per buffer
}

// W implements mem.Buffers.
func (b *Buffers) W() int { return b.w }

// ReadBuf implements mem.Buffers; each word is one step.
func (b *Buffers) ReadBuf(p, buf int, dst []uint64) {
	base := buf * b.w
	for i := range dst {
		b.m.sched.Yield(p)
		if b.writers[buf] > 0 && b.m.tornReads {
			dst[i] = b.m.rng.Uint64() // safe register: overlapping read is garbage
			b.m.tornCount++
		} else {
			dst[i] = b.data[base+i]
		}
	}
}

// WriteBuf implements mem.Buffers.
func (b *Buffers) WriteBuf(p, buf int, src []uint64) {
	b.m.sched.Yield(p)
	b.m.onBufWrite(buf, p)
	b.writers[buf]++
	base := buf * b.w
	for i, v := range src {
		b.m.sched.Yield(p)
		b.data[base+i] = v
	}
	b.m.sched.Yield(p)
	b.writers[buf]--
}

var _ mem.Buffers = (*Buffers)(nil)
