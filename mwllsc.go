package mwllsc

import (
	"fmt"

	"mwllsc/internal/core"
	"mwllsc/internal/mem"
	"mwllsc/internal/mwobj"
)

// Stats is a point-in-time snapshot of the object's internal counters;
// see Object.Stats.
type Stats = core.StatsSnapshot

// Space reports the object's memory footprint in both paper accounting
// (register words + LL/SC words) and physical bytes.
type Space = mwobj.Space

// Object is an N-process W-word LL/SC/VL variable. Create one with New and
// hand each process its Handle.
type Object struct {
	obj   *core.Object
	stats *core.Stats
}

type options struct {
	stats bool
}

// Option configures New.
type Option func(*options)

// WithStats enables the internal event counters read by Object.Stats
// (a few atomic increments per operation).
func WithStats() Option {
	return func(o *options) { o.stats = true }
}

// New creates a W-word LL/SC/VL variable shared by n processes, holding
// initial (len(initial) must be w) as its initial value.
func New(n, w int, initial []uint64, opts ...Option) (*Object, error) {
	if n < 1 {
		return nil, fmt.Errorf("mwllsc: n must be >= 1, got %d", n)
	}
	var cfg options
	for _, opt := range opts {
		opt(&cfg)
	}
	var stats *core.Stats
	if cfg.stats {
		stats = &core.Stats{}
	}
	obj, err := core.New(mem.NewReal(n, mem.SubstrateTagged), n, w, initial, stats)
	if err != nil {
		return nil, fmt.Errorf("mwllsc: %w", err)
	}
	return &Object{obj: obj, stats: stats}, nil
}

// N returns the number of processes the object supports.
func (o *Object) N() int { return o.obj.N() }

// W returns the value width in 64-bit words.
func (o *Object) W() int { return o.obj.W() }

// Handle returns the operation handle for process p. The handle (and the
// process id) must be used by at most one goroutine at a time.
func (o *Object) Handle(p int) *Handle {
	if p < 0 || p >= o.obj.N() {
		panic(fmt.Sprintf("mwllsc: process id %d out of range [0,%d)", p, o.obj.N()))
	}
	return &Handle{obj: o.obj, p: p}
}

// LL performs a load-linked by process p, copying the current value into
// dst (len(dst) must be W). Prefer Handle for per-process use.
func (o *Object) LL(p int, dst []uint64) { o.obj.LL(p, dst) }

// SC performs a store-conditional by process p: it writes src (len(src)
// must be W) and returns true iff no successful SC happened since p's
// latest LL.
func (o *Object) SC(p int, src []uint64) bool { return o.obj.SC(p, src) }

// VL returns true iff no successful SC happened since p's latest LL.
func (o *Object) VL(p int) bool { return o.obj.VL(p) }

// Stats returns a snapshot of the internal counters; ok is false unless
// the object was created with WithStats.
func (o *Object) Stats() (snap Stats, ok bool) {
	if o.stats == nil {
		return Stats{}, false
	}
	return o.stats.Snapshot(), true
}

// Space reports the object's memory footprint.
func (o *Object) Space() Space { return o.obj.Space() }

// Handle binds an Object to one process id.
type Handle struct {
	obj     *core.Object
	p       int
	scratch []uint64 // lazy buffer for Update
}

// Process returns the process id this handle is bound to.
func (h *Handle) Process() int { return h.p }

// LL copies the variable's current value into dst (len(dst) must be W) and
// links it for a subsequent SC/VL. Wait-free, O(W).
func (h *Handle) LL(dst []uint64) { h.obj.LL(h.p, dst) }

// LLNew is LL into a freshly allocated slice, for convenience at
// non-critical call sites.
func (h *Handle) LLNew() []uint64 {
	v := make([]uint64, h.obj.W())
	h.obj.LL(h.p, v)
	return v
}

// SC writes src (len(src) must be W) iff no successful SC happened since
// this handle's latest LL, reporting whether it did. Wait-free, O(W).
func (h *Handle) SC(src []uint64) bool { return h.obj.SC(h.p, src) }

// VL reports whether no successful SC happened since this handle's latest
// LL. Wait-free, O(1).
func (h *Handle) VL() bool { return h.obj.VL(h.p) }

// Read copies the current value into dst (len(dst) must be W) without
// keeping a link: a wait-free atomic multiword read that writes no shared
// memory, W+2 steps unless an SC lands during the copy. After Read, SC
// fails until the next LL, and VL still reports whether an SC has
// succeeded since the value was read.
func (h *Handle) Read(dst []uint64) { h.obj.Read(h.p, dst) }

// Update atomically applies f to the variable: it runs the LL -> f -> SC
// loop until the SC lands and returns the number of attempts. f receives
// the current value in a scratch buffer (reused across calls of this
// handle) and must mutate it in place; it may run several times, so it
// must be side-effect free. Lock-free: the loop only retries when some
// other process's SC succeeded.
func (h *Handle) Update(f func(v []uint64)) int {
	if h.scratch == nil {
		h.scratch = make([]uint64, h.obj.W())
	}
	for attempt := 1; ; attempt++ {
		h.obj.LL(h.p, h.scratch)
		f(h.scratch)
		if h.obj.SC(h.p, h.scratch) {
			return attempt
		}
	}
}
