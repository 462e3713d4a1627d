// Package core implements the paper's contribution: a wait-free, linearizable
// N-process W-word LL/SC/VL object built from single-word LL/SC/VL objects
// and safe registers, with O(W)-time LL and SC, O(1)-time VL, and O(NW)
// space (Figure 2 of Jayanti & Petrovic, "Efficient Wait-Free Implementation
// of Multiword LL/SC Variables", TR2004-523 / ICDCS 2005).
//
// # Shared variables (paper §2.1)
//
//   - BUF[0..3N-1]: 3N W-word buffers. 2N of them hold the 2N most recent
//     values of the object; the other N are owned by processes, one each.
//   - X = (buf, seq): the tag of the current value — the buffer holding it
//     and its sequence number. seq increases by 1 (mod 2N) with every
//     successful SC, and the buffer holding the current value is not reused
//     until 2N more successful SCs occur.
//   - Bank[0..2N-1]: Bank[j] is the buffer holding the value written by the
//     most recent successful SC with sequence number j.
//   - Help[0..N-1]: Help[p] = (helpme, buf) coordinates p with its helpers.
//
// # Helping (paper §2.2)
//
// An LL by p announces itself, then reads the current buffer. If the buffer
// is overwritten while p reads it, at least 2N successful SCs have occurred,
// and the round-robin helping rule (the SC moving the sequence number from
// s to s+1 first offers its buffer — which holds a valid value — to process
// s mod N) guarantees some process handed p a valid value before p finished
// reading. Either way p holds a valid value after one O(W) pass.
//
// # Store-free reads
//
// LL pays for an SC that may follow: it announces in Help[p] (Line 1),
// withdraws with an SC (Lines 8-9) and stores the value into p's own
// buffer (Line 11) so a later SC can hand that buffer to a helped
// process. A caller that only wants the current value needs none of it.
// Read takes the zero-change case of Lemma 4's argument for Line 3's
// copy: it load-links X, copies BUF[x.buf] and validates X, W+2 steps
// that write no shared variable. If the VL succeeds, X did not change
// between the LL and the VL, so BUF[x.buf] held the current value
// throughout the copy. That buffer is not reused until 2N more
// successful SCs (Lemma 3), and nobody owns it, so nothing wrote it while
// it was read: the copy is valid and current at the VL. If the VL fails,
// Read runs the full LL (Lines 1-11) instead and returns its value, so it
// stays wait-free in O(W) steps.
//
// After a Read, VL(p) is meaningful: it returns true iff no successful SC
// occurred since the Read's LL of X. SC(p) returns false, without a
// shared step, until p's next LL: p's buffer does not hold the value the
// Read returned, so Lines 14-16 could hand a stale buffer to a helped
// process. Read-modify-write callers LL before they SC, as always.
//
// Line numbers in comments refer to Figure 2 of the paper.
package core

import (
	"fmt"

	"mwllsc/internal/mem"
	"mwllsc/internal/mwobj"
)

// Object is the W-word LL/SC/VL variable. Create it with New; drive each
// process id from at most one goroutine at a time.
type Object struct {
	n, w int

	x    mem.Word   // X = (buf, seq)
	bank []mem.Word // Bank[0..2N-1]
	help []mem.Word // Help[0..N-1] = (helpme, buf)
	buf  mem.Buffers

	local []localState

	memory mem.Memory
	traced bool
	stats  *Stats
	debug  Debug

	geom Geometry // packing geometry for X and Help values
}

// Debug deliberately disables parts of the algorithm. It exists solely as a
// negative control for the verification harness (package sim): a harness
// that cannot catch these mutations would be vacuous. Production code must
// always use the zero value.
type Debug struct {
	// SkipHelping omits Lines 14-16 of SC (the buffer handoff). Starved
	// readers then return torn values, which the linearizability checker
	// and Lemma 2 (S1) checker must detect.
	SkipHelping bool
	// SkipBankFix omits Lines 12-13 of SC (the Bank repair). Invariant
	// (I2) must then be violated as soon as two SCs race.
	SkipBankFix bool
	// SkipAnnounce omits Line 1 of LL (the help announcement). The LL
	// then mistakes stale Help contents for a handoff, which the checkers
	// must flag.
	SkipAnnounce bool
	// SkipReadValidate omits Read's VL of X and always returns the copy.
	// A copy that overlapped a change of X is then returned as current,
	// which the read invariant and the linearizability checker must flag.
	SkipReadValidate bool
}

// localState is the paper's per-process persistent state (mybuf_p, x_p),
// padded so adjacent processes do not share a cache line.
type localState struct {
	mybuf    int    // index of the buffer currently owned by this process
	x        uint64 // packed (buf, seq) read from X by the latest LL or Read
	readOnly bool   // the latest LL-or-Read was a Read: SC must fail
	_        [47]byte
}

// New creates the object for n processes and w-word values, with the given
// initial value (len(initial) must be w), using m to allocate the shared
// variables. stats may be nil to disable counting.
func New(m mem.Memory, n, w int, initial []uint64, stats *Stats) (*Object, error) {
	return NewDebug(m, n, w, initial, stats, Debug{})
}

// NewDebug is New with parts of the algorithm switched off as a negative
// control for the verification harness; see Debug. Never use outside tests.
func NewDebug(m mem.Memory, n, w int, initial []uint64, stats *Stats, debug Debug) (*Object, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: n must be >= 1, got %d", n)
	}
	if w < 1 {
		return nil, fmt.Errorf("core: w must be >= 1, got %d", w)
	}
	if len(initial) != w {
		return nil, fmt.Errorf("core: initial value has %d words, want %d", len(initial), w)
	}
	o := &Object{
		n:      n,
		w:      w,
		bank:   make([]mem.Word, 2*n),
		help:   make([]mem.Word, n),
		local:  make([]localState, n),
		memory: m,
		traced: m.Tracing(),
		stats:  stats,
		debug:  debug,
		geom:   Geom(n),
	}

	// Initialization (paper Figure 2): X = (0, 0); BUF[0] = initial value;
	// Bank[k] = k; mybuf_p = 2N + p; Help[p] = (0, _).
	o.x = m.NewWord(mem.WordX, 0, o.geom.XValueBits(), o.geom.PackX(0, 0))
	for k := 0; k < 2*n; k++ {
		o.bank[k] = m.NewWord(mem.WordBank, k, o.geom.BufBits, uint64(k))
	}
	for p := 0; p < n; p++ {
		o.help[p] = m.NewWord(mem.WordHelp, p, o.geom.HelpValueBits(), o.geom.PackHelp(0, 0))
		o.local[p].mybuf = 2*n + p
	}
	o.buf = m.NewBuffers(3*n, w)
	o.buf.WriteBuf(0, 0, initial)
	return o, nil
}

// N implements mwobj.MW.
func (o *Object) N() int { return o.n }

// W implements mwobj.MW.
func (o *Object) W() int { return o.w }

// LL performs procedure LL(p, O, retval) (Figure 2, Lines 1-11): it stores
// a valid value of the object into retval and arranges that p's subsequent
// SC or VL succeeds iff that value is still current (obligations O1 and O2,
// paper §2.4). len(retval) must equal W. Runs in O(W) steps.
func (o *Object) LL(p int, retval []uint64) {
	if len(retval) != o.w {
		panic(fmt.Sprintf("core: LL retval has %d words, want %d", len(retval), o.w))
	}
	lp := &o.local[p]
	lp.readOnly = false
	if o.traced {
		o.memory.Trace(p, mem.Event{Kind: mem.EvLLStart, Arg: lp.mybuf})
	}

	// Line 1: announce, seeking help: Help[p] = (1, mybuf_p).
	if !o.debug.SkipAnnounce {
		o.help[p].Write(p, o.geom.PackHelp(1, lp.mybuf))
	}
	if o.traced {
		o.memory.Trace(p, mem.Event{Kind: mem.EvLLAnnounced, Arg: lp.mybuf})
	}

	// Line 2: x_p = LL(X).
	lp.x = o.x.LL(p)
	if o.traced {
		o.memory.Trace(p, mem.Event{Kind: mem.EvLLReadX})
	}
	// Line 3: copy BUF[x_p.buf] into retval.
	o.buf.ReadBuf(p, o.geom.XBuf(lp.x), retval)

	// Line 4: if LL(Help[p]) == (0, b), we were helped: the copy above may
	// be torn (>= 2N successful SCs intervened), but BUF[b] holds a valid
	// value handed to us by a helper.
	if h := o.help[p].LL(p); o.geom.HelpFlag(h) == 0 {
		if o.traced {
			o.memory.Trace(p, mem.Event{Kind: mem.EvLLCheckedHelp, Arg: 1})
		}
		if o.stats != nil {
			o.stats.LLHelped.Add(1)
		}
		// Line 5: retry once for the *current* value: x_p = LL(X).
		lp.x = o.x.LL(p)
		// Line 6: copy BUF[x_p.buf] into retval.
		o.buf.ReadBuf(p, o.geom.XBuf(lp.x), retval)
		// Line 7: if X moved during Lines 5-6, the copy cannot be trusted
		// — but then the helper's value satisfies both obligations
		// (the subsequent SC will fail anyway), so return it instead.
		if !o.x.VL(p) {
			o.buf.ReadBuf(p, o.geom.HelpBuf(h), retval)
		}
	} else if o.traced {
		// Not helped: by Lemma 4, X changed at most 2N-1 times between
		// Lines 2 and 4, so the Line 3 copy is a valid value.
		o.memory.Trace(p, mem.Event{Kind: mem.EvLLCheckedHelp, Arg: 0})
	}

	// Lines 8-9: withdraw the request for help. If the SC fails, somebody
	// helped us between Lines 8 and 9 and Help[p] already reads (0, _).
	if h := o.help[p].LL(p); o.geom.HelpFlag(h) == 1 {
		o.help[p].SC(p, o.geom.PackHelp(0, o.geom.HelpBuf(h)))
	}
	// Line 10: settle ownership: either we reclaimed our own buffer (our
	// Line 9 SC won) or we own the buffer a helper handed us.
	lp.mybuf = o.geom.HelpBuf(o.help[p].Read(p))
	if o.traced {
		o.memory.Trace(p, mem.Event{Kind: mem.EvLLWithdrawn, Arg: lp.mybuf})
	}

	// Line 11: store the return value into our own buffer; a subsequent SC
	// hands this buffer (holding a valid value) to a process needing help.
	o.buf.WriteBuf(p, lp.mybuf, retval)

	if o.stats != nil {
		o.stats.LLTotal.Add(1)
	}
	if o.traced {
		o.memory.Trace(p, mem.Event{Kind: mem.EvLLDone, Arg: lp.mybuf})
	}
}

// Read stores the current value of the object into dst without writing
// shared memory: LL(X), copy BUF[x.buf], VL(X), W+2 steps. If X moved
// during the copy it runs the full LL instead, so it is wait-free in O(W)
// steps. After Read, VL(p) reports whether the value is still current and
// SC(p) returns false until p's next LL; see the package comment for the
// argument. len(dst) must equal W.
func (o *Object) Read(p int, dst []uint64) {
	if len(dst) != o.w {
		panic(fmt.Sprintf("core: Read dst has %d words, want %d", len(dst), o.w))
	}
	lp := &o.local[p]
	if o.traced {
		o.memory.Trace(p, mem.Event{Kind: mem.EvReadStart})
	}
	lp.x = o.x.LL(p)
	o.buf.ReadBuf(p, o.geom.XBuf(lp.x), dst)
	valid := o.debug.SkipReadValidate || o.x.VL(p)
	if !valid {
		o.LL(p, dst)
	}
	lp.readOnly = true
	if o.traced {
		arg := 0
		if valid {
			arg = 1
		}
		o.memory.Trace(p, mem.Event{Kind: mem.EvReadDone, Arg: arg})
	}
}

// SC performs procedure SC(p, O, v) (Figure 2, Lines 12-22): it writes v
// and returns true iff no process performed a successful SC since p's
// latest LL. It returns false at once if p's latest LL-or-Read was a Read.
// len(v) must equal W. Runs in O(W) steps.
func (o *Object) SC(p int, v []uint64) bool {
	if len(v) != o.w {
		panic(fmt.Sprintf("core: SC value has %d words, want %d", len(v), o.w))
	}
	lp := &o.local[p]
	if o.traced {
		o.memory.Trace(p, mem.Event{Kind: mem.EvSCStart, Arg: lp.mybuf})
	}
	if lp.readOnly {
		// A Read's link licenses VL, never SC (see the package comment).
		if o.stats != nil {
			o.stats.SCTotal.Add(1)
		}
		if o.traced {
			o.memory.Trace(p, mem.Event{Kind: mem.EvSCDone, Arg: 0})
		}
		return false
	}
	s := o.geom.XSeq(lp.x)
	b := uint64(o.geom.XBuf(lp.x))

	// Lines 12-13: ensure Bank[s] records the buffer holding the value of
	// sequence number s (the SC that installed it may not have done so
	// yet). The VL(X) confirms (buf, seq) = (b, s) is still current.
	if !o.debug.SkipBankFix && o.bank[s].LL(p) != b && o.x.VL(p) {
		if o.stats != nil {
			o.stats.BankFixes.Add(1)
		}
		o.bank[s].SC(p, b)
	}

	// Lines 14-16: offer help to process s mod N — the process whose turn
	// it is as the sequence number moves from s to s+1. Our buffer holds a
	// valid value (Line 11 of our latest LL); VL(X) makes sure that value
	// is still current at the moment of the handoff.
	q := s % o.n
	if h := o.help[q].LL(p); !o.debug.SkipHelping && o.geom.HelpFlag(h) == 1 && o.x.VL(p) {
		if o.help[q].SC(p, o.geom.PackHelp(0, lp.mybuf)) {
			// Line 16: the handoff succeeded; we exchanged buffers with q.
			lp.mybuf = o.geom.HelpBuf(h)
			if o.stats != nil {
				o.stats.Handoffs.Add(1)
			}
			if o.traced {
				o.memory.Trace(p, mem.Event{Kind: mem.EvSCHandoff, Arg: lp.mybuf})
			}
		}
	}

	// Line 17: write the proposed value into our buffer.
	o.buf.WriteBuf(p, lp.mybuf, v)
	// Line 18: e = Bank[(s+1) mod 2N] — the buffer holding the old value
	// with the *next* sequence number, which becomes reusable if we win.
	next := (s + 1) % (2 * o.n)
	e := int(o.bank[next].Read(p))
	// Line 19: attempt to install (mybuf, s+1) as the new tag.
	ok := o.x.SC(p, o.geom.PackX(lp.mybuf, next))
	if o.stats != nil {
		o.stats.SCTotal.Add(1)
	}
	if ok {
		// Line 20: our buffer now holds the current value; take ownership
		// of the expired buffer e instead.
		lp.mybuf = e
		if o.stats != nil {
			o.stats.SCSuccess.Add(1)
		}
		if o.traced {
			o.memory.Trace(p, mem.Event{Kind: mem.EvSCPublished, Arg: lp.mybuf})
			o.memory.Trace(p, mem.Event{Kind: mem.EvSCDone, Arg: 1})
		}
		return true // Line 21
	}
	if o.traced {
		o.memory.Trace(p, mem.Event{Kind: mem.EvSCDone, Arg: 0})
	}
	return false // Line 22
}

// VL performs procedure VL(p, O) (Figure 2, Line 23): it returns true iff
// no process performed a successful SC since p's latest LL or Read. Runs
// in O(1) steps.
func (o *Object) VL(p int) bool {
	if o.traced {
		o.memory.Trace(p, mem.Event{Kind: mem.EvVLStart})
	}
	ok := o.x.VL(p)
	if o.traced {
		arg := 0
		if ok {
			arg = 1
		}
		o.memory.Trace(p, mem.Event{Kind: mem.EvVLDone, Arg: arg})
	}
	return ok
}

// Space implements mwobj.Spacer. Paper accounting matches Theorem 1:
// 3N·W register words and 3N+1 single-word LL/SC objects. PhysBytes also
// charges per-process link contexts and local state.
func (o *Object) Space() mwobj.Space {
	s := mwobj.Space{
		RegisterWords: int64(3*o.n) * int64(o.w),
		LLSCWords:     int64(3*o.n) + 1,
	}
	s.PhysBytes = physBytes(o.buf) + physBytes(o.x) + int64(len(o.local))*64
	for _, w := range o.bank {
		s.PhysBytes += physBytes(w)
	}
	for _, w := range o.help {
		s.PhysBytes += physBytes(w)
	}
	return s
}

// physBytes asks a substrate piece for its physical size, estimating one
// word if it cannot say.
func physBytes(v any) int64 {
	if pb, ok := v.(mwobj.PhysByteser); ok {
		return pb.PhysBytes()
	}
	return 8
}

var _ mwobj.MW = (*Object)(nil)
var _ mwobj.Spacer = (*Object)(nil)
