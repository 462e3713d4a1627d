// Package txn provides lock-free multi-shard atomic transactions over a
// set of independent multiword LL/SC/VL objects — the paper's
// LL/manipulate/SC recipe (the same one internal/apps/mwcas lifts to one
// W-word object) lifted once more, to a two-phase commit that spans
// several objects.
//
// The substrate is a ShardSet: K independent atomic multiword LL/SC/VL
// shards holding the user values, untouched and at their native width.
// Beside them the engine keeps one lock word per shard in its own padded
// memory; a multi-key update then runs as a descriptor-based two-phase
// commit:
//
//  1. Collect: read a stable (unlocked) value of every target shard with
//     the substrate's store-free Read and run the caller's function on a
//     private copy.
//  2. Publish: write the target shard list plus the expected old and
//     computed new values into the calling process's descriptor, and flip
//     the descriptor's status word to Active. From here the transaction
//     is completable by ANY process.
//  3. Lock and seal: visit the target shards in ascending index order;
//     on each, CAS the lock word from its free marker to a lock
//     reference (descriptor owner + sequence number, locked bit set),
//     then "seal" the shard — verify its value still equals the recorded
//     old value and rewrite it unchanged with an SC. The seal's version
//     bump invalidates the link of every writer that read the lock word
//     before the CAS, so no single-key SC can land on a sealed shard
//     (writers re-check the lock word after re-LL and help instead). A
//     value mismatch atomically moves the descriptor to Aborted.
//     Encountering a foreign lock reference first helps that transaction
//     to completion (bounded, because locks are only ever taken in
//     ascending shard order), then retries.
//  4. Commit: when every target shard is locked and sealed, CAS the
//     descriptor from Active to Committed — the linearization point.
//  5. Release: SC the recorded new value into each shard (Committed) —
//     or leave the value untouched (Aborted) — and swing its lock word
//     to the reference's free marker. Free markers never repeat, which
//     closes the last reuse race (see the lock-word layout notes).
//
// Helping makes the construction lock-free rather than blocking: a
// process that stalls — or crashes — between Publish and the end of
// Release leaves a descriptor that any other process completes the
// moment it trips over one of its lock references, so a stalled
// transaction never blocks anyone else's progress. Descriptor slots are
// recycled under a sequence number; helpers copy a descriptor's data out
// and re-validate the sequence number before acting, re-check it after
// every shard LL, and recognize (and clear) stale lock references whose
// sequence number no longer matches, so a helper that outlives an
// incarnation can never corrupt the next one.
//
// Snapshot obtains a cross-shard linearizable view the optimistic way
// first: Read every shard, then VL every shard. All Reads precede all
// VLs, so if every VL validates, the values all coexisted at the instant
// between the two passes. Under sustained update traffic the double
// collect retries a bounded number of times and then falls back to the
// descriptor path: an identity transaction over all K shards whose
// collected old values are, by the commit-point argument above, a
// consistent cut.
package txn

import (
	"fmt"
	"sort"
	"sync/atomic"

	"mwllsc/internal/obs"
)

// ShardSet is the substrate the engine runs over: Shards() independent
// atomic multiword LL/SC/VL objects, each Words() words wide, with the
// usual per-process semantics (process p's SC succeeds iff no successful
// SC hit that shard since p's latest LL of it). The engine stores no
// metadata inside the shard values — they stay at their native width.
type ShardSet interface {
	// Shards returns K, the number of shards.
	Shards() int
	// Words returns the per-shard value width in 64-bit words.
	Words() int
	// LL performs a load-linked of shard i by process p (len(dst) = Words()).
	LL(p, i int, dst []uint64)
	// Read copies shard i's current value into dst for process p and links
	// like an LL for VL, but p's SC on shard i fails until p's next LL of
	// it. The engine reads with it wherever no SC follows on that link.
	Read(p, i int, dst []uint64)
	// SC performs a store-conditional on shard i by process p.
	SC(p, i int, src []uint64) bool
	// VL validates process p's latest LL or Read of shard i.
	VL(p, i int) bool
}

// Stepper is optionally implemented by a ShardSet (the deterministic
// simulator does) to insert a scheduling point before each of the
// engine's own shared-memory accesses — lock-word and descriptor status
// operations — so an adversarial scheduler controls their interleaving
// exactly as it does the shard operations'. Real shard sets omit it.
type Stepper interface {
	Step(p int)
}

// Descriptor status word layout: seq<<2 | phase. The sequence number
// distinguishes incarnations of the same descriptor slot so that stale
// lock references are recognizable.
const (
	phaseFree      = 0 // descriptor idle; owner may prepare the next txn
	phaseActive    = 1 // published; lock phase in progress
	phaseCommitted = 2 // all shards locked and sealed; new values win
	phaseAborted   = 3 // a shard changed since collect; old values stand
	phaseMask      = 3
)

// Lock reference layout: seq<<17 | proc<<1 | 1. Bit 0 set marks a LOCKED
// shard; 16 bits of process id bound N; the sequence number is truncated
// to the remaining 47 bits (a slot would need >10^14 transactions to
// wrap).
//
// A lock word with bit 0 clear is FREE — but its upper bits still carry
// the reference of the transaction that last released it (zero only
// before the first lock ever). Free markers therefore never repeat,
// which is load-bearing: a claim is CAS(marker -> ref), so a helper that
// stalls between reading the marker and CASing can never re-lock a shard
// that went through any lock/release cycle in between — its CAS fails on
// the changed marker. Without this, a stale claim plus a lagging
// releaser could overwrite a later single-key update (a lost update).
const (
	refProcBits = 16
	// MaxProcs is the largest process count an Engine supports (the lock
	// reference encoding reserves 16 bits for the owner's process id).
	MaxProcs   = 1 << refProcBits
	refSeqMask = 1<<(63-refProcBits) - 1
)

func makeRef(q int, seq uint64) uint64 {
	return (seq&refSeqMask)<<(refProcBits+1) | uint64(q)<<1 | 1
}

func refProc(r uint64) int   { return int(r >> 1 & (MaxProcs - 1)) }
func refSeq(r uint64) uint64 { return r >> (refProcBits + 1) }

// freeMarker is the unlocked lock-word state a released reference leaves
// behind: the reference with its locked bit cleared.
func freeMarker(ref uint64) uint64 { return ref &^ 1 }

// locked reports whether a lock-word value denotes a held lock.
func locked(v uint64) bool { return v&1 == 1 }

// SnapshotRetries is how many optimistic double collects Snapshot
// attempts before falling back to the descriptor path; Snapshot's return
// value exceeds it iff the fallback ran.
const SnapshotRetries = 4

// lockWord is one shard's transaction lock, padded so neighboring
// shards' locks do not share a cache line (every single-key update loads
// its shard's lock word once).
type lockWord struct {
	v atomic.Uint64
	_ [56]byte
}

// descriptor is one process's published transaction. All fields that
// helpers read are atomic words: the owner rewrites them between
// incarnations while a late helper of the previous incarnation may still
// be looking, so the accesses must be well-defined — and helpers guard
// against acting on the wrong incarnation by re-validating the sequence
// number (see helpRef).
type descriptor struct {
	status atomic.Uint64 // seq<<2 | phase
	nsh    atomic.Uint64 // number of target shards this incarnation
	_      [48]byte      // keep neighboring descriptors' hot words apart
	shards []atomic.Uint64
	oldv   []atomic.Uint64 // nsh rows of w expected old words
	newv   []atomic.Uint64 // nsh rows of w replacement words
}

// ownerLocal is per-process scratch, touched only by the goroutine
// driving that process id (the same discipline as a shard.MapHandle).
type ownerLocal struct {
	full []uint64   // one LL/SC scratch frame of w words
	ds   []int      // distinct ascending target shards
	olds []uint64   // k rows of w collected words
	news []uint64   // k rows of w words handed to f
	vals [][]uint64 // per-key aliases into news
	// frames is the helping scratch pool, indexed by depth: helpRef can
	// nest (helping a transaction whose lock phase trips over a third
	// transaction's lock), but each level needs its own frame and the
	// depth is bounded (lock chains strictly ascend in shard index), so
	// the pool grows to the observed maximum once and helping is
	// allocation-free afterwards.
	frames []*frame
	depth  int
	_      [64]byte
}

// frame is a private, immutable copy of one descriptor incarnation's
// data, the only thing the transaction state machine reads while it
// works. Helpers copy it out of the descriptor and re-validate the
// sequence number afterwards; the owner aliases its own scratch. Working
// from a frame (instead of re-reading the descriptor) means a helper
// that outlives the incarnation can never act on the NEXT transaction's
// shard list or values.
type frame struct {
	shards []int
	oldv   []uint64 // len(shards) rows of w words
	newv   []uint64
	full   []uint64 // LL/SC scratch, w words
}

// Engine provides multi-shard atomic operations for N processes over a
// ShardSet. Like the objects underneath, process id p must be driven by
// at most one goroutine at a time.
type Engine struct {
	s       ShardSet
	stepper Stepper // nil outside the simulator
	k       int     // shards
	w       int     // words per shard
	locks   []lockWord
	descs   []descriptor
	local   []ownerLocal
	all     []int // [0,k): Snapshot's fallback target list
	// ctrs are the engine's contention counters (helps, retries),
	// striped per process so bumping them costs no shared cache line —
	// these fire exactly when shards are already contended, the worst
	// possible moment to add false sharing.
	ctrs *obs.Counters
}

// Engine counter indices within ctrs.
const (
	ctrHelps   = iota // helpRef invocations: lock references found in the way
	ctrRetries        // extra Update attempts beyond the first (conflict aborts)
	numEngineCtrs
)

// Stats is a snapshot of the engine's contention counters.
type Stats struct {
	// Helps counts lock references processes found in their way and
	// helped to completion (or recognized as stale and cleared) —
	// the paper's helping mechanism firing.
	Helps uint64
	// Retries counts Update attempts beyond each call's first: how
	// often a conflicting commit forced a collect-lock cycle to rerun.
	Retries uint64
}

// Stats returns the engine's contention counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Helps:   e.ctrs.Sum(ctrHelps),
		Retries: e.ctrs.Sum(ctrRetries),
	}
}

// New builds an engine for n processes over s.
func New(s ShardSet, n int) (*Engine, error) {
	k, w := s.Shards(), s.Words()
	if k < 1 || w < 1 {
		return nil, fmt.Errorf("txn: need >=1 shards of >=1 words, got %d of %d", k, w)
	}
	if n < 1 || n > MaxProcs {
		return nil, fmt.Errorf("txn: process count %d outside [1,%d]", n, MaxProcs)
	}
	e := &Engine{s: s, k: k, w: w,
		locks: make([]lockWord, k),
		descs: make([]descriptor, n),
		local: make([]ownerLocal, n),
		all:   make([]int, k),
		ctrs:  obs.NewCounters(n, numEngineCtrs),
	}
	e.stepper, _ = s.(Stepper)
	for i := range e.all {
		e.all[i] = i
	}
	for p := range e.descs {
		d := &e.descs[p]
		d.shards = make([]atomic.Uint64, k)
		d.oldv = make([]atomic.Uint64, k*w)
		d.newv = make([]atomic.Uint64, k*w)
		l := &e.local[p]
		l.full = make([]uint64, w)
		l.olds = make([]uint64, k*w)
		l.news = make([]uint64, k*w)
	}
	return e, nil
}

// Shards returns K, the shard count.
func (e *Engine) Shards() int { return e.k }

// Words returns the per-shard value width in 64-bit words.
func (e *Engine) Words() int { return e.w }

// step yields to the simulator's scheduler, when there is one.
func (e *Engine) step(p int) {
	if e.stepper != nil {
		e.stepper.Step(p)
	}
}

// Locked returns zero when no transaction is mid-commit on shard sh,
// else the lock reference to pass to Help. The single-key fast path
// loads it once per attempt, between its LL and SC.
func (e *Engine) Locked(p, sh int) uint64 {
	e.step(p)
	if v := e.locks[sh].v.Load(); locked(v) {
		return v
	}
	return 0
}

// Help completes or clears the transaction whose lock reference ref was
// observed on shard sh, on behalf of process p. Callers (e.g. the
// single-key update fast path) re-read the shard afterwards.
func (e *Engine) Help(p, sh int, ref uint64) { e.helpRef(p, sh, ref) }

// Update atomically applies f to the user values of the listed shards
// (one entry per key; duplicates collapse onto one shard). f receives one
// slice per input position, in input order — entries naming the same
// shard alias the same slice — and must mutate them in place. Like a
// single-key update's function, f may run several times (once per
// attempt) and therefore must be deterministic and side-effect free.
//
// Update returns the number of collect-lock attempts; 1 means no
// conflicting operation intervened. Lock-free: an attempt only aborts
// when another process's operation committed on one of the target shards
// between collect and lock.
func (e *Engine) Update(p int, keyShards []int, f func(vals [][]uint64)) int {
	if len(keyShards) == 0 {
		return 0
	}
	l := &e.local[p]
	d := &e.descs[p]
	w := e.w

	// Distinct ascending target shard list.
	ds := l.ds[:0]
	for _, sh := range keyShards {
		if sh < 0 || sh >= e.k {
			panic(fmt.Sprintf("txn: shard index %d out of range [0,%d)", sh, e.k))
		}
		pos := sort.SearchInts(ds, sh)
		if pos < len(ds) && ds[pos] == sh {
			continue
		}
		ds = append(ds, 0)
		copy(ds[pos+1:], ds[pos:])
		ds[pos] = sh
	}
	l.ds = ds

	// vals[i] aliases the news row of keyShards[i]'s shard.
	vals := l.vals[:0]
	for _, sh := range keyShards {
		j := sort.SearchInts(ds, sh)
		vals = append(vals, l.news[j*w:(j+1)*w:(j+1)*w])
	}
	l.vals = vals

	for attempt := 1; ; attempt++ {
		// Collect stable values and run f on a private copy.
		for j, sh := range ds {
			e.stableRead(p, sh, l.olds[j*w:(j+1)*w])
		}
		copy(l.news[:len(ds)*w], l.olds[:len(ds)*w])
		f(vals)

		// Publish: from here any process can finish this transaction.
		seq := d.status.Load() >> 2
		d.nsh.Store(uint64(len(ds)))
		for j, sh := range ds {
			d.shards[j].Store(uint64(sh))
			for t := 0; t < w; t++ {
				d.oldv[j*w+t].Store(l.olds[j*w+t])
				d.newv[j*w+t].Store(l.news[j*w+t])
			}
		}
		e.step(p)
		d.status.Store(seq<<2 | phaseActive)

		fr := &frame{shards: ds, oldv: l.olds[:len(ds)*w], newv: l.news[:len(ds)*w], full: l.full}
		e.run(p, p, seq, fr)

		outcome := d.status.Load() & phaseMask
		// Recycle the descriptor under the next sequence number. All our
		// lock references are gone (release re-checked each shard until
		// the reference was absent), so any reference carrying the old
		// seq that appears later is a recognizably stale late-helper
		// install, which every visitor clears on sight.
		e.step(p)
		d.status.Store((seq + 1) << 2)
		if outcome == phaseCommitted {
			if attempt > 1 {
				e.ctrs.Add(p, ctrRetries, uint64(attempt-1))
			}
			return attempt
		}
	}
}

// Snapshot fills dst — K rows of Words() words — with a cross-shard
// linearizable snapshot: all K values coexisted at one instant between
// Snapshot's invocation and response. It returns the number of attempts;
// a value above SnapshotRetries means the optimistic double collect kept
// getting invalidated and the descriptor fallback (an identity
// transaction over all K shards) produced the cut. Lock-free.
func (e *Engine) Snapshot(p int, dst [][]uint64) int {
	if len(dst) != e.k {
		panic(fmt.Sprintf("txn: snapshot buffer has %d rows, want %d", len(dst), e.k))
	}
	for i, row := range dst {
		if len(row) != e.w {
			panic(fmt.Sprintf("txn: snapshot row %d has %d words, want %d", i, len(row), e.w))
		}
	}
	for attempt := 1; attempt <= SnapshotRetries; attempt++ {
		// Pass 1: Read every shard. Pass 2: VL every shard. Every Read
		// precedes every VL, so if no VL fails, all K values were
		// simultaneously current at the instant between the passes.
		//
		// An attempt must contain NO helping between its Reads and VLs:
		// helping re-LLs already collected shards under this same process
		// id, which would make their VLs validate the helper's fresh link
		// instead of the collecting Read and let a torn view through. So
		// a locked shard aborts the attempt, gets helped out of the way,
		// and the collect restarts from scratch.
		lockedShard, lockedRef := -1, uint64(0)
		for i := 0; i < e.k; i++ {
			e.s.Read(p, i, dst[i])
			e.step(p)
			if v := e.locks[i].v.Load(); locked(v) {
				lockedShard, lockedRef = i, v
				break
			}
		}
		if lockedShard >= 0 {
			e.helpRef(p, lockedShard, lockedRef)
			continue
		}
		ok := true
		for i := 0; i < e.k; i++ {
			if !e.s.VL(p, i) {
				ok = false
				break
			}
		}
		if ok {
			return attempt
		}
	}
	// Descriptor fallback: an identity transaction over every shard. Its
	// f sees the collected values of the attempt that commits — a
	// consistent cut as of the moment all K locks were held.
	e.Update(p, e.all, func(vals [][]uint64) {
		for i, v := range vals {
			copy(dst[i], v)
		}
	})
	return SnapshotRetries + 1
}

// LockedShards returns how many shards currently carry a held lock
// reference — a post-run diagnostic for tests; it is not linearizable
// against concurrent operations and takes no scheduling steps.
func (e *Engine) LockedShards() int {
	n := 0
	for i := range e.locks {
		if locked(e.locks[i].v.Load()) {
			n++
		}
	}
	return n
}

// Read copies a stable (no transaction mid-commit) value of shard sh
// into dst. The value is the shard's logical value at some instant during
// the call. Lock-free.
func (e *Engine) Read(p, sh int, dst []uint64) {
	if len(dst) != e.w {
		panic(fmt.Sprintf("txn: read buffer has %d words, want %d", len(dst), e.w))
	}
	e.stableRead(p, sh, dst)
}

// stableRead reads shard sh's logical value into dst: Read, then check
// the lock word (helping any pending transaction out of the way), then
// VL. The VL closes the last gap: a release could have rewritten the
// shard between our Read and an unlocked lock-word read, in which case
// the value predates a committed transaction — the release's SC broke
// our link, so VL fails and we re-read. On return, p's link on sh is
// from the final (validated) Read; it licenses VL, not SC, which is all
// the collect phase needs (seal and release LL afresh before they SC).
func (e *Engine) stableRead(p, sh int, dst []uint64) {
	for {
		e.s.Read(p, sh, dst)
		e.step(p)
		if v := e.locks[sh].v.Load(); locked(v) {
			e.helpRef(p, sh, v)
			continue
		}
		if e.s.VL(p, sh) {
			return
		}
	}
}

// helpRef reacts to lock reference ref observed on shard sh: if the
// owning descriptor is still on that incarnation, copy its data out,
// re-validate the incarnation, and drive the transaction to completion;
// otherwise the reference is a stale late-helper install — clear it (a
// lock install never touches the shard value, so clearing the lock word
// is the identity).
func (e *Engine) helpRef(p, sh int, ref uint64) {
	e.ctrs.Inc(p, ctrHelps)
	q := refProc(ref)
	if q >= len(e.descs) {
		e.clearStale(p, sh, ref)
		return
	}
	d := &e.descs[q]
	e.step(p)
	st := d.status.Load()
	if st>>2&refSeqMask != refSeq(ref) || st&phaseMask == phaseFree {
		// Sequence numbers only grow, so a mismatch can never become a
		// match again: the reference is stale forever and clearing it is
		// safe at any later time.
		e.clearStale(p, sh, ref)
		return
	}
	seq := st >> 2
	// Copy the incarnation's data into a private frame, then re-check
	// that the incarnation is still current. The owner rewrites these
	// fields only after bumping the sequence number, so a clean re-check
	// proves the copy is this incarnation's data, not the next one's.
	w := e.w
	nsh := int(d.nsh.Load())
	if nsh < 1 || nsh > e.k {
		return
	}
	fr := e.getFrame(p, nsh)
	defer e.putFrame(p)
	for j := 0; j < nsh; j++ {
		fr.shards[j] = int(d.shards[j].Load())
		for t := 0; t < w; t++ {
			fr.oldv[j*w+t] = d.oldv[j*w+t].Load()
			fr.newv[j*w+t] = d.newv[j*w+t].Load()
		}
	}
	e.step(p)
	if d.status.Load()>>2 != seq {
		// Recycled mid-copy; the caller re-reads the shard and, on the
		// next encounter of the (now provably stale) reference, clears it.
		return
	}
	for j := 0; j < nsh; j++ {
		if fr.shards[j] < 0 || fr.shards[j] >= e.k {
			return
		}
	}
	e.run(p, q, seq, fr)
}

// getFrame checks a frame for nsh shards out of process p's depth-indexed
// helping pool, growing the pool on first use of a new nesting depth;
// putFrame returns the most recent one.
func (e *Engine) getFrame(p, nsh int) *frame {
	l := &e.local[p]
	if l.depth == len(l.frames) {
		l.frames = append(l.frames, &frame{
			shards: make([]int, e.k),
			oldv:   make([]uint64, e.k*e.w),
			newv:   make([]uint64, e.k*e.w),
			full:   make([]uint64, e.w),
		})
	}
	fr := l.frames[l.depth]
	l.depth++
	fr.shards = fr.shards[:nsh]
	fr.oldv = fr.oldv[:nsh*e.w]
	fr.newv = fr.newv[:nsh*e.w]
	return fr
}

func (e *Engine) putFrame(p int) { e.local[p].depth-- }

// clearStale removes a stale lock reference from shard sh's lock word
// (leaving the reference's free marker, so the slot stays
// never-repeating). A CAS failure is fine: the reference already
// changed, so somebody else dealt with it (callers re-read regardless).
func (e *Engine) clearStale(p, sh int, ref uint64) {
	e.step(p)
	e.locks[sh].v.CompareAndSwap(ref, freeMarker(ref))
}

// run drives descriptor q's transaction with sequence number seq to
// completion (through release), performing shard operations as process p
// and reading the transaction's data exclusively from fr. It returns as
// soon as the descriptor leaves that incarnation.
func (e *Engine) run(p, q int, seq uint64, fr *frame) {
	d := &e.descs[q]
	ref := makeRef(q, seq)
	for {
		e.step(p)
		st := d.status.Load()
		if st>>2 != seq {
			return // recycled: that incarnation is fully finished
		}
		switch st & phaseMask {
		case phaseActive:
			e.lockAll(p, d, seq, ref, fr)
		case phaseCommitted:
			e.release(p, d, seq, ref, true, fr)
			return
		case phaseAborted:
			e.release(p, d, seq, ref, false, fr)
			return
		default: // phaseFree: owner is between transactions; nothing to do
			return
		}
	}
}

// lockAll is the lock-and-seal phase: visit the target shards in
// ascending order; on each, claim the lock word, verify the recorded old
// value, and seal the shard with a value-unchanged SC. The seal's
// version bump cuts off every writer whose lock-word check predates the
// claim, so a sealed shard's value is frozen until release. The phase
// ends by moving the descriptor to Committed (all sealed) or Aborted (a
// value mismatch), either of which may already have been done by a
// concurrent helper.
//
// Every status and lock-word check that justifies an SC sits between
// that SC's LL and the SC itself, so the justification cannot be stale
// relative to the shard state the SC is conditioned on. A helper stalled
// between a check and a lock-word CAS can at worst re-install the
// reference after the transaction finished — a stale reference that
// every later visitor recognizes by its sequence number and clears,
// value untouched.
func (e *Engine) lockAll(p int, d *descriptor, seq, ref uint64, fr *frame) {
	w := e.w
	for j, sh := range fr.shards {
		lw := &e.locks[sh].v
		for {
			e.step(p)
			cur := lw.Load()
			if cur != ref && locked(cur) {
				e.helpRef(p, sh, cur)
				continue
			}
			if cur != ref {
				// cur is a free marker: claim it. The marker load
				// precedes the status check on purpose — a current
				// Active phase proves the marker predates this
				// transaction's commit, and free markers never repeat,
				// so the CAS cannot land atop any later lock cycle of
				// this shard.
				e.step(p)
				if d.status.Load() != seq<<2|phaseActive {
					return // a helper finished (or aborted) the lock phase
				}
				e.step(p)
				lw.CompareAndSwap(cur, ref) // next iteration verifies and seals
				continue
			}
			// Claimed for this transaction: verify and seal.
			e.s.LL(p, sh, fr.full)
			e.step(p)
			if d.status.Load() != seq<<2|phaseActive {
				return
			}
			e.step(p)
			if lw.Load() != ref {
				continue
			}
			match := true
			for t := 0; t < w; t++ {
				if fr.full[t] != fr.oldv[j*w+t] {
					match = false
					break
				}
			}
			if !match {
				e.step(p)
				d.status.CompareAndSwap(seq<<2|phaseActive, seq<<2|phaseAborted)
				return
			}
			if e.s.SC(p, sh, fr.full) {
				break // sealed: the value is frozen under our reference
			}
			// A writer or another sealer slipped in; re-verify.
		}
	}
	// Commit point: every target shard is locked, sealed, and verified.
	e.step(p)
	d.status.CompareAndSwap(seq<<2|phaseActive, seq<<2|phaseCommitted)
}

// release is the unlock phase: on commit, SC the recorded new value into
// every target shard that still carries the lock reference and clear the
// reference; on abort, just clear the references (a claim or seal never
// changed any value).
//
// The status re-check between the LL and the SC makes the data write
// safe under descriptor reuse: new values are written only while the
// incarnation is provably still current at a moment AFTER the lock
// reference was observed, which rules out writing through a stale
// late-helper install (those can only exist once the incarnation is
// over, and are cleared here value-untouched instead).
func (e *Engine) release(p int, d *descriptor, seq, ref uint64, commit bool, fr *frame) {
	w := e.w
	for j, sh := range fr.shards {
		lw := &e.locks[sh].v
		for {
			e.step(p)
			if lw.Load() != ref {
				break // released already (or, under abort, never claimed)
			}
			if !commit {
				// The claim and seal left the value untouched; dropping
				// the reference is the whole abort.
				e.step(p)
				lw.CompareAndSwap(ref, freeMarker(ref))
				break
			}
			e.s.LL(p, sh, fr.full)
			e.step(p)
			if lw.Load() != ref {
				break
			}
			e.step(p)
			if d.status.Load() != seq<<2|phaseCommitted {
				// Recycled: the reference under our eyes is a stale late
				// install — clear it without touching the value.
				e.step(p)
				lw.CompareAndSwap(ref, freeMarker(ref))
				break
			}
			copy(fr.full, fr.newv[j*w:(j+1)*w])
			if e.s.SC(p, sh, fr.full) {
				e.step(p)
				lw.CompareAndSwap(ref, freeMarker(ref))
				break
			}
			// Our link broke: another releaser's SC (or a stale seal
			// bump) landed; re-read and re-decide.
		}
	}
}
