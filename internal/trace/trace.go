// Package trace is the per-request tracing layer for the llscd serving
// path: where aggregate histograms (internal/obs) answer "how slow is
// the service", a trace answers the question every tail-latency
// investigation starts with — *where did this one slow request spend
// its time?*
//
// A request becomes traced one of two ways: the client flags it on the
// wire (an optional trailing trace id on the request frame, see
// internal/wire and docs/WIRE.md), or the server head-samples it at a
// 1-in-N rate. Either way the span is a plain value built from the
// server's per-batch stage clock when the batch finishes — frame
// decode, batch queue wait, registry slot acquire, shard execute,
// persist append, group-commit fsync wait — closed by the writer's
// flush, and retired here.
//
// The design constraint is the same one that shaped the serving path
// and the obs layer: the *untraced* path must stay allocation-free and
// cost no more than the E15 experiment shows. The stage timestamps come
// from the server's per-batch stage clock, which the latency histograms
// read anyway; everything per-request is gated on one branch; spans are
// values carried in the connection's reused batch units; retirement
// copies the span into fixed rings of atomic words (no locks on the
// recent ring, a short mutex on the rare slow-candidate path) so
// concurrent /tracez and /slowz readers race nothing.
package trace

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Stage indexes a span's per-stage duration. The stages partition the
// span's server-side lifetime in order; their sum equals Total by
// construction (each clock mark closes one stage and opens the next).
type Stage uint8

// Server pipeline stages, in timeline order.
const (
	// StageDecode: reading the request's frame(s) off the socket and
	// decoding the batch it arrived in (batched frames share the read).
	StageDecode Stage = iota
	// StageQueue: from batch fully decoded to execution start — the
	// admission check and the batch's degraded-mode verdict.
	StageQueue
	// StageAcquire: acquiring the registry process slot for the batch.
	StageAcquire
	// StageExecute: running the batch's operations against the shards
	// (the LL/SC attempt/retry window; per-request attempts are in
	// Span.Attempts).
	StageExecute
	// StagePersist: appending the batch's committed updates to the
	// durability log (zero on in-memory servers).
	StagePersist
	// StageFsync: waiting for the group-commit fsync round (nonzero
	// only under -fsync always).
	StageFsync
	// StageFlush: from responses handed to the writer goroutine to the
	// flush write that put this span's response on the wire — writer
	// coalesce plus the write syscall.
	StageFlush
	// NumStages is the number of server stages.
	NumStages = int(StageFlush) + 1
)

// WireStages is the number of leading stages a traced response carries
// back to the client: everything through fsync. StageFlush cannot
// travel — it is still happening while the response's bytes leave.
const WireStages = int(StageFlush)

// stageNames holds the stage mnemonics, indexed by Stage.
var stageNames = [NumStages]string{"decode", "queue", "acquire", "execute", "persist", "fsync", "flush"}

// StageName returns the short lowercase stage mnemonic.
func StageName(st Stage) string {
	if int(st) < NumStages {
		return stageNames[st]
	}
	return "stage?"
}

// Span is one traced request's record, a plain value. The server
// builds it from its per-batch stage clock when the batch finishes
// (NewSpan), its writer closes the flush stage after the write that
// carried the response (Flushed), and Tracer.Retire copies it into the
// rings.
type Span struct {
	// TraceID identifies the trace: client-chosen for wire-flagged
	// requests, generated (NewID) for head-sampled ones.
	TraceID uint64
	// Op is the request's wire opcode (a wire.Op; uint8 here so this
	// package does not import the protocol).
	Op uint8
	// Sampled is true for head-sampled spans, false for client-flagged.
	Sampled bool
	// Err is true when the request was answered with a non-OK status
	// (or its connection died before the flush).
	Err bool
	// Attempts is the LL/SC or transaction attempt count (0 when n/a).
	Attempts uint32
	// Batch is the size of the batch the request executed in.
	Batch uint32
	// Key is the request's key (0 for keyless ops).
	Key uint64
	// Start is the span's wall-clock start, nanoseconds since the Unix
	// epoch (durations use the monotonic clock; Start is for display).
	Start int64
	// Total is the span's full duration in nanoseconds: frame arrival
	// through flush.
	Total uint64
	// Stages holds the per-stage durations in nanoseconds. Their sum
	// equals Total.
	Stages [NumStages]uint64

	// flushFrom is the monotonic instant the last wire stage closed,
	// where the flush stage opens (zero on spans read from the rings).
	flushFrom time.Time
}

// NewSpan returns a span whose wire stages are the windows between
// consecutive clock marks: marks[0] is the request's arrival and
// marks[st+1] the instant stage st closed. The flush stage stays open
// until Flushed.
func NewSpan(marks *[WireStages + 1]time.Time) Span {
	s := Span{Start: marks[0].UnixNano(), flushFrom: marks[WireStages]}
	for st := 0; st < WireStages; st++ {
		s.Stages[st] = uint64(marks[st+1].Sub(marks[st]))
	}
	return s
}

// Flushed closes the flush stage at t and fixes Total as the stage sum,
// which telescopes to t minus the arrival mark.
func (s *Span) Flushed(t time.Time) {
	s.Stages[StageFlush] = uint64(t.Sub(s.flushFrom))
	s.Total = 0
	for _, d := range s.Stages {
		s.Total += d
	}
}

// idNext is the trace-id generator's counter, seeded once per process
// so that separate processes — two load generators against one server,
// say — do not draw the same id sequence.
var idNext atomic.Uint64

func init() { idNext.Store(rand.Uint64()) }

// NewID returns a fresh nonzero trace id: splitmix64 over the
// process-wide counter, a bijection, so ids never repeat within a
// process. Clients use it for calls that leave the id to them, the
// server for head-sampled spans.
func NewID() uint64 {
	for {
		z := idNext.Add(0x9e3779b97f4a7c15)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		if z ^= z >> 31; z != 0 {
			return z
		}
	}
}

// spanWords is the fixed word footprint of a span in the rings:
// trace id, meta (op/flags/attempts/batch), key, start, total, and the
// per-stage durations.
const spanWords = 5 + NumStages

// encode packs the span into dst.
func (s *Span) encode(dst *[spanWords]uint64) {
	meta := uint64(s.Op) | uint64(s.Attempts)<<16 | uint64(s.Batch)<<48
	if s.Sampled {
		meta |= 1 << 8
	}
	if s.Err {
		meta |= 1 << 9
	}
	dst[0] = s.TraceID
	dst[1] = meta
	dst[2] = s.Key
	dst[3] = uint64(s.Start)
	dst[4] = s.Total
	for i := 0; i < NumStages; i++ {
		dst[5+i] = s.Stages[i]
	}
}

// decode unpacks a ring record into s (the flush anchor is zero; the
// span is display-only).
func (s *Span) decode(src *[spanWords]uint64) {
	*s = Span{
		TraceID:  src[0],
		Op:       uint8(src[1]),
		Sampled:  src[1]&(1<<8) != 0,
		Err:      src[1]&(1<<9) != 0,
		Attempts: uint32(src[1] >> 16 & 0xffffffff),
		Batch:    uint32(src[1] >> 48),
		Key:      src[2],
		Start:    int64(src[3]),
		Total:    src[4],
	}
	for i := 0; i < NumStages; i++ {
		s.Stages[i] = src[5+i]
	}
}

// Attempts packing caps at 32 bits; Batch at 16. Both are far beyond
// any real batch executor's values (maxbatch defaults to 64, attempts
// are per-request retry counts).

// ringSlot is one seqlock-guarded span slot: writers bump seq to odd,
// store the words, bump to even; readers copy the words and discard
// the copy when seq changed underneath them. Everything is atomic, so
// the ring is lock-free and race-clean while readers and the writer
// overlap.
type ringSlot struct {
	seq   atomic.Uint64
	words [spanWords]atomic.Uint64
}

func (sl *ringSlot) store(w *[spanWords]uint64) {
	sl.seq.Add(1) // odd: write in progress
	for i := range sl.words {
		sl.words[i].Store(w[i])
	}
	sl.seq.Add(1) // even: stable
}

// load copies the slot out; ok is false when the slot is empty or a
// writer raced the read.
func (sl *ringSlot) load(w *[spanWords]uint64) (ok bool) {
	s1 := sl.seq.Load()
	if s1 == 0 || s1%2 == 1 {
		return false
	}
	for i := range sl.words {
		w[i] = sl.words[i].Load()
	}
	return sl.seq.Load() == s1
}

// slowEntry is one slot of the slowest-N window.
type slowEntry struct {
	words [spanWords]uint64
	total uint64
	end   int64 // the span's wall-clock end (Start+Total), for window expiry
	live  bool
}

// Fixed ring sizes.
const (
	// recentN is the recent-trace ring capacity (/tracez).
	recentN = 256
	// slowN is the slowest-N window capacity (/slowz).
	slowN = 64
	// slowWindow bounds how long a span defends its slowest-N slot:
	// /slowz shows the slowest of the recent past, not of all time.
	slowWindow = time.Minute
)

// Config tunes New. Zero values switch each feature off.
type Config struct {
	// SampleN enables head sampling: the server traces 1 in SampleN
	// requests on its own initiative. 0 disables head sampling
	// (client-flagged requests are always traced).
	SampleN uint64
	// SlowThreshold marks spans whose Total reaches it: each is offered
	// to the slowest-N window and emits one structured slow-op log
	// line. 0 disables the threshold (the window still keeps the
	// slowest-N seen).
	SlowThreshold time.Duration
	// Logf, when set, receives one structured line per span past
	// SlowThreshold.
	Logf func(format string, args ...any)
}

// Tracer owns the retirement rings and serves them as /tracez and
// /slowz (http.go).
type Tracer struct {
	sampleN uint64
	slowNS  uint64
	window  time.Duration
	logf    func(format string, args ...any)

	recent [recentN]ringSlot
	next   atomic.Uint64 // next recent slot

	// The gate makes the common retirement one pair of atomic loads:
	// only a span that beats the window's floor total, or ends after
	// gateUntil (when the window's oldest entry expires and frees its
	// slot), takes slowMu.
	slowGate  atomic.Uint64
	gateUntil atomic.Int64
	slowMu    sync.Mutex
	slow      [slowN]slowEntry

	retired atomic.Uint64
}

// New builds a Tracer from cfg.
func New(cfg Config) *Tracer {
	return &Tracer{
		sampleN: cfg.SampleN,
		slowNS:  uint64(cfg.SlowThreshold),
		window:  slowWindow,
		logf:    cfg.Logf,
	}
}

// SampleN returns the head-sampling rate (1-in-N; 0 = off).
func (t *Tracer) SampleN() uint64 { return t.sampleN }

// Retire records a completed span: it copies s into the recent ring
// (and the slow window when it qualifies) and emits the slow-op log
// line when s is past the threshold. s stays the caller's.
func (t *Tracer) Retire(s *Span) {
	var w [spanWords]uint64
	s.encode(&w)
	total := s.Total

	slot := (t.next.Add(1) - 1) % recentN
	t.recent[slot].store(&w)
	// Counted after the store, so a reader that sees Retired >= n also
	// finds the n-th span in the ring.
	t.retired.Add(1)

	slow := t.slowNS > 0 && total >= t.slowNS
	if slow && t.logf != nil {
		t.logf("slow-op trace=%016x op=%d key=%d sampled=%v total=%s decode=%s queue=%s acquire=%s execute=%s persist=%s fsync=%s flush=%s attempts=%d batch=%d",
			s.TraceID, s.Op, s.Key, s.Sampled, time.Duration(total),
			time.Duration(s.Stages[StageDecode]), time.Duration(s.Stages[StageQueue]),
			time.Duration(s.Stages[StageAcquire]), time.Duration(s.Stages[StageExecute]),
			time.Duration(s.Stages[StagePersist]), time.Duration(s.Stages[StageFsync]),
			time.Duration(s.Stages[StageFlush]), s.Attempts, s.Batch)
	}
	// The span's end stands in for the current time, so retirement
	// reads no clock of its own.
	end := s.Start + int64(total)
	if slow || total > t.slowGate.Load() || end > t.gateUntil.Load() {
		t.offerSlow(&w, total, end)
	}
}

// offerSlow inserts the span into the slowest-N window, evicting the
// best victim: an empty or expired slot first, else the smallest
// total if the newcomer beats it. It then refreshes the gate: the
// window's floor total while every slot is live (0 otherwise), valid
// until the oldest entry expires.
func (t *Tracer) offerSlow(w *[spanWords]uint64, total uint64, now int64) {
	t.slowMu.Lock()
	defer t.slowMu.Unlock()
	victim := -1
	var victimTotal uint64 = ^uint64(0)
	for i := range t.slow {
		e := &t.slow[i]
		if !t.alive(e, now) {
			victim, victimTotal = i, 0
			break
		}
		if e.total < victimTotal {
			victim, victimTotal = i, e.total
		}
	}
	if victim < 0 || (victimTotal > 0 && total < victimTotal) {
		return
	}
	t.slow[victim] = slowEntry{words: *w, total: total, end: now, live: true}
	floor, oldest := ^uint64(0), now
	for i := range t.slow {
		e := &t.slow[i]
		if !t.alive(e, now) {
			floor = 0 // free slots: let everything through
			break
		}
		floor, oldest = min(floor, e.total), min(oldest, e.end)
	}
	t.slowGate.Store(floor)
	t.gateUntil.Store(oldest + int64(t.window))
}

// alive reports whether e holds a span that has not aged out of the
// window by now.
func (t *Tracer) alive(e *slowEntry, now int64) bool {
	return e.live && now-e.end <= int64(t.window)
}

// Recent appends up to max of the most recently retired spans to dst,
// newest first. Spans a concurrent writer is overwriting are skipped.
func (t *Tracer) Recent(dst []Span, max int) []Span {
	n := recentN
	if max <= 0 || max > n {
		max = n
	}
	head := t.next.Load()
	var w [spanWords]uint64
	for i := 0; i < n && max > 0; i++ {
		slot := (head + uint64(n) - 1 - uint64(i)) % uint64(n)
		if !t.recent[slot].load(&w) {
			continue
		}
		var s Span
		s.decode(&w)
		dst = append(dst, s)
		max--
	}
	return dst
}

// Slow appends the live slowest-N window to dst, slowest first,
// dropping entries that have aged out.
func (t *Tracer) Slow(dst []Span) []Span {
	now := time.Now().UnixNano()
	t.slowMu.Lock()
	entries := make([]slowEntry, 0, slowN)
	for i := range t.slow {
		if e := &t.slow[i]; t.alive(e, now) {
			entries = append(entries, *e)
		}
	}
	t.slowMu.Unlock()
	for i := 1; i < len(entries); i++ { // insertion sort, slowest first
		for j := i; j > 0 && entries[j].total > entries[j-1].total; j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
	for i := range entries {
		var s Span
		s.decode(&entries[i].words)
		dst = append(dst, s)
	}
	return dst
}

// Stats is the tracer's own counter snapshot.
type Stats struct {
	// Retired counts spans completed and recorded.
	Retired uint64
}

// Stats returns the tracer's counters.
func (t *Tracer) Stats() Stats {
	return Stats{Retired: t.retired.Load()}
}
