package shard

import (
	"fmt"

	"mwllsc/internal/core"
	"mwllsc/internal/mem"
	"mwllsc/internal/mwobj"
	"mwllsc/internal/txn"
)

// Map is a K-shard array of independent N-process W-word LL/SC/VL objects,
// keyed by hash. Each shard carries the paper's full per-object guarantees
// (wait-free O(W) LL/SC, linearizable per shard); spreading keys over K
// shards multiplies aggregate SC throughput because writes to different
// shards no longer contend on a single X word.
//
// Consistency contract: operations on one key (one shard) are atomic and
// linearizable exactly as for a single object. For atomicity ACROSS
// shards, the map carries a lock-free transaction layer (internal/txn):
// UpdateMulti applies one function atomically to the values of several
// keys in different shards, and SnapshotAtomic returns a cross-shard
// linearizable view of all K shards. Both are lock-free rather than
// wait-free and cost more than their per-key counterparts — UpdateMulti
// pays two LL/SC rounds per touched shard (lock + release) plus a
// descriptor publish, SnapshotAtomic two passes over all K shards plus
// retries under sustained write traffic — so per-key Update/Read and the
// weaker per-shard-atomic Snapshot remain the fast path.
//
// A Map shares one Registry across all shards: an acquired process id is
// valid on every shard, so a goroutine pins one id and then touches any
// subset of shards.
//
// The shards hold user values only, at their native width; the
// transaction engine keeps one padded lock word per shard in its own
// memory, so the per-key fast path pays exactly one extra atomic load.
type Map struct {
	shards  []mwobj.MW
	reads   []func(p int, dst []uint64) // reads[i] is shard i's Read, else its LL
	reg     *Registry
	eng     *txn.Engine
	repKeys []uint64 // repKeys[i] is owned by shard i; see KeyForShard
	k       int
	n       int
	w       int
}

// MapOption configures NewMap.
type MapOption func(*mapConfig)

type mapConfig struct {
	factory mwobj.Factory
	initial []uint64
}

// WithFactory builds each shard with f instead of the default (the paper's
// algorithm on the tagged substrate).
func WithFactory(f mwobj.Factory) MapOption {
	return func(c *mapConfig) { c.factory = f }
}

// WithInitial sets every shard's initial value (len must be w).
func WithInitial(v []uint64) MapOption {
	return func(c *mapConfig) { c.initial = v }
}

// DefaultFactory builds the paper's algorithm on the tagged substrate —
// the same construction as the top-level package's New.
func DefaultFactory(n, w int, initial []uint64) (mwobj.MW, error) {
	return core.New(mem.NewReal(n, mem.SubstrateTagged), n, w, initial, nil)
}

// NewMap creates a map of k shards, each an n-process w-word object
// initialized to zeros (or WithInitial). n bounds the number of goroutines
// that can operate concurrently; additional goroutines wait at the
// registry.
func NewMap(k, n, w int, opts ...MapOption) (*Map, error) {
	if k < 1 {
		return nil, fmt.Errorf("shard: map needs k >= 1 shards, got %d", k)
	}
	if w < 1 {
		return nil, fmt.Errorf("shard: map needs w >= 1 words, got %d", w)
	}
	cfg := mapConfig{factory: DefaultFactory}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.initial == nil {
		cfg.initial = make([]uint64, w)
	}
	if len(cfg.initial) != w {
		return nil, fmt.Errorf("shard: initial value has %d words, want %d", len(cfg.initial), w)
	}
	reg, err := NewRegistry(n)
	if err != nil {
		return nil, err
	}
	m := &Map{shards: make([]mwobj.MW, k), reads: make([]func(int, []uint64), k), reg: reg, k: k, n: n, w: w}
	for i := range m.shards {
		obj, err := cfg.factory(n, w, cfg.initial)
		if err != nil {
			return nil, fmt.Errorf("shard: building shard %d: %w", i, err)
		}
		if obj.N() != n || obj.W() != w {
			return nil, fmt.Errorf("shard: factory built a %d-process %d-word object, want %d/%d",
				obj.N(), obj.W(), n, w)
		}
		m.shards[i] = obj
		// The paper's object reads store-free; a baseline reads with LL.
		// Resolved once here so the read path never type-asserts.
		m.reads[i] = obj.LL
		if c, ok := obj.(*core.Object); ok {
			m.reads[i] = c.Read
		}
	}
	eng, err := txn.New(mapShards{m}, n)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	m.eng = eng
	// One representative key per shard, for KeyForShard: scan the dense
	// integers once (the hash is a bijection, so every shard is hit in
	// expected ~K·lnK probes).
	m.repKeys = make([]uint64, k)
	filled := make([]bool, k)
	for next, found := uint64(0), 0; found < k; next++ {
		if i := m.ShardIndex(next); !filled[i] {
			m.repKeys[i] = next
			filled[i] = true
			found++
		}
	}
	return m, nil
}

// mapShards adapts a Map to the txn engine's substrate interface.
type mapShards struct{ m *Map }

func (s mapShards) Shards() int                    { return s.m.k }
func (s mapShards) Words() int                     { return s.m.w }
func (s mapShards) LL(p, i int, dst []uint64)      { s.m.shards[i].LL(p, dst) }
func (s mapShards) Read(p, i int, dst []uint64)    { s.m.reads[i](p, dst) }
func (s mapShards) SC(p, i int, src []uint64) bool { return s.m.shards[i].SC(p, src) }
func (s mapShards) VL(p, i int) bool               { return s.m.shards[i].VL(p) }

// Shards returns K, the shard count.
func (m *Map) Shards() int { return m.k }

// N returns the number of process slots (concurrent operators) per shard.
func (m *Map) N() int { return m.n }

// W returns the per-shard value width in 64-bit words.
func (m *Map) W() int { return m.w }

// Registry returns the process-slot registry shared by all shards.
func (m *Map) Registry() *Registry { return m.reg }

// TxnStats returns the transaction engine's contention counters
// (helping and retry rates) — the observability window onto how often
// the paper's helping mechanism actually fires under this map's load.
func (m *Map) TxnStats() txn.Stats { return m.eng.Stats() }

// ShardIndex returns the shard that owns key.
func (m *Map) ShardIndex(key uint64) int {
	return int(mix64(key) % uint64(m.k))
}

// KeyForShard returns a key owned by shard i (so
// ShardIndex(KeyForShard(i)) == i) — the inverse of ShardIndex for
// workloads that pin one entity per shard (one account per shard, one
// partition head per shard, ...) and address it through the key API.
func (m *Map) KeyForShard(i int) uint64 { return m.repKeys[i] }

// Acquire checks out a process id valid on every shard and returns a
// handle bound to it. The handle must be used by one goroutine at a time
// and returned with Release. Prefer one long-lived handle per worker
// goroutine; the per-op convenience wrappers on Map pay an
// acquire/release round trip each call.
func (m *Map) Acquire() *MapHandle {
	return &MapHandle{m: m, p: m.reg.Acquire()}
}

// TryAcquire is Acquire without waiting; ok is false if all n slots are
// checked out.
func (m *Map) TryAcquire() (h *MapHandle, ok bool) {
	p, ok := m.reg.TryAcquire()
	if !ok {
		return nil, false
	}
	return &MapHandle{m: m, p: p}, true
}

// Update acquires a slot, atomically applies f to the shard owning key,
// and releases the slot. It returns the number of LL/SC attempts.
func (m *Map) Update(key uint64, f func(v []uint64)) int {
	h := m.Acquire()
	defer h.Release()
	return h.Update(key, f)
}

// UpdateMulti acquires a slot, atomically applies f to the values of the
// shards owning keys (see MapHandle.UpdateMulti), and releases the slot.
func (m *Map) UpdateMulti(keys []uint64, f func(vals [][]uint64)) int {
	h := m.Acquire()
	defer h.Release()
	return h.UpdateMulti(keys, f)
}

// Read acquires a slot, copies the current value of the shard owning key
// into dst (len(dst) must be W), and releases the slot.
func (m *Map) Read(key uint64, dst []uint64) {
	h := m.Acquire()
	defer h.Release()
	h.Read(key, dst)
}

// Snapshot acquires a slot, reads every shard individually-atomically into
// dst (dst must have K rows of W words; see NewSnapshotBuffer), and
// releases the slot. Per-shard atomic, not cross-shard linearizable — see
// MapHandle.Snapshot for the exact guarantees and SnapshotAtomic for the
// cross-shard linearizable (and costlier) variant.
func (m *Map) Snapshot(dst [][]uint64) {
	h := m.Acquire()
	defer h.Release()
	h.Snapshot(dst)
}

// SnapshotAtomic acquires a slot, takes a cross-shard linearizable
// snapshot into dst (see MapHandle.SnapshotAtomic), and releases the slot.
func (m *Map) SnapshotAtomic(dst [][]uint64) int {
	h := m.Acquire()
	defer h.Release()
	return h.SnapshotAtomic(dst)
}

// NewSnapshotBuffer allocates a K×W destination for Snapshot and
// SnapshotAtomic.
func (m *Map) NewSnapshotBuffer() [][]uint64 {
	buf := make([][]uint64, m.k)
	backing := make([]uint64, m.k*m.w)
	for i := range buf {
		buf[i] = backing[i*m.w : (i+1)*m.w : (i+1)*m.w]
	}
	return buf
}

// MapHandle binds a Map to one acquired process id. It is valid on every
// shard and must be driven by at most one goroutine at a time.
type MapHandle struct {
	m        *Map
	p        int
	released bool
	scratch  []uint64
	multi    []int
}

// Process returns the underlying process id (the same id on every shard).
func (h *MapHandle) Process() int { return h.p }

// Release returns the process id to the registry. The handle must not be
// used afterwards; releasing twice panics (a second release could
// otherwise silently free an id that a different goroutine has since
// re-acquired), and so does any data operation on a released handle
// (which would otherwise silently alias whichever goroutine has since
// re-acquired the id — see live).
func (h *MapHandle) Release() {
	if h.released {
		panic("shard: MapHandle released twice")
	}
	h.released = true
	h.m.reg.Release(h.p)
}

// Reacquire re-arms a released handle with a freshly acquired process
// id, reusing its scratch buffers — the allocation-free counterpart of
// Map.Acquire for callers that hold a slot only in bursts but keep the
// handle across them (the serving layer's batch executor acquires per
// batch; without this it would allocate a handle per batch). Reacquiring
// a handle that is still live panics: that would leak its process id.
func (h *MapHandle) Reacquire() {
	if !h.released {
		panic("shard: Reacquire of a live MapHandle")
	}
	h.p = h.m.reg.Acquire()
	h.released = false
}

// live panics on use-after-Release: a released id may already belong to
// another goroutine, and two goroutines driving one process id void
// every per-process guarantee in the construction. The check is one
// branch on an unshared bool — noise next to the LL/SC work it guards.
func (h *MapHandle) live() {
	if h.released {
		panic("shard: use of MapHandle after Release")
	}
}

// Update atomically applies f to the shard owning key via the LL -> f ->
// SC loop, returning the number of attempts. f receives the shard's
// current value in a scratch buffer reused across calls of this handle and
// must mutate it in place; it may run several times, so it must be
// side-effect free. Lock-free: a retry only happens when another process's
// SC landed on the same shard, or when a multi-key transaction was
// mid-commit on it (in which case this process first helps the
// transaction finish — the fast path pays just one atomic lock-word
// load). The lock check sits between LL and SC: a transaction that locks
// the shard after the check also reseals it with an SC, which invalidates
// this LL's link, so the subsequent SC here fails rather than landing on
// a locked shard.
func (h *MapHandle) Update(key uint64, f func(v []uint64)) int {
	h.live()
	if h.scratch == nil {
		h.scratch = make([]uint64, h.m.w)
	}
	i := h.m.ShardIndex(key)
	obj := h.m.shards[i]
	for attempt := 1; ; attempt++ {
		obj.LL(h.p, h.scratch)
		if ref := h.m.eng.Locked(h.p, i); ref != 0 {
			h.m.eng.Help(h.p, i, ref)
			continue
		}
		f(h.scratch)
		if obj.SC(h.p, h.scratch) {
			return attempt
		}
	}
}

// UpdateMulti atomically applies f to the values of the shards owning
// keys — a cross-shard atomic read-modify-write, linearizable against
// every other map operation. f receives one W-word slice per key, in key
// order (keys landing in the same shard alias the same slice), and must
// mutate them in place; like Update's f it may run once per attempt and
// must be deterministic and side-effect free. Returns the number of
// attempts (1 = no conflicting operation intervened). Lock-free via the
// helping protocol of internal/txn: a process stalled mid-commit never
// blocks others.
func (h *MapHandle) UpdateMulti(keys []uint64, f func(vals [][]uint64)) int {
	h.live()
	h.multi = h.multi[:0]
	for _, key := range keys {
		h.multi = append(h.multi, h.m.ShardIndex(key))
	}
	return h.m.eng.Update(h.p, h.multi, f)
}

// Read copies the current value of the shard owning key into dst (len(dst)
// must be W) — an atomic multiword read. On the paper's object it writes
// no shared memory (core.Object.Read); a baseline shard reads with LL.
// Lock-free: it only retries while a multi-key transaction is mid-commit
// on the shard (helping it finish).
func (h *MapHandle) Read(key uint64, dst []uint64) {
	h.live()
	h.m.eng.Read(h.p, h.m.ShardIndex(key), dst)
}

// ReadShard copies shard i's current value into dst.
func (h *MapHandle) ReadShard(i int, dst []uint64) {
	h.live()
	h.m.eng.Read(h.p, i, dst)
}

// Snapshot reads every shard into dst (K rows of W words). Every row is an
// atomic read of its shard, and the VL pass re-reads shards whose link was
// broken by an intervening SC, so each returned row is additionally
// *current* as of its validation point near the end of the snapshot,
// rather than as of the first pass. That freshness loop makes Snapshot
// lock-free (a hot shard under sustained SC traffic can force re-reads)
// instead of wait-free. The result is per-shard atomic only: the K rows
// need not have coexisted at one instant. When the rows must form one
// consistent cut, use SnapshotAtomic and pay its retry/fallback cost.
func (h *MapHandle) Snapshot(dst [][]uint64) {
	h.live()
	if len(dst) != h.m.k {
		panic(fmt.Sprintf("shard: snapshot buffer has %d rows, want %d", len(dst), h.m.k))
	}
	for i := range h.m.shards {
		h.m.eng.Read(h.p, i, dst[i])
	}
	for i, obj := range h.m.shards {
		for !obj.VL(h.p) {
			h.m.eng.Read(h.p, i, dst[i])
		}
	}
}

// SnapshotAtomic reads every shard into dst (K rows of W words, see
// NewSnapshotBuffer) as one cross-shard linearizable snapshot: all K
// values coexisted at a single instant during the call. It first tries a
// bounded number of optimistic double collects (Read every shard, then VL
// every shard — if nothing moved between the passes, the values form a
// cut) and under sustained write traffic falls back to the transaction
// layer, which briefly locks all shards in order. The return value is the
// number of attempts; above txn.SnapshotRetries means the fallback ran.
// Lock-free, not wait-free: prefer Snapshot when per-shard atomicity is
// enough.
func (h *MapHandle) SnapshotAtomic(dst [][]uint64) int {
	h.live()
	if len(dst) != h.m.k {
		panic(fmt.Sprintf("shard: snapshot buffer has %d rows, want %d", len(dst), h.m.k))
	}
	return h.m.eng.Snapshot(h.p, dst)
}

// mix64 is the SplitMix64 finalizer: a full-avalanche bijection on uint64,
// so dense key ranges (0,1,2,...) still spread uniformly over shards.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashUint64 maps an integer key onto the uint64 key space (SplitMix64
// finalizer — a bijection, so distinct inputs never collide), for callers
// whose keys are small or dense integers. The byte-string counterpart is
// HashBytes.
func HashUint64(k uint64) uint64 { return mix64(k) }

// HashBytes maps an arbitrary byte-string key onto the uint64 key space
// (FNV-1a), for callers whose keys are not already integers.
func HashBytes(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}
