package txn_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mwllsc/internal/shard"
	"mwllsc/internal/txn"
)

// lockShards is a deliberately simple, obviously correct ShardSet for
// engine unit tests: per-shard mutex + version counter. The engine only
// assumes the LL/SC/VL contract, so a trivial substrate exercises the
// protocol as well as the paper's object does.
type lockShards struct {
	mu    sync.Mutex
	k, w  int
	vals  [][]uint64
	vers  []uint64
	links [][]uint64 // [shard][proc]: version at latest LL or Read
	reads [][]bool   // [shard][proc]: the latest link came from a Read
}

func newLockShards(k, words, n int, initial []uint64) *lockShards {
	s := &lockShards{k: k, w: words,
		vals:  make([][]uint64, k),
		vers:  make([]uint64, k),
		links: make([][]uint64, k),
		reads: make([][]bool, k),
	}
	for i := range s.vals {
		s.vals[i] = make([]uint64, words)
		copy(s.vals[i], initial)
		s.links[i] = make([]uint64, n)
		s.reads[i] = make([]bool, n)
	}
	return s
}

func (s *lockShards) Shards() int { return s.k }
func (s *lockShards) Words() int  { return s.w }

func (s *lockShards) LL(p, i int, dst []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	copy(dst, s.vals[i])
	s.links[i][p] = s.vers[i]
	s.reads[i][p] = false
}

func (s *lockShards) Read(p, i int, dst []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	copy(dst, s.vals[i])
	s.links[i][p] = s.vers[i]
	s.reads[i][p] = true
}

func (s *lockShards) SC(p, i int, src []uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.reads[i][p] || s.links[i][p] != s.vers[i] {
		return false
	}
	copy(s.vals[i], src)
	s.vers[i]++
	return true
}

func (s *lockShards) VL(p, i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.links[i][p] == s.vers[i]
}

func (s *lockShards) value(i int) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint64, s.w)
	copy(out, s.vals[i])
	return out
}

func TestEngineUpdateBasics(t *testing.T) {
	const k, w, n = 4, 2, 2
	s := newLockShards(k, w, n, []uint64{10, 20})
	e, err := txn.New(s, n)
	if err != nil {
		t.Fatal(err)
	}
	if e.Shards() != k || e.Words() != w {
		t.Fatalf("geometry %d/%d, want %d/%d", e.Shards(), e.Words(), k, w)
	}
	// Uncontended multi-shard update commits in one attempt.
	attempts := e.Update(0, []int{0, 2, 3}, func(vals [][]uint64) {
		for _, v := range vals {
			v[0]++
			v[1] += 100
		}
	})
	if attempts != 1 {
		t.Fatalf("uncontended Update took %d attempts, want 1", attempts)
	}
	for _, i := range []int{0, 2, 3} {
		v := s.value(i)
		if v[0] != 11 || v[1] != 120 {
			t.Fatalf("shard %d = %v, want [11 120]", i, v)
		}
	}
	if v := s.value(1); v[0] != 10 || v[1] != 20 {
		t.Fatalf("untouched shard 1 = %v, want [10 20]", v)
	}
	// Empty key list is a no-op.
	if attempts := e.Update(0, nil, func([][]uint64) { t.Fatal("f ran for empty keys") }); attempts != 0 {
		t.Fatalf("empty Update returned %d, want 0", attempts)
	}
}

func TestEngineDuplicateShardsAlias(t *testing.T) {
	const k, w, n = 4, 1, 1
	s := newLockShards(k, w, n, []uint64{0})
	e, err := txn.New(s, n)
	if err != nil {
		t.Fatal(err)
	}
	// Three entries naming shard 1 twice: the duplicates must alias one
	// slice, so the shard is incremented twice, not once in two copies.
	e.Update(0, []int{1, 1, 2}, func(vals [][]uint64) {
		if &vals[0][0] != &vals[1][0] {
			t.Fatal("duplicate shard entries do not alias the same slice")
		}
		vals[0][0] += 5
		vals[1][0] += 5
		vals[2][0] = 7
	})
	if v := s.value(1); v[0] != 10 {
		t.Fatalf("shard 1 = %d, want 10 (two aliased +5s)", v[0])
	}
	if v := s.value(2); v[0] != 7 {
		t.Fatalf("shard 2 = %d, want 7", v[0])
	}
}

func TestEngineSnapshotQuiescent(t *testing.T) {
	const k, w, n = 3, 2, 1
	s := newLockShards(k, w, n, []uint64{1, 2})
	e, err := txn.New(s, n)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([][]uint64, k)
	for i := range dst {
		dst[i] = make([]uint64, w)
	}
	if attempts := e.Snapshot(0, dst); attempts != 1 {
		t.Fatalf("quiescent Snapshot took %d attempts, want 1", attempts)
	}
	for i, row := range dst {
		if row[0] != 1 || row[1] != 2 {
			t.Fatalf("row %d = %v, want [1 2]", i, row)
		}
	}
}

func TestEngineBadArgs(t *testing.T) {
	s := newLockShards(2, 2, 2, []uint64{0, 0})
	if _, err := txn.New(s, 0); err == nil {
		t.Fatal("New with n=0 succeeded")
	}
	if _, err := txn.New(s, txn.MaxProcs+1); err == nil {
		t.Fatal("New with n > MaxProcs succeeded")
	}
	e, err := txn.New(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "out-of-range shard", func() { e.Update(0, []int{5}, func([][]uint64) {}) })
	mustPanic(t, "short snapshot buffer", func() { e.Snapshot(0, make([][]uint64, 1)) })
	mustPanic(t, "short read buffer", func() { e.Read(0, 0, make([]uint64, 5)) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestConservationUnderConcurrentTransfers is the conservation-of-money
// property test over the full stack (txn engine on the paper's sharded
// object): many goroutines move money between accounts on different
// shards with UpdateMulti while auditors take SnapshotAtomic cuts. Every
// audit and the final state must account for every unit — a torn
// multi-shard transfer or a non-linearizable snapshot shows up as drift.
// Sized to run under -race -short in CI.
func TestConservationUnderConcurrentTransfers(t *testing.T) {
	const (
		k              = 8 // one account per shard
		slots          = 6
		tellers        = 4
		auditors       = 2
		transfersEach  = 400
		auditsEach     = 150
		initialBalance = 1_000
	)
	m, err := shard.NewMap(k, slots, 1, shard.WithInitial([]uint64{initialBalance}))
	if err != nil {
		t.Fatal(err)
	}
	// One representative key per shard, so transfers pick true cross-shard
	// account pairs.
	keys := make([]uint64, k)
	for i := range keys {
		keys[i] = m.KeyForShard(i)
	}

	var wg sync.WaitGroup
	for tl := 0; tl < tellers; tl++ {
		wg.Add(1)
		go func(tl int) {
			defer wg.Done()
			h := m.Acquire()
			defer h.Release()
			rng := rand.New(rand.NewSource(int64(tl) + 1))
			for i := 0; i < transfersEach; i++ {
				from, to := rng.Intn(k), rng.Intn(k)
				if from == to {
					continue
				}
				amount := uint64(rng.Intn(40) + 1)
				h.UpdateMulti([]uint64{keys[from], keys[to]}, func(vals [][]uint64) {
					if vals[0][0] >= amount {
						vals[0][0] -= amount
						vals[1][0] += amount
					}
				})
			}
		}(tl)
	}
	auditErr := make(chan string, auditors)
	for a := 0; a < auditors; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := m.Acquire()
			defer h.Release()
			buf := m.NewSnapshotBuffer()
			for i := 0; i < auditsEach; i++ {
				h.SnapshotAtomic(buf)
				var total uint64
				for _, row := range buf {
					total += row[0]
				}
				if total != k*initialBalance {
					select {
					case auditErr <- "": // detail formatted below
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case <-auditErr:
		t.Fatal("an atomic audit observed a total != initial total — cross-shard cut was torn")
	default:
	}

	buf := m.NewSnapshotBuffer()
	m.SnapshotAtomic(buf)
	var total uint64
	for _, row := range buf {
		total += row[0]
	}
	if total != k*initialBalance {
		t.Fatalf("final total = %d, want %d — money created or destroyed", total, k*initialBalance)
	}
	if m.Registry().InUse() != 0 {
		t.Fatalf("registry leaked %d slots", m.Registry().InUse())
	}
}

// TestSingleKeyAndMultiKeyCompose drives single-key Updates and
// multi-key transactions at the same shards concurrently: the single-key
// fast path must honor (and help) in-flight transactions.
func TestSingleKeyAndMultiKeyCompose(t *testing.T) {
	const (
		k     = 4
		slots = 4
		perG  = 300
	)
	m, err := shard.NewMap(k, slots, 2)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, k)
	for i := range keys {
		keys[i] = m.KeyForShard(i)
	}
	var wg sync.WaitGroup
	// Two single-key incrementers on word 0...
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := m.Acquire()
			defer h.Release()
			for i := 0; i < perG; i++ {
				h.Update(keys[(g+i)%k], func(v []uint64) { v[0]++ })
			}
		}(g)
	}
	// ...and two multi-key incrementers on word 1 across all shards.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := m.Acquire()
			defer h.Release()
			for i := 0; i < perG; i++ {
				h.UpdateMulti(keys, func(vals [][]uint64) {
					for _, v := range vals {
						v[1]++
					}
				})
			}
		}()
	}
	wg.Wait()

	buf := m.NewSnapshotBuffer()
	m.SnapshotAtomic(buf)
	var word0, word1 uint64
	for _, row := range buf {
		word0 += row[0]
		word1 += row[1]
	}
	if word0 != 2*perG {
		t.Fatalf("single-key increments: %d, want %d", word0, 2*perG)
	}
	if word1 != uint64(2*perG*k) {
		t.Fatalf("multi-key increments: %d, want %d", word1, 2*perG*k)
	}
}

// TestEngineReadAndSnapshotUnderCommits runs transactions that bump every
// shard at once beside readers. The collect phase and Snapshot's first
// pass read with the substrate's Read, whose link rejects SC, so commits
// must still land; every engine Read must be non-decreasing per shard,
// and every Snapshot must see all shards equal.
func TestEngineReadAndSnapshotUnderCommits(t *testing.T) {
	const (
		k, w     = 4, 2
		writers  = 2
		readers  = 2
		commits  = 300
		observed = 300
	)
	s := newLockShards(k, w, writers+readers, make([]uint64, w))
	e, err := txn.New(s, writers+readers)
	if err != nil {
		t.Fatal(err)
	}
	all := []int{0, 1, 2, 3}
	var wg sync.WaitGroup
	for p := 0; p < writers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				e.Update(p, all, func(vals [][]uint64) {
					for _, v := range vals {
						v[0]++
					}
				})
			}
		}(p)
	}
	errs := make(chan string, readers)
	for p := writers; p < writers+readers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			last := make([]uint64, k)
			v := make([]uint64, w)
			snap := make([][]uint64, k)
			for i := range snap {
				snap[i] = make([]uint64, w)
			}
			for i := 0; i < observed; i++ {
				sh := i % k
				e.Read(p, sh, v)
				if v[0] < last[sh] {
					errs <- fmt.Sprintf("p%d: shard %d went back from %d to %d", p, sh, last[sh], v[0])
					return
				}
				last[sh] = v[0]
				e.Snapshot(p, snap)
				for i := range snap {
					if snap[i][0] != snap[0][0] {
						errs <- fmt.Sprintf("p%d: snapshot is not a cut: %v", p, snap)
						return
					}
				}
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	for i := 0; i < k; i++ {
		if got := s.value(i)[0]; got != writers*commits {
			t.Fatalf("shard %d = %d, want %d", i, got, writers*commits)
		}
	}
}
