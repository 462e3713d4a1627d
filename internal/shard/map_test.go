package shard

import (
	"sync"
	"testing"

	"mwllsc/internal/baseline"
	"mwllsc/internal/mwobj"
)

func TestMapBasics(t *testing.T) {
	m, err := NewMap(8, 4, 2, WithInitial([]uint64{7, 9}))
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards() != 8 || m.N() != 4 || m.W() != 2 {
		t.Fatalf("geometry = %d/%d/%d, want 8/4/2", m.Shards(), m.N(), m.W())
	}
	v := make([]uint64, 2)
	m.Read(42, v)
	if v[0] != 7 || v[1] != 9 {
		t.Fatalf("initial value = %v, want [7 9]", v)
	}
	if attempts := m.Update(42, func(v []uint64) { v[0]++ }); attempts != 1 {
		t.Fatalf("uncontended Update took %d attempts, want 1", attempts)
	}
	m.Read(42, v)
	if v[0] != 8 {
		t.Fatalf("after Update, v[0] = %d, want 8", v[0])
	}
	// A key on a different shard is unaffected.
	other := uint64(0)
	for k := uint64(0); k < 1000; k++ {
		if m.ShardIndex(k) != m.ShardIndex(42) {
			other = k
			break
		}
	}
	m.Read(other, v)
	if v[0] != 7 || v[1] != 9 {
		t.Fatalf("other shard's value = %v, want untouched [7 9]", v)
	}
}

func TestMapBadArgs(t *testing.T) {
	if _, err := NewMap(0, 4, 2); err == nil {
		t.Fatal("NewMap with k=0 succeeded")
	}
	if _, err := NewMap(2, 0, 2); err == nil {
		t.Fatal("NewMap with n=0 succeeded")
	}
	if _, err := NewMap(2, 4, 2, WithInitial([]uint64{1})); err == nil {
		t.Fatal("NewMap with short initial succeeded")
	}
	if _, err := NewMap(2, 4, 0); err == nil {
		t.Fatal("NewMap with w=0 succeeded")
	}
}

func TestMapWithFactory(t *testing.T) {
	built := 0
	f := func(n, w int, initial []uint64) (mwobj.MW, error) {
		built++
		return baseline.NewLockMW(n, w, initial)
	}
	m, err := NewMap(4, 2, 1, WithFactory(f))
	if err != nil {
		t.Fatal(err)
	}
	if built != 4 {
		t.Fatalf("factory built %d shards, want 4", built)
	}
	m.Update(1, func(v []uint64) { v[0] = 5 })
	v := make([]uint64, 1)
	m.Read(1, v)
	if v[0] != 5 {
		t.Fatalf("read %v through lockmw factory, want [5]", v)
	}
}

func TestShardIndexSpreadsDenseKeys(t *testing.T) {
	const k = 8
	m, err := NewMap(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, k)
	const keys = 8000
	for key := uint64(0); key < keys; key++ {
		i := m.ShardIndex(key)
		if i < 0 || i >= k {
			t.Fatalf("ShardIndex(%d) = %d out of range", key, i)
		}
		counts[i]++
	}
	for i, c := range counts {
		if c < keys/k/2 || c > keys/k*2 {
			t.Fatalf("shard %d got %d of %d dense keys — hash does not spread (counts %v)", i, c, keys, counts)
		}
	}
}

func TestHashBytes(t *testing.T) {
	a, b := HashBytes([]byte("user:1234")), HashBytes([]byte("user:1235"))
	if a == b {
		t.Fatal("adjacent string keys hash identically")
	}
	if HashBytes([]byte("user:1234")) != a {
		t.Fatal("HashBytes is not deterministic")
	}
}

func TestHashUint64(t *testing.T) {
	if HashUint64(1234) == HashUint64(1235) {
		t.Fatal("adjacent integer keys hash identically")
	}
	if HashUint64(1234) != HashUint64(1234) {
		t.Fatal("HashUint64 is not deterministic")
	}
	// The finalizer is a bijection: a small dense range must not collide.
	seen := map[uint64]bool{}
	for k := uint64(0); k < 4096; k++ {
		h := HashUint64(k)
		if seen[h] {
			t.Fatalf("collision at key %d", k)
		}
		seen[h] = true
	}
}

func TestKeyForShard(t *testing.T) {
	for _, k := range []int{1, 2, 7, 16} {
		m, err := NewMap(k, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if got := m.ShardIndex(m.KeyForShard(i)); got != i {
				t.Fatalf("k=%d: KeyForShard(%d) lands in shard %d", k, i, got)
			}
		}
	}
}

// shardKeys returns each shard's representative key, so tests can target
// shards deliberately through the key API.
func shardKeys(m *Map) []uint64 {
	keys := make([]uint64, m.Shards())
	for i := range keys {
		keys[i] = m.KeyForShard(i)
	}
	return keys
}

func TestUpdateMultiBasics(t *testing.T) {
	m, err := NewMap(4, 2, 2, WithInitial([]uint64{100, 0}))
	if err != nil {
		t.Fatal(err)
	}
	keys := shardKeys(m)
	// A cross-shard transfer: shards 0 and 3 change together.
	attempts := m.UpdateMulti([]uint64{keys[0], keys[3]}, func(vals [][]uint64) {
		vals[0][0] -= 30
		vals[1][0] += 30
		vals[0][1]++
		vals[1][1]++
	})
	if attempts != 1 {
		t.Fatalf("uncontended UpdateMulti took %d attempts, want 1", attempts)
	}
	v := make([]uint64, 2)
	m.Read(keys[0], v)
	if v[0] != 70 || v[1] != 1 {
		t.Fatalf("shard 0 = %v, want [70 1]", v)
	}
	m.Read(keys[3], v)
	if v[0] != 130 || v[1] != 1 {
		t.Fatalf("shard 3 = %v, want [130 1]", v)
	}
	m.Read(keys[1], v)
	if v[0] != 100 || v[1] != 0 {
		t.Fatalf("untouched shard 1 = %v, want [100 0]", v)
	}
	// Zero keys: a no-op.
	if got := m.UpdateMulti(nil, func([][]uint64) { t.Fatal("f ran") }); got != 0 {
		t.Fatalf("empty UpdateMulti returned %d, want 0", got)
	}
}

func TestSnapshotAtomicQuiescent(t *testing.T) {
	m, err := NewMap(3, 2, 1, WithInitial([]uint64{9}))
	if err != nil {
		t.Fatal(err)
	}
	buf := m.NewSnapshotBuffer()
	if attempts := m.SnapshotAtomic(buf); attempts != 1 {
		t.Fatalf("quiescent SnapshotAtomic took %d attempts, want 1", attempts)
	}
	for i, row := range buf {
		if row[0] != 9 {
			t.Fatalf("row %d = %v, want [9]", i, row)
		}
	}
}

// TestSnapshotAtomicConsistentCut is the guarantee Snapshot does NOT
// give: writers move a unit between two shards with UpdateMulti (the
// all-shards sum is invariant), and every SnapshotAtomic must see exactly
// that sum. A merely per-shard-atomic view would catch one shard
// pre-transfer and the other post-transfer.
func TestSnapshotAtomicConsistentCut(t *testing.T) {
	const (
		k       = 4
		total   = 1000 * k
		writers = 2
		snaps   = 1500
	)
	m, err := NewMap(k, writers+1, 1, WithInitial([]uint64{1000}))
	if err != nil {
		t.Fatal(err)
	}
	keys := shardKeys(m)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			h := m.Acquire()
			defer h.Release()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a, b := (wr+i)%k, (wr+i+1+wr)%k
				if a == b {
					continue
				}
				h.UpdateMulti([]uint64{keys[a], keys[b]}, func(vals [][]uint64) {
					vals[0][0]--
					vals[1][0]++
				})
			}
		}(wr)
	}

	h := m.Acquire()
	buf := m.NewSnapshotBuffer()
	for i := 0; i < snaps; i++ {
		h.SnapshotAtomic(buf)
		var sum uint64
		for _, row := range buf {
			sum += row[0]
		}
		if sum != total {
			close(stop)
			t.Fatalf("snapshot %d: sum %d, want %d — not a consistent cut: %v", i, sum, total, buf)
		}
	}
	h.Release()
	close(stop)
	wg.Wait()
}

// TestMapConcurrentCounters runs many goroutines incrementing per-key
// counters through the registry and checks every increment landed exactly
// once.
func TestMapConcurrentCounters(t *testing.T) {
	const (
		k          = 4
		n          = 4
		goroutines = 16 // 4x oversubscribed
		perG       = 500
		keys       = 32
	)
	m, err := NewMap(k, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				key := uint64((g*perG + i) % keys)
				m.Update(key, func(v []uint64) { v[0]++ })
			}
		}(g)
	}
	wg.Wait()

	var total uint64
	buf := m.NewSnapshotBuffer()
	m.Snapshot(buf)
	for _, row := range buf {
		total += row[0]
	}
	if want := uint64(goroutines * perG); total != want {
		t.Fatalf("sum over shards = %d, want %d — lost or duplicated updates", total, want)
	}
	if m.Registry().InUse() != 0 {
		t.Fatalf("registry leaked %d slots", m.Registry().InUse())
	}
}

// TestMapHandlePinned exercises the long-lived-handle path: one handle per
// goroutine, many updates each.
func TestMapHandlePinned(t *testing.T) {
	const (
		goroutines = 8
		perG       = 1000
	)
	m, err := NewMap(8, goroutines, 2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := m.Acquire()
			defer h.Release()
			for i := 0; i < perG; i++ {
				h.Update(uint64(i), func(v []uint64) { v[0]++; v[1] += 2 })
			}
		}()
	}
	wg.Wait()

	h := m.Acquire()
	defer h.Release()
	var got0, got1 uint64
	v := make([]uint64, 2)
	for i := 0; i < m.Shards(); i++ {
		h.ReadShard(i, v)
		got0 += v[0]
		got1 += v[1]
	}
	if want := uint64(goroutines * perG); got0 != want || got1 != 2*want {
		t.Fatalf("sums = %d/%d, want %d/%d", got0, got1, want, 2*want)
	}
}

// TestSnapshotRowsAtomic checks per-shard atomicity of Snapshot under
// concurrent writers: every row must be internally consistent (writer
// keeps all words of a shard equal), even though rows may be from
// different instants.
func TestSnapshotRowsAtomic(t *testing.T) {
	const (
		k = 4
		w = 4
	)
	m, err := NewMap(k, 3, w)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for wr := 0; wr < 2; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			h := m.Acquire()
			defer h.Release()
			key := uint64(wr)
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.Update(key, func(v []uint64) {
					x := v[0] + 1
					for j := range v {
						v[j] = x // all words move together
					}
				})
			}
		}(wr)
	}

	h := m.Acquire()
	buf := m.NewSnapshotBuffer()
	for i := 0; i < 2000; i++ {
		h.Snapshot(buf)
		for s, row := range buf {
			for j := 1; j < w; j++ {
				if row[j] != row[0] {
					close(stop)
					t.Fatalf("snapshot %d shard %d torn: %v", i, s, row)
				}
			}
		}
	}
	h.Release()
	close(stop)
	wg.Wait()
}

func TestMapHandleDoubleReleasePanics(t *testing.T) {
	m, err := NewMap(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := m.Acquire()
	h.Release()
	// Reuse the id so a second (unguarded) release would free an id
	// another goroutine legitimately holds.
	h2 := m.Acquire()
	defer h2.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	h.Release()
}

func TestSnapshotBadBuffer(t *testing.T) {
	m, err := NewMap(4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Snapshot with wrong row count did not panic")
		}
	}()
	m.Snapshot(make([][]uint64, 3))
}

// TestReadPathsZeroAlloc guards the read paths on a quiet map: Read,
// ReadShard and Snapshot reach the paper's store-free Read through a
// function resolved once in NewMap, so none of them allocates.
func TestReadPathsZeroAlloc(t *testing.T) {
	m, err := NewMap(4, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	h := m.Acquire()
	defer h.Release()
	h.Update(3, func(v []uint64) { v[0] = 11 })
	dst := make([]uint64, m.W())
	snap := m.NewSnapshotBuffer()
	for name, f := range map[string]func(){
		"Read":      func() { h.Read(3, dst) },
		"ReadShard": func() { h.ReadShard(m.ShardIndex(3), dst) },
		"Snapshot":  func() { h.Snapshot(snap) },
	} {
		if allocs := testing.AllocsPerRun(1000, f); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
	if h.Read(3, dst); dst[0] != 11 {
		t.Fatalf("Read = %v, want 11 in word 0", dst)
	}
	if snap[m.ShardIndex(3)][0] != 11 {
		t.Fatalf("Snapshot row = %v, want 11 in word 0", snap[m.ShardIndex(3)])
	}
}

// TestReadThenUpdateSameShard interleaves store-free reads with updates on
// one handle: a Read leaves a link that rejects SC, so the Update after it
// must LL afresh and still commit on its first attempt.
func TestReadThenUpdateSameShard(t *testing.T) {
	for name, opts := range map[string][]MapOption{
		"paper":  nil,
		"lockmw": {WithFactory(func(n, w int, initial []uint64) (mwobj.MW, error) { return baseline.NewLockMW(n, w, initial) })},
	} {
		m, err := NewMap(2, 1, 2, opts...)
		if err != nil {
			t.Fatal(err)
		}
		h := m.Acquire()
		dst := make([]uint64, 2)
		for i := uint64(0); i < 10; i++ {
			h.Read(5, dst)
			if dst[0] != i {
				t.Fatalf("%s: Read = %v, want %d in word 0", name, dst, i)
			}
			if a := h.Update(5, func(v []uint64) { v[0]++ }); a != 1 {
				t.Fatalf("%s: Update after Read took %d attempts, want 1", name, a)
			}
			if a := h.UpdateMulti([]uint64{5, 6}, func(vals [][]uint64) { vals[1][1]++ }); a != 1 {
				t.Fatalf("%s: UpdateMulti after Read took %d attempts, want 1", name, a)
			}
		}
		h.Release()
	}
}
