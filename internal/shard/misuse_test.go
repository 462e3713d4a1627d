package shard

import (
	"sync"
	"testing"
)

// The misuse tests pin the registry/handle failure modes: every way two
// goroutines could end up aliasing one process id must panic loudly
// instead, because aliased ids silently void the paper's per-process
// guarantees.

func TestMapHandleUseAfterReleasePanics(t *testing.T) {
	m, err := NewMap(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	snap := m.NewSnapshotBuffer()
	dst := make([]uint64, 2)
	ops := []struct {
		name string
		op   func(h *MapHandle)
	}{
		{"Update", func(h *MapHandle) { h.Update(1, func(v []uint64) { v[0]++ }) }},
		{"UpdateMulti", func(h *MapHandle) { h.UpdateMulti([]uint64{1, 2}, func(vals [][]uint64) {}) }},
		{"Read", func(h *MapHandle) { h.Read(1, dst) }},
		{"ReadShard", func(h *MapHandle) { h.ReadShard(0, dst) }},
		{"Snapshot", func(h *MapHandle) { h.Snapshot(snap) }},
		{"SnapshotAtomic", func(h *MapHandle) { h.SnapshotAtomic(snap) }},
	}
	for _, tc := range ops {
		t.Run(tc.name, func(t *testing.T) {
			h := m.Acquire()
			tc.op(h) // sanity: fine while live
			h.Release()
			defer func() {
				if recover() == nil {
					t.Fatalf("%s after Release did not panic", tc.name)
				}
			}()
			tc.op(h)
		})
	}
}

func TestMapHandleDoubleReleaseDoesNotFreeSlot(t *testing.T) {
	// The second Release must panic BEFORE touching the registry: a
	// double release that slipped through would push the id into the
	// free pool while another goroutine holds it.
	m, err := NewMap(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := m.Acquire()
	h.Release()
	func() {
		defer func() { recover() }()
		h.Release()
	}()
	// The slot must have been freed exactly once: one TryAcquire
	// succeeds, a second fails.
	if _, ok := m.TryAcquire(); !ok {
		t.Fatal("slot lost after double-release panic")
	}
	if _, ok := m.TryAcquire(); ok {
		t.Fatal("double release freed the slot twice")
	}
}

// TestMapAcquireStorm oversubscribes a small map's registry from many
// goroutines, with every goroutine doing real per-key and cross-shard
// work between Acquire and Release. The final
// counter total checks that no operation was lost or doubled — the
// symptom aliased ids would produce.
//
// The subtest is named for the blocking Acquire it exercises.
func TestMapAcquireStorm(t *testing.T) { t.Run("block", mapAcquireStorm) }

func mapAcquireStorm(t *testing.T) {
	const (
		slots      = 3
		goroutines = 16
		iters      = 100
	)
	m, err := NewMap(4, slots, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				h := m.Acquire()
				if i%8 == 0 {
					h.UpdateMulti([]uint64{uint64(g), uint64(g + 1)}, func(vals [][]uint64) {
						for _, v := range vals {
							v[0]++
						}
					})
				} else {
					h.Update(uint64(g*iters+i), func(v []uint64) { v[0]++ })
				}
				h.Release()
			}
		}(g)
	}
	wg.Wait()
	if got := m.Registry().InUse(); got != 0 {
		t.Fatalf("%d slots still in use after storm", got)
	}
	snap := m.NewSnapshotBuffer()
	m.SnapshotAtomic(snap)
	var total uint64
	for _, row := range snap {
		total += row[0]
	}
	// Each goroutine: iters/8 rounded up multi ops counting 2, the
	// rest counting 1.
	multis := (iters + 7) / 8
	want := uint64(goroutines * (2*multis + (iters - multis)))
	if total != want {
		t.Fatalf("counter total %d, want %d (lost or doubled updates)", total, want)
	}
}

// TestTryAcquireStorm hammers TryAcquire concurrently with blocking
// acquirers; every successful TryAcquire must hold an exclusive id.
func TestTryAcquireStorm(t *testing.T) {
	const (
		slots      = 2
		goroutines = 12
		iters      = 300
	)
	r, err := NewRegistry(slots)
	if err != nil {
		t.Fatal(err)
	}
	owner := make([]int32, slots)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				p, ok := r.TryAcquire()
				if !ok {
					continue
				}
				mu.Lock()
				if owner[p] != 0 {
					mu.Unlock()
					t.Errorf("id %d try-acquired by %d while held by %d", p, g, owner[p]-1)
					r.Release(p)
					return
				}
				owner[p] = int32(g) + 1
				mu.Unlock()

				mu.Lock()
				owner[p] = 0
				mu.Unlock()
				r.Release(p)
			}
		}(g)
	}
	wg.Wait()
	if got := r.InUse(); got != 0 {
		t.Fatalf("InUse() = %d after storm, want 0", got)
	}
}

func TestMapHandleReacquire(t *testing.T) {
	m, err := NewMap(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := m.Acquire()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Reacquire of a live handle did not panic")
			}
		}()
		h.Reacquire()
	}()
	h.Release()
	h.Reacquire()
	// The re-armed handle must be fully usable again.
	if n := h.Update(7, func(v []uint64) { v[0]++ }); n < 1 {
		t.Fatalf("Update after Reacquire: %d attempts", n)
	}
	dst := make([]uint64, m.W())
	h.Read(7, dst)
	if dst[0] != 1 {
		t.Fatalf("Read after Reacquire = %v, want [1 0]", dst)
	}
	// Release/Reacquire is the serving layer's per-batch cycle; it must
	// not allocate.
	allocs := testing.AllocsPerRun(100, func() {
		h.Release()
		h.Reacquire()
	})
	if allocs != 0 {
		t.Errorf("Release+Reacquire: %v allocs, want 0", allocs)
	}
	h.Release()
	// A released-then-reacquired-elsewhere id stays exclusive: both slots
	// can be out at once.
	h1, h2 := m.Acquire(), m.Acquire()
	if h1.Process() == h2.Process() {
		t.Fatal("two live handles share a process id")
	}
	h1.Release()
	h2.Release()
}
