package shard

import (
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestSlotIsCacheLinePadded(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != 64 {
		t.Fatalf("slot is %d bytes, want one 64-byte cache line", got)
	}
}

func TestRegistryAcquireReleaseRoundTrip(t *testing.T) {
	r, err := NewRegistry(4)
	if err != nil {
		t.Fatal(err)
	}
	if r.N() != 4 {
		t.Fatalf("N() = %d, want 4", r.N())
	}
	seen := map[int]bool{}
	var held []int
	for i := 0; i < 4; i++ {
		p := r.Acquire()
		if p < 0 || p >= 4 {
			t.Fatalf("acquired id %d out of range", p)
		}
		if seen[p] {
			t.Fatalf("id %d handed out twice", p)
		}
		seen[p] = true
		held = append(held, p)
	}
	if got := r.InUse(); got != 4 {
		t.Fatalf("InUse() = %d, want 4", got)
	}
	if _, ok := r.TryAcquire(); ok {
		t.Fatal("TryAcquire succeeded on an exhausted registry")
	}
	for _, p := range held {
		r.Release(p)
	}
	if got := r.InUse(); got != 0 {
		t.Fatalf("InUse() = %d after release of all, want 0", got)
	}
}

func TestRegistryBadN(t *testing.T) {
	if _, err := NewRegistry(0); err == nil {
		t.Fatal("NewRegistry(0) succeeded, want error")
	}
}

func TestRegistryBlockingAcquireWaits(t *testing.T) {
	r, err := NewRegistry(1)
	if err != nil {
		t.Fatal(err)
	}
	p := r.Acquire()
	got := make(chan int)
	go func() { got <- r.Acquire() }()
	select {
	case q := <-got:
		t.Fatalf("Acquire returned %d while the only slot was held", q)
	case <-time.After(20 * time.Millisecond):
	}
	r.Release(p)
	select {
	case q := <-got:
		if q != p {
			t.Fatalf("blocked Acquire got id %d, want released id %d", q, p)
		}
	case <-time.After(time.Second):
		t.Fatal("Acquire still blocked after Release")
	}
	s := r.Stats()
	if s.Acquires != 2 || s.Waited != 1 {
		t.Fatalf("stats = %+v, want 2 acquires / 1 waited", s)
	}
	r.Release(p)
}

func TestRegistryReleasePanics(t *testing.T) {
	r, err := NewRegistry(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    int
	}{
		{"not acquired", 0},
		{"out of range", 7},
		{"negative", -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("Release(%d) did not panic", tc.p)
				}
			}()
			r.Release(tc.p)
		})
	}
}

// TestRegistryOversubscribed hammers a small registry from many more
// goroutines than slots and checks mutual exclusion: no two goroutines may
// hold the same id at once.
//
// The subtest is named for the blocking Acquire it exercises.
func TestRegistryOversubscribed(t *testing.T) { t.Run("block", registryOversubscribed) }

func registryOversubscribed(t *testing.T) {
	const (
		slots      = 3
		goroutines = 24
		iters      = 200
	)
	r, err := NewRegistry(slots)
	if err != nil {
		t.Fatal(err)
	}
	owner := make([]int32, slots) // 0 = free; else goroutine id+1
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				p := r.Acquire()
				mu.Lock()
				if owner[p] != 0 {
					mu.Unlock()
					t.Errorf("id %d acquired by goroutine %d while held by %d", p, g, owner[p]-1)
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
		t.Fatalf("InUse() = %d after all goroutines finished, want 0", got)
	}
	s := r.Stats()
	if s.Acquires != goroutines*iters {
		t.Fatalf("Acquires = %d, want %d", s.Acquires, goroutines*iters)
	}
}
