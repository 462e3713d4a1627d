package mwllsc

import (
	"sync"
	"testing"
)

func TestHandleUpdateSequential(t *testing.T) {
	obj, err := New(1, 2, []uint64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	h := obj.Handle(0)
	attempts := h.Update(func(v []uint64) {
		v[0] += 5
		v[1] += 5
	})
	if attempts != 1 {
		t.Fatalf("uncontended Update took %d attempts", attempts)
	}
	got := h.LLNew()
	if got[0] != 15 || got[1] != 25 {
		t.Fatalf("value = %v", got)
	}
}

func TestHandleReadDoesNotDisturbOthers(t *testing.T) {
	obj, err := New(2, 1, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	writer, reader := obj.Handle(0), obj.Handle(1)
	v := make([]uint64, 1)
	writer.LL(v)
	reader.Read(v)
	if v[0] != 1 {
		t.Fatalf("Read = %v", v)
	}
	// The reader's Read must not have invalidated the writer's link.
	if !writer.SC([]uint64{2}) {
		t.Fatal("SC failed after another process's Read")
	}
}

// TestHandleReadKeepsNoLink checks Read's contract: it leaves no link an
// SC can use, so SC fails until the next LL, while VL still reports
// whether an SC has succeeded since the value was read.
func TestHandleReadKeepsNoLink(t *testing.T) {
	obj, err := New(2, 2, []uint64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	reader, writer := obj.Handle(0), obj.Handle(1)
	v := make([]uint64, 2)
	reader.LL(v)
	reader.Read(v)
	if v[0] != 1 || v[1] != 2 {
		t.Fatalf("Read = %v, want [1 2]", v)
	}
	if !reader.VL() {
		t.Fatal("VL false after Read with no intervening SC")
	}
	if reader.SC([]uint64{7, 7}) {
		t.Fatal("SC after Read succeeded; Read must not leave a link")
	}
	writer.LL(v)
	if !writer.SC([]uint64{3, 4}) {
		t.Fatal("writer SC failed")
	}
	if reader.VL() {
		t.Fatal("VL true after an intervening SC")
	}
	if reader.SC([]uint64{7, 7}) {
		t.Fatal("SC after Read succeeded with no LL in between")
	}
	reader.LL(v)
	if v[0] != 3 || v[1] != 4 {
		t.Fatalf("LL = %v, want [3 4]", v)
	}
	if !reader.SC([]uint64{5, 6}) {
		t.Fatal("SC after a fresh LL failed")
	}
}

func TestHandleUpdateConcurrentExactlyOnce(t *testing.T) {
	const (
		n   = 8
		ops = 2000
	)
	obj, err := New(n, 4, make([]uint64, 4))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := obj.Handle(p)
			for i := 0; i < ops; i++ {
				h.Update(func(v []uint64) {
					for j := range v {
						v[j]++
					}
				})
			}
		}(p)
	}
	wg.Wait()
	got := obj.Handle(0).LLNew()
	for j, x := range got {
		if x != n*ops {
			t.Fatalf("word %d = %d, want %d (lost or duplicated updates)", j, x, n*ops)
		}
	}
}
