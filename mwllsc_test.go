package mwllsc

import "testing"

func TestPublicAPIQuickPath(t *testing.T) {
	obj, err := New(4, 3, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if obj.N() != 4 || obj.W() != 3 {
		t.Fatalf("N/W = %d/%d, want 4/3", obj.N(), obj.W())
	}
	h := obj.Handle(0)
	v := h.LLNew()
	if v[0] != 1 || v[1] != 2 || v[2] != 3 {
		t.Fatalf("initial = %v", v)
	}
	if !h.VL() {
		t.Fatal("VL false after quiet LL")
	}
	if !h.SC([]uint64{4, 5, 6}) {
		t.Fatal("SC failed")
	}
	got := obj.Handle(1).LLNew()
	if got[0] != 4 || got[2] != 6 {
		t.Fatalf("after SC = %v", got)
	}
}

func TestHandleProcessBounds(t *testing.T) {
	obj, err := New(2, 1, []uint64{0})
	if err != nil {
		t.Fatal(err)
	}
	if obj.Handle(1).Process() != 1 {
		t.Fatal("Process() mismatch")
	}
	for _, p := range []int{-1, 2, 100} {
		p := p
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Handle(%d) did not panic", p)
				}
			}()
			obj.Handle(p)
		}()
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(0, 1, []uint64{0}); err == nil {
		t.Fatal("New(0,1) succeeded")
	}
	if _, err := New(1, 2, []uint64{0}); err == nil {
		t.Fatal("New with short initial succeeded")
	}
}

func TestStatsDisabledByDefault(t *testing.T) {
	obj, err := New(1, 1, []uint64{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := obj.Stats(); ok {
		t.Fatal("Stats ok without WithStats")
	}
}

func TestStatsEnabled(t *testing.T) {
	obj, err := New(2, 2, []uint64{0, 0}, WithStats())
	if err != nil {
		t.Fatal(err)
	}
	h := obj.Handle(0)
	v := make([]uint64, 2)
	h.LL(v)
	h.SC([]uint64{1, 1})
	snap, ok := obj.Stats()
	if !ok {
		t.Fatal("Stats not ok with WithStats")
	}
	if snap.LLTotal != 1 || snap.SCSuccess != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestSpaceExposed(t *testing.T) {
	obj, err := New(8, 16, make([]uint64, 16))
	if err != nil {
		t.Fatal(err)
	}
	s := obj.Space()
	if s.RegisterWords != 3*8*16 {
		t.Fatalf("RegisterWords = %d", s.RegisterWords)
	}
	if s.PhysBytes <= 0 || s.PaperWords() != s.RegisterWords+s.LLSCWords {
		t.Fatalf("space = %+v", s)
	}
}
