package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"mwllsc/internal/mem"
)

func newObject(t *testing.T, n, w int, initial []uint64) *Object {
	t.Helper()
	o, err := New(mem.NewReal(n, mem.SubstrateTagged), n, w, initial, nil)
	if err != nil {
		t.Fatalf("New(n=%d, w=%d): %v", n, w, err)
	}
	return o
}

func words(vs ...uint64) []uint64 { return vs }

func TestNewValidation(t *testing.T) {
	m := mem.NewReal(2, mem.SubstrateTagged)
	cases := []struct {
		name    string
		n, w    int
		initial []uint64
	}{
		{"n zero", 0, 2, words(0, 0)},
		{"w zero", 2, 0, nil},
		{"initial short", 2, 3, words(0, 0)},
		{"initial long", 2, 1, words(0, 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(m, tc.n, tc.w, tc.initial, nil); err == nil {
				t.Fatalf("New(n=%d, w=%d, len(init)=%d) succeeded, want error",
					tc.n, tc.w, len(tc.initial))
			}
		})
	}
}

func TestInitialValue(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		for _, w := range []int{1, 4, 7} {
			t.Run(fmt.Sprintf("n%d_w%d", n, w), func(t *testing.T) {
				initial := make([]uint64, w)
				for i := range initial {
					initial[i] = uint64(100 + i)
				}
				o := newObject(t, n, w, initial)
				got := make([]uint64, w)
				o.LL(0, got)
				for i := range got {
					if got[i] != initial[i] {
						t.Fatalf("word %d = %d, want %d", i, got[i], initial[i])
					}
				}
			})
		}
	}
}

func TestSequentialLLSCVL(t *testing.T) {
	o := newObject(t, 2, 3, words(1, 2, 3))
	v := make([]uint64, 3)

	o.LL(0, v)
	if !o.VL(0) {
		t.Fatal("VL after quiet LL = false, want true")
	}
	if !o.SC(0, words(4, 5, 6)) {
		t.Fatal("SC after quiet LL failed, want success")
	}

	o.LL(1, v)
	if v[0] != 4 || v[1] != 5 || v[2] != 6 {
		t.Fatalf("LL = %v, want [4 5 6]", v)
	}

	// Process 0's link was consumed by its own successful SC.
	if o.VL(0) {
		t.Fatal("VL(0) after own successful SC = true, want false")
	}
	if o.SC(0, words(7, 8, 9)) {
		t.Fatal("SC(0) without fresh LL succeeded, want failure")
	}

	// Process 1's link is still live; its SC must succeed.
	if !o.SC(1, words(7, 8, 9)) {
		t.Fatal("SC(1) after uninterfered LL failed, want success")
	}
	o.LL(0, v)
	if v[0] != 7 || v[1] != 8 || v[2] != 9 {
		t.Fatalf("LL = %v, want [7 8 9]", v)
	}
}

func TestSCFailsAfterInterferingSC(t *testing.T) {
	o := newObject(t, 3, 2, words(0, 0))
	v := make([]uint64, 2)
	o.LL(0, v)
	o.LL(1, v)
	if !o.SC(1, words(10, 10)) {
		t.Fatal("SC(1) failed")
	}
	if o.VL(0) {
		t.Fatal("VL(0) after interfering SC = true, want false")
	}
	if o.SC(0, words(20, 20)) {
		t.Fatal("SC(0) after interfering SC succeeded, want failure")
	}
	o.LL(2, v)
	if v[0] != 10 || v[1] != 10 {
		t.Fatalf("value = %v, want [10 10]", v)
	}
}

func TestFailedSCLeavesValueUnchanged(t *testing.T) {
	o := newObject(t, 2, 4, words(1, 1, 1, 1))
	v := make([]uint64, 4)
	o.LL(0, v)
	o.LL(1, v)
	if !o.SC(0, words(2, 2, 2, 2)) {
		t.Fatal("SC(0) failed")
	}
	if o.SC(1, words(3, 3, 3, 3)) {
		t.Fatal("SC(1) succeeded, want failure")
	}
	o.LL(0, v)
	for i, x := range v {
		if x != 2 {
			t.Fatalf("word %d = %d, want 2 (failed SC must not write)", i, x)
		}
	}
}

func TestRepeatedLLRefreshesLink(t *testing.T) {
	o := newObject(t, 2, 1, words(0))
	v := make([]uint64, 1)
	for i := 0; i < 10; i++ {
		o.LL(0, v)
		if v[0] != uint64(i) {
			t.Fatalf("round %d: LL = %d, want %d", i, v[0], i)
		}
		if !o.SC(0, words(uint64(i+1))) {
			t.Fatalf("round %d: SC failed", i)
		}
	}
}

func TestSingleProcessObject(t *testing.T) {
	// N=1 exercises the smallest geometry: 2 sequence numbers, 3 buffers.
	o := newObject(t, 1, 2, words(5, 5))
	v := make([]uint64, 2)
	for i := 0; i < 100; i++ {
		o.LL(0, v)
		if v[0] != v[1] {
			t.Fatalf("inconsistent words %v", v)
		}
		if !o.SC(0, words(v[0]+1, v[1]+1)) {
			t.Fatalf("round %d: SC failed", i)
		}
	}
	o.LL(0, v)
	if v[0] != 105 {
		t.Fatalf("final value %d, want 105", v[0])
	}
}

// TestReadContract pins the sequential contract of Read: it returns the
// current value, VL honours its link, SC fails until the next LL, and the
// value is untouched by the rejected SC.
func TestReadContract(t *testing.T) {
	o := newObject(t, 2, 3, words(1, 2, 3))
	v := make([]uint64, 3)

	o.Read(0, v)
	if v[0] != 1 || v[1] != 2 || v[2] != 3 {
		t.Fatalf("Read = %v, want [1 2 3]", v)
	}
	if !o.VL(0) {
		t.Fatal("VL after quiet Read = false, want true")
	}
	if o.SC(0, words(9, 9, 9)) || o.SC(0, words(9, 9, 9)) {
		t.Fatal("SC after Read succeeded, want failure until the next LL")
	}
	if !o.VL(0) {
		t.Fatal("VL after rejected SC = false, want true (nothing changed)")
	}

	// An LL after a Read licenses SC again.
	o.LL(0, v)
	if v[0] != 1 {
		t.Fatalf("LL after Read = %v, want [1 2 3]", v)
	}
	if !o.SC(0, words(4, 5, 6)) {
		t.Fatal("SC after LL following Read failed, want success")
	}

	// Another process's SC invalidates a Read's link.
	o.Read(1, v)
	o.LL(0, v)
	if !o.SC(0, words(7, 8, 9)) {
		t.Fatal("SC(0) failed")
	}
	if o.VL(1) {
		t.Fatal("VL(1) after an interfering SC = true, want false")
	}
	o.Read(1, v)
	if v[0] != 7 || v[1] != 8 || v[2] != 9 {
		t.Fatalf("Read = %v, want [7 8 9]", v)
	}
	assertPanics(t, "Read short", func() { o.Read(0, make([]uint64, 2)) })
}

func TestLLPanicsOnWrongWidth(t *testing.T) {
	o := newObject(t, 2, 3, words(0, 0, 0))
	assertPanics(t, "LL short", func() { o.LL(0, make([]uint64, 2)) })
	assertPanics(t, "SC long", func() { o.SC(0, make([]uint64, 4)) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

// TestConcurrentCounterInvariant is the defining end-to-end test of LL/SC
// semantics: every process runs LL; SC(value+1) loops, with the value
// replicated across all W words. Because a successful SC must have linked
// the immediately preceding value, the final counter must equal the total
// number of successful SCs, and every LL must observe all W words equal.
func TestConcurrentCounterInvariant(t *testing.T) {
	configs := []struct{ n, w, ops int }{
		{1, 1, 4000},
		{2, 1, 4000},
		{2, 8, 3000},
		{4, 4, 2000},
		{8, 16, 1000},
		{16, 3, 500},
	}
	for _, cfg := range configs {
		t.Run(fmt.Sprintf("n%d_w%d", cfg.n, cfg.w), func(t *testing.T) {
			o := newObject(t, cfg.n, cfg.w, make([]uint64, cfg.w))
			var (
				wg        sync.WaitGroup
				successes = make([]int64, cfg.n)
			)
			for p := 0; p < cfg.n; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					v := make([]uint64, cfg.w)
					next := make([]uint64, cfg.w)
					for i := 0; i < cfg.ops; i++ {
						o.LL(p, v)
						for j := 1; j < cfg.w; j++ {
							if v[j] != v[0] {
								t.Errorf("p%d: torn LL: word %d = %d, word 0 = %d",
									p, j, v[j], v[0])
								return
							}
						}
						for j := range next {
							next[j] = v[0] + 1
						}
						if o.SC(p, next) {
							successes[p]++
						}
					}
				}(p)
			}
			wg.Wait()
			var total int64
			for _, s := range successes {
				total += s
			}
			final := make([]uint64, cfg.w)
			o.LL(0, final)
			if int64(final[0]) != total {
				t.Fatalf("final counter = %d, want %d successful SCs", final[0], total)
			}
			if total == 0 {
				t.Fatal("no SC succeeded at all")
			}
		})
	}
}

// TestConcurrentDistinctPatterns has each successful SC write a pattern
// derived from a fresh id so any buffer mix-up or stale read surfaces as a
// pattern violation: word i must equal base+i for some base that was
// actually written. Reader processes call Read throughout, so a Read that
// returned a copy overlapping a buffer reuse shows as mixed words too.
func TestConcurrentDistinctPatterns(t *testing.T) {
	const (
		n       = 8
		readers = 2
		w       = 8
		ops     = 1500
	)
	o := newObject(t, n+readers, w, patternOf(0, w))
	var wg sync.WaitGroup
	stop := startReaders(t, o, n, readers, func(v []uint64) bool {
		for j := range v {
			if v[j] != v[0]+uint64(j) {
				return false
			}
		}
		return true
	})
	defer stop()
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			v := make([]uint64, w)
			for i := 0; i < ops; i++ {
				o.LL(p, v)
				base := v[0]
				for j := range v {
					if v[j] != base+uint64(j) {
						t.Errorf("p%d: non-pattern value at word %d: %v", p, j, v)
						return
					}
				}
				id := uint64(p*ops+i+1) * uint64(w+1)
				o.SC(p, patternOf(id, w))
			}
		}(p)
	}
	wg.Wait()
}

// startReaders runs Read on processes first..first+count-1 until the
// returned stop is called, failing the test on any value valid rejects.
// Every 16th Read is followed by an SC, which the Read contract says must
// fail. stop waits for the readers and fails the test if none of them
// completed a Read.
func startReaders(t *testing.T, o *Object, first, count int, valid func([]uint64) bool) (stop func()) {
	t.Helper()
	var (
		wg    sync.WaitGroup
		done  atomic.Bool
		reads atomic.Int64
	)
	for p := first; p < first+count; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			v := make([]uint64, o.W())
			for i := 0; !done.Load(); i++ {
				o.Read(p, v)
				reads.Add(1)
				if !valid(v) {
					t.Errorf("p%d: Read returned mixed words: %v", p, v)
					return
				}
				if i%16 == 0 && o.SC(p, v) {
					t.Errorf("p%d: SC after Read succeeded", p)
					return
				}
			}
		}(p)
	}
	return func() {
		done.Store(true)
		wg.Wait()
		if reads.Load() == 0 {
			t.Error("no reader completed a Read")
		}
	}
}

func patternOf(base uint64, w int) []uint64 {
	v := make([]uint64, w)
	for i := range v {
		v[i] = base + uint64(i)
	}
	return v
}

// TestVLAgreesWithSC: when VL returns false, the subsequent SC (with no
// LL in between) must fail.
func TestVLFalseImpliesSCFails(t *testing.T) {
	const n = 4
	o := newObject(t, n, 2, words(0, 0))
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			v := make([]uint64, 2)
			for i := 0; i < 2000; i++ {
				o.LL(p, v)
				valid := o.VL(p)
				ok := o.SC(p, words(v[0]+1, v[1]+1))
				if !valid && ok {
					t.Errorf("p%d: SC succeeded after VL returned false", p)
					return
				}
			}
		}(p)
	}
	wg.Wait()
}

func TestStatsCounting(t *testing.T) {
	var st Stats
	o, err := New(mem.NewReal(2, mem.SubstrateTagged), 2, 2, words(0, 0), &st)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]uint64, 2)
	o.LL(0, v)
	o.SC(0, words(1, 1))
	o.LL(0, v)
	o.SC(0, words(2, 2))
	o.LL(1, v)
	o.VL(1)

	snap := st.Snapshot()
	if snap.LLTotal != 3 {
		t.Errorf("LLTotal = %d, want 3", snap.LLTotal)
	}
	if snap.SCTotal != 2 || snap.SCSuccess != 2 {
		t.Errorf("SC counters = %d/%d, want 2/2", snap.SCSuccess, snap.SCTotal)
	}
	if snap.SuccessFraction() != 1 {
		t.Errorf("SuccessFraction = %v, want 1", snap.SuccessFraction())
	}
	if snap.HelpedFraction() != 0 {
		t.Errorf("HelpedFraction = %v, want 0 in sequential run", snap.HelpedFraction())
	}
}

func TestSpaceAccounting(t *testing.T) {
	for _, cfg := range []struct{ n, w int }{{1, 1}, {4, 8}, {16, 64}} {
		o := newObject(t, cfg.n, cfg.w, make([]uint64, cfg.w))
		s := o.Space()
		wantRegs := int64(3*cfg.n) * int64(cfg.w)
		if s.RegisterWords != wantRegs {
			t.Errorf("n=%d w=%d: RegisterWords = %d, want %d", cfg.n, cfg.w, s.RegisterWords, wantRegs)
		}
		wantLLSC := int64(3*cfg.n) + 1
		if s.LLSCWords != wantLLSC {
			t.Errorf("n=%d w=%d: LLSCWords = %d, want %d", cfg.n, cfg.w, s.LLSCWords, wantLLSC)
		}
		if s.PhysBytes < wantRegs*8 {
			t.Errorf("n=%d w=%d: PhysBytes = %d below register floor %d",
				cfg.n, cfg.w, s.PhysBytes, wantRegs*8)
		}
	}
}

// TestSpaceLinearInN is the shape check behind the paper's headline: for
// fixed W, doubling N must roughly double the paper-accounting footprint
// (it is exactly linear), never quadruple it.
func TestSpaceLinearInN(t *testing.T) {
	const w = 16
	prev := int64(0)
	for _, n := range []int{2, 4, 8, 16, 32} {
		o := newObject(t, n, w, make([]uint64, w))
		now := o.Space().PaperWords()
		if prev != 0 {
			ratio := float64(now) / float64(prev)
			if ratio < 1.8 || ratio > 2.2 {
				t.Errorf("paper words ratio at n=%d: %.2f, want ~2 (linear in N)", n, ratio)
			}
		}
		prev = now
	}
}
