// Benchmarks regenerating the core experiment index E1-E7 (see
// docs/BENCHMARKS.md) as testing.B targets. One Benchmark family per
// experiment; cmd/llscbench produces the corresponding full tables. Run:
//
//	go test -bench=. -benchmem
package mwllsc_test

import (
	"fmt"
	"sync"
	"testing"

	"mwllsc/internal/bench"
	"mwllsc/internal/core"
	"mwllsc/internal/impls"
	"mwllsc/internal/mwobj"
	"mwllsc/internal/mwtest"
	"mwllsc/internal/sim"
)

// benchImpls are the implementations compared in timing benchmarks.
var benchImpls = []string{"jp", "jp-ptr", "amstyle", "gcptr", "lockmw"}

func factoryOf(b *testing.B, name string) mwobj.Factory {
	b.Helper()
	f, err := impls.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

func newObj(b *testing.B, name string, n, w int) mwobj.MW {
	b.Helper()
	obj, err := factoryOf(b, name)(n, w, mwtest.Pattern(0, w))
	if err != nil {
		b.Fatal(err)
	}
	return obj
}

// BenchmarkE1_LL measures uncontended LL latency vs W (Theorem 1: O(W)).
func BenchmarkE1_LL(b *testing.B) {
	for _, name := range benchImpls {
		for _, w := range []int{1, 16, 128} {
			b.Run(fmt.Sprintf("impl=%s/W=%d", name, w), func(b *testing.B) {
				obj := newObj(b, name, 8, w)
				v := make([]uint64, w)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					obj.LL(0, v)
				}
			})
		}
	}
}

// BenchmarkE1_Read measures the store-free Read of the paper's object
// beside BenchmarkE1_LL: LL(X), a W-word copy and VL(X), with none of
// LL's Help announcement, withdrawal or Line 11 buffer store.
func BenchmarkE1_Read(b *testing.B) {
	for _, name := range []string{"jp", "jp-ptr"} {
		for _, w := range []int{1, 16, 128} {
			b.Run(fmt.Sprintf("impl=%s/W=%d", name, w), func(b *testing.B) {
				obj := newObj(b, name, 8, w).(*core.Object)
				v := make([]uint64, w)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					obj.Read(0, v)
				}
			})
		}
	}
}

// BenchmarkE1_LLSC measures an uncontended LL;SC round vs W; with
// -benchmem its allocs/op column is experiment E7, and the jp vs jp-ptr
// rows are experiment E5.
func BenchmarkE1_LLSC(b *testing.B) {
	for _, name := range benchImpls {
		for _, w := range []int{1, 16, 128} {
			b.Run(fmt.Sprintf("impl=%s/W=%d", name, w), func(b *testing.B) {
				obj := newObj(b, name, 8, w)
				v := make([]uint64, w)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					obj.LL(0, v)
					v[0]++
					if !obj.SC(0, v) {
						b.Fatal("uncontended SC failed")
					}
				}
			})
		}
	}
}

// BenchmarkE1_VL measures VL (Theorem 1: O(1) — flat across W).
func BenchmarkE1_VL(b *testing.B) {
	for _, w := range []int{1, 128} {
		b.Run(fmt.Sprintf("impl=jp/W=%d", w), func(b *testing.B) {
			obj := newObj(b, "jp", 8, w)
			v := make([]uint64, w)
			obj.LL(0, v)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				obj.VL(0)
			}
		})
	}
}

// BenchmarkE2_Space reports the paper-accounting footprint (words) of the
// paper's algorithm and the AM-profile baseline as custom metrics, along
// with the ratio the paper predicts to be Θ(N). The timed body is empty —
// this benchmark exists so the E2 numbers appear in bench output.
func BenchmarkE2_Space(b *testing.B) {
	const w = 16
	for _, n := range []int{2, 8, 32, 128} {
		b.Run(fmt.Sprintf("N=%d/W=%d", n, w), func(b *testing.B) {
			jp, err := bench.SpaceOf(factoryOf(b, "jp"), n, w)
			if err != nil {
				b.Fatal(err)
			}
			am, err := bench.SpaceOf(factoryOf(b, "amstyle"), n, w)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
			}
			b.ReportMetric(float64(jp.PaperWords()), "jp-words")
			b.ReportMetric(float64(am.PaperWords()), "amstyle-words")
			b.ReportMetric(float64(am.PaperWords())/float64(jp.PaperWords()), "ratio")
		})
	}
}

// BenchmarkE3_Contended measures LL;SC rounds under contention: G
// goroutines share the object; each benchmark iteration is one completed
// round by some goroutine.
func BenchmarkE3_Contended(b *testing.B) {
	for _, name := range benchImpls {
		for _, g := range []int{2, 4, 8} {
			b.Run(fmt.Sprintf("impl=%s/G=%d", name, g), func(b *testing.B) {
				const w = 16
				obj := newObj(b, name, g, w)
				var wg sync.WaitGroup
				per := b.N/g + 1
				b.ResetTimer()
				for p := 0; p < g; p++ {
					wg.Add(1)
					go func(p int) {
						defer wg.Done()
						v := make([]uint64, w)
						for i := 0; i < per; i++ {
							obj.LL(p, v)
							v[0]++
							obj.SC(p, v)
						}
					}(p)
				}
				wg.Wait()
			})
		}
	}
}

// BenchmarkE4_Helping runs a contended workload on the paper's algorithm
// with stats enabled and reports the helped-LL and handoff rates as
// metrics (paper §2.2's mechanism at work).
func BenchmarkE4_Helping(b *testing.B) {
	for _, g := range []int{4, 8} {
		b.Run(fmt.Sprintf("G=%d", g), func(b *testing.B) {
			const w = 8
			var stats core.Stats
			obj, err := impls.JPWithStats(&stats)(g, w, mwtest.Pattern(0, w))
			if err != nil {
				b.Fatal(err)
			}
			var wg sync.WaitGroup
			per := b.N/g + 1
			b.ResetTimer()
			for p := 0; p < g; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					v := make([]uint64, w)
					for i := 0; i < per; i++ {
						obj.LL(p, v)
						v[0]++
						obj.SC(p, v)
					}
				}(p)
			}
			wg.Wait()
			b.StopTimer()
			s := stats.Snapshot()
			b.ReportMetric(100*s.HelpedFraction(), "helped-%")
			b.ReportMetric(float64(s.Handoffs), "handoffs")
			b.ReportMetric(100*s.SuccessFraction(), "sc-%")
		})
	}
}

// BenchmarkE4_SimStarved reports the helped fraction under a deterministic
// starvation adversary in the simulator — the schedule real benchmarks
// cannot force. Steps, not wall time, are the meaningful cost here.
func BenchmarkE4_SimStarved(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			N: 3, W: 8, OpsPerProc: 20, Seed: int64(i),
			Policy: &sim.Starve{Victim: 0, Every: 250, Inner: sim.NewRandom(int64(i))},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Violations) != 0 {
			b.Fatalf("violations: %v", res.Violations)
		}
		if i == 0 {
			b.ReportMetric(100*res.Stats.HelpedFraction(), "helped-%")
			b.ReportMetric(float64(res.MaxLLSteps), "worst-LL-steps")
		}
	}
}

// BenchmarkE6_SnapshotScan measures wait-free snapshot scans (C=16, one
// concurrent writer) over the paper's object vs baselines.
func BenchmarkE6_SnapshotScan(b *testing.B) {
	for _, name := range []string{"jp", "gcptr", "lockmw"} {
		b.Run("impl="+name, func(b *testing.B) {
			const comps = 16
			snap := newSnapshot(b, name, comps)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := uint64(1); ; i++ {
					select {
					case <-stop:
						return
					default:
						snap.Update(0, int(i)%comps, i)
					}
				}
			}()
			dst := make([]uint64, comps)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap.Scan(1, dst)
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}

// BenchmarkE6_QueueRoundTrip measures a wait-free queue enqueue+dequeue
// pair (single process; contended variants live in cmd/llscbench -e e6).
func BenchmarkE6_QueueRoundTrip(b *testing.B) {
	for _, name := range []string{"jp", "gcptr", "lockmw"} {
		b.Run("impl="+name, func(b *testing.B) {
			q := newQueue(b, name, 4, 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !q.Enqueue(0, uint64(i)&(1<<62)) {
					b.Fatal("enqueue failed")
				}
				if _, ok := q.Dequeue(0); !ok {
					b.Fatal("dequeue failed")
				}
			}
		})
	}
}
