package sim

import (
	"fmt"
	"strings"
	"testing"

	"mwllsc/internal/check"
	"mwllsc/internal/core"
	"mwllsc/internal/mem"
)

// readFallbacks counts the Reads of a run that fell back to a full LL:
// every LL the object completed that the history does not record as one.
func readFallbacks(res *Result) int64 {
	var lls int64
	for _, op := range res.History {
		if op.Kind == check.OpLL {
			lls++
		}
	}
	return res.Stats.LLTotal - lls
}

// tornRead reports whether some Read of a run returned a value that is
// not a pattern any SC wrote.
func tornRead(res *Result) bool {
	for _, op := range res.History {
		if op.Kind == check.OpRead && strings.HasPrefix(op.Ret, "torn") {
			return true
		}
	}
	return false
}

// requireLinearizable checks a run's history when it fits the checker.
func requireLinearizable(t *testing.T, res *Result, label string) {
	t.Helper()
	if len(res.History) <= check.MaxOps {
		if err := check.CheckLLSC(res.History, "0"); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
}

// TestReadRandomSchedulesCleanAndLinearizable interleaves Reads with LL,
// VL and SC under the configurations and seed counts of
// TestRandomSchedulesCleanAndLinearizable: every run satisfies every
// invariant, and its history — Reads, the VLs that follow them and the
// SCs they must reject included — is linearizable.
func TestReadRandomSchedulesCleanAndLinearizable(t *testing.T) {
	configs := []struct{ n, w, ops int }{
		{1, 1, 6},
		{2, 2, 5},
		{3, 4, 4},
		{4, 3, 3},
	}
	reads := 0
	for _, cfg := range configs {
		for seed := int64(0); seed < 25; seed++ {
			res, err := Run(Config{
				N: cfg.n, W: cfg.w, OpsPerProc: cfg.ops, Seed: seed, VLEvery: 2, ReadEvery: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("n%d w%d seed%d", cfg.n, cfg.w, seed)
			requireClean(t, res, label)
			requireLinearizable(t, res, label)
			for _, op := range res.History {
				if op.Kind == check.OpRead {
					reads++
				}
			}
		}
	}
	if reads == 0 {
		t.Fatal("no Read ran; the runner ignores ReadEvery")
	}
}

// TestReadStarvedFallsBackToLL starves a reader across many successful
// SCs, so its copy overlaps buffer reuse and its VL fails: the Read must
// fall back to the full LL and still return a valid, current value.
func TestReadStarvedFallsBackToLL(t *testing.T) {
	var fallbacks int64
	for seed := int64(0); seed < 10; seed++ {
		res, err := Run(Config{
			N: 3, W: 6, OpsPerProc: 4, Seed: seed, ReadEvery: 2,
			Policy:    &Starve{Victim: 0, Every: 150, Inner: NewRandom(seed)},
			TornReads: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("seed%d", seed)
		requireClean(t, res, label)
		requireLinearizable(t, res, label)
		fallbacks += readFallbacks(res)
	}
	if fallbacks == 0 {
		t.Fatal("no Read ever fell back to LL under starvation; the adversary is too weak")
	}
}

// TestReadStepBound pins Read's cost in the simulator's model: exactly
// W+2 steps alone (LL of X, W word reads, VL of X), and at most W+2 plus
// the worst LL under any schedule.
func TestReadStepBound(t *testing.T) {
	for _, w := range []int{1, 2, 8, 32} {
		solo, err := Run(Config{N: 1, W: w, OpsPerProc: 4, Seed: 1, ReadEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		requireClean(t, solo, fmt.Sprintf("solo w%d", w))
		if solo.MaxReadSteps != w+2 {
			t.Errorf("w=%d: uncontended Read took %d steps, want W+2 = %d", w, solo.MaxReadSteps, w+2)
		}
		for seed := int64(0); seed < 6; seed++ {
			for _, policy := range []Policy{
				NewRandom(seed),
				&Starve{Victim: 0, Every: 100, Inner: NewRandom(seed)},
			} {
				res, err := Run(Config{
					N: 3, W: w, OpsPerProc: 5, Seed: seed, VLEvery: 2, ReadEvery: 2, Policy: policy,
				})
				if err != nil {
					t.Fatal(err)
				}
				requireClean(t, res, fmt.Sprintf("w%d seed%d", w, seed))
				if res.MaxReadSteps > w+2+res.MaxLLSteps {
					t.Errorf("w=%d seed=%d policy=%s: Read took %d steps > W+2+maxLL = %d",
						w, seed, policy.Name(), res.MaxReadSteps, w+2+res.MaxLLSteps)
				}
				if res.MaxLLSteps > 4*w+11 {
					t.Errorf("w=%d seed=%d policy=%s: LL took %d steps > bound %d",
						w, seed, policy.Name(), res.MaxLLSteps, 4*w+11)
				}
			}
		}
	}
}

// storeWatch is an Observer that flags any shared write a process makes
// inside a Read that returned its own copy.
type storeWatch struct {
	t      *testing.T
	inRead []bool
	wrote  []bool
	reads  int
}

func (s *storeWatch) OnMutate(_ *Word, p int, _, _ uint64, _ bool) {
	if s.inRead[p] {
		s.wrote[p] = true
	}
}

func (s *storeWatch) OnBufWrite(_, p int) {
	if s.inRead[p] {
		s.wrote[p] = true
	}
}

func (s *storeWatch) OnTrace(p int, ev mem.Event) {
	switch ev.Kind {
	case mem.EvReadStart:
		s.inRead[p], s.wrote[p] = true, false
	case mem.EvReadDone:
		s.inRead[p] = false
		if ev.Arg == 1 {
			s.reads++
			if s.wrote[p] {
				s.t.Errorf("process %d wrote shared memory inside a Read that kept its copy", p)
			}
		}
	}
}

// TestReadWritesNoSharedMemory drives Reads beside LL/SC traffic on a
// simulated memory and watches every word mutation and buffer write: a
// Read that keeps its copy makes none.
func TestReadWritesNoSharedMemory(t *testing.T) {
	const n, w, rounds = 3, 4, 8
	for seed := int64(0); seed < 10; seed++ {
		sched := NewSched(n, NewRandom(seed), 1<<20, nil)
		memory := NewMemory(sched, seed, false)
		watch := &storeWatch{t: t, inRead: make([]bool, n), wrote: make([]bool, n)}
		memory.Observe(watch)
		obj, err := core.New(memory, n, w, InitialValue(w), nil)
		if err != nil {
			t.Fatal(err)
		}
		fns := make([]func(int), n)
		for p := range fns {
			fns[p] = func(p int) {
				v := make([]uint64, w)
				memory.Sync(p)
				for i := 0; i < rounds; i++ {
					if p == 0 {
						obj.Read(p, v)
						continue
					}
					obj.LL(p, v)
					v[0]++
					obj.SC(p, v)
				}
			}
		}
		if errs := sched.Run(fns); len(errs) > 0 {
			t.Fatalf("seed %d: %v", seed, errs)
		}
		if watch.reads == 0 {
			t.Fatalf("seed %d: no Read kept its copy", seed)
		}
	}
}

// TestReadExploreSmall explores every schedule with up to 2 preemptions
// of a 2-process workload whose first round is a Read.
func TestReadExploreSmall(t *testing.T) {
	res, err := Explore(ExploreConfig{
		N: 2, W: 2, OpsPerProc: 2, Seed: 1, VLEvery: 1, ReadEvery: 2, MaxPreemptions: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) > 0 {
		f := res.Findings[0]
		t.Fatalf("%d failing schedules; first prefix %v: %v", len(res.Findings), f.Prefix, f.Errs)
	}
	if res.Runs < 100 {
		t.Fatalf("exploration only ran %d schedules; branching is broken", res.Runs)
	}
}

// TestHarnessCatchesSkipReadValidate is the negative control for Read:
// returning the copy without validating X must be caught. The read
// invariant fires on some seed, and a starved reader's copy overlaps
// buffer reuse, so some unvalidated Read returns mixed words — a value
// no SC wrote, which the linearizability checker rejects.
func TestHarnessCatchesSkipReadValidate(t *testing.T) {
	caught, torn := 0, 0
	for seed := int64(0); seed < 20; seed++ {
		res, err := Run(Config{
			N: 3, W: 8, OpsPerProc: 16, Seed: seed, ReadEvery: 2,
			Debug:     core.Debug{SkipReadValidate: true},
			Policy:    &Starve{Victim: 0, Every: 100, Inner: NewRandom(seed)},
			TornReads: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) > 0 {
			caught++
		}
		if tornRead(res) {
			torn++
		}
	}
	if caught == 0 {
		t.Fatal("no seed caught the skipped Read validation (the read invariant should fire)")
	}
	// Positive control: the identical configurations are clean with the
	// validation in place.
	for seed := int64(0); seed < 20; seed++ {
		res, err := Run(Config{
			N: 3, W: 8, OpsPerProc: 16, Seed: seed, ReadEvery: 2,
			Policy:    &Starve{Victim: 0, Every: 100, Inner: NewRandom(seed)},
			TornReads: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		requireClean(t, res, fmt.Sprintf("control seed%d", seed))
		if tornRead(res) {
			t.Fatalf("control seed %d: a validated Read returned mixed words", seed)
		}
	}
	if torn == 0 {
		t.Fatal("no unvalidated Read returned a torn value; the starved reader is not starved")
	}
}
