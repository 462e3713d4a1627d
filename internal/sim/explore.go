package sim

import (
	"fmt"

	"mwllsc/internal/check"
	"mwllsc/internal/core"
)

// Scripted is a policy that replays a fixed decision prefix and then
// continues non-preemptively (inertia: keep running the last process while
// it is runnable, else the lowest-id runnable). Because the whole simulation
// is deterministic, replaying a prefix reproduces the identical execution up
// to the deviation point. It records the full decision trace and the
// runnable set at every step, which the explorer uses to branch.
type Scripted struct {
	// Script is the decision prefix: Script[i] is the process granted
	// step i. It must match runnability, which replay guarantees.
	Script []int

	trace    []int
	runnable [][]int
	last     int
}

// NewScripted returns a policy replaying script then running with inertia.
func NewScripted(script []int) *Scripted {
	return &Scripted{Script: script, last: -1}
}

// Next implements Policy.
func (s *Scripted) Next(runnable []int, step int) int {
	snapshot := make([]int, len(runnable))
	copy(snapshot, runnable)
	s.runnable = append(s.runnable, snapshot)

	var choice int
	switch {
	case len(s.trace) < len(s.Script):
		choice = s.Script[len(s.trace)]
		if !contains(runnable, choice) {
			// Replay divergence would mean the simulation is not
			// deterministic — a harness bug worth failing loudly on.
			panic(fmt.Sprintf("sim: scripted choice p%d not runnable at step %d (runnable %v)",
				choice, step, runnable))
		}
	case contains(runnable, s.last):
		choice = s.last
	default:
		choice = runnable[0]
	}
	s.trace = append(s.trace, choice)
	s.last = choice
	return choice
}

// Name implements Policy.
func (s *Scripted) Name() string { return fmt.Sprintf("scripted(%d)", len(s.Script)) }

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// ExploreConfig bounds a systematic schedule exploration.
type ExploreConfig struct {
	// N, W, OpsPerProc, Seed, VLEvery, ReadEvery, TornReads configure
	// each run as in Config.
	N, W, OpsPerProc int
	Seed             int64
	VLEvery          int
	ReadEvery        int
	TornReads        bool
	// MaxPreemptions is the context-switch bound: every schedule that
	// deviates from non-preemptive execution at most this many times is
	// executed (CHESS-style iterative context bounding). Small bounds
	// find the overwhelming majority of concurrency bugs.
	MaxPreemptions int
	// MaxRuns caps the total number of executions (0 = unlimited).
	MaxRuns int
	// Debug optionally injects a negative-control mutation.
	Debug core.Debug
}

// ExploreResult summarizes a systematic exploration.
type ExploreResult struct {
	// Runs is the number of schedules executed.
	Runs int
	// Findings holds, per failing schedule, the violation set or
	// linearizability error together with the decision prefix that
	// reproduces it.
	Findings []Finding
	// HelpedLLs counts LL operations that took the helped path, summed
	// over all runs (evidence of mechanism coverage).
	HelpedLLs int64
	// MaxLLSteps / MaxSCSteps are worst cases across all schedules.
	MaxLLSteps, MaxSCSteps int
	// Truncated is true if MaxRuns stopped the exploration early.
	Truncated bool
}

// Finding is one failing schedule.
type Finding struct {
	// Prefix is the decision prefix to replay with NewScripted.
	Prefix []int
	// Errs are the violations and/or linearizability error messages.
	Errs []string
}

// Explore systematically executes every schedule of the configured workload
// with at most MaxPreemptions preemptions: it first runs non-preemptively,
// then recursively forces a context switch at each step of each explored
// trace until the preemption budget is spent. All checks of Run apply to
// every schedule (invariants, step bounds implicitly via results, and
// linearizability when histories fit the checker).
func Explore(cfg ExploreConfig) (*ExploreResult, error) {
	if cfg.MaxPreemptions < 0 {
		return nil, fmt.Errorf("sim: negative preemption bound")
	}
	res := &ExploreResult{}
	if err := explore(cfg, nil, cfg.MaxPreemptions, res); err != nil {
		return nil, err
	}
	return res, nil
}

func explore(cfg ExploreConfig, prefix []int, budget int, res *ExploreResult) error {
	if cfg.MaxRuns > 0 && res.Runs >= cfg.MaxRuns {
		res.Truncated = true
		return nil
	}
	policy := NewScripted(prefix)
	run, err := Run(Config{
		N: cfg.N, W: cfg.W, OpsPerProc: cfg.OpsPerProc, Seed: cfg.Seed,
		VLEvery: cfg.VLEvery, ReadEvery: cfg.ReadEvery, TornReads: cfg.TornReads,
		Policy: policy, Debug: cfg.Debug,
	})
	if err != nil {
		return err
	}
	res.Runs++
	res.HelpedLLs += run.Stats.LLHelped
	if run.MaxLLSteps > res.MaxLLSteps {
		res.MaxLLSteps = run.MaxLLSteps
	}
	if run.MaxSCSteps > res.MaxSCSteps {
		res.MaxSCSteps = run.MaxSCSteps
	}

	var errs []string
	for _, v := range run.Violations {
		errs = append(errs, v.Error())
	}
	if len(errs) == 0 && len(run.History) <= check.MaxOps {
		if err := check.CheckLLSC(run.History, "0"); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if len(errs) > 0 {
		res.Findings = append(res.Findings, Finding{
			Prefix: append([]int(nil), prefix...),
			Errs:   errs,
		})
		// A broken schedule's suffix decisions are not meaningful;
		// don't branch deeper from it.
		return nil
	}
	if budget == 0 {
		return nil
	}

	// Branch: at every step at or beyond the prefix, force a switch to
	// every other runnable process.
	for i := len(prefix); i < len(policy.trace); i++ {
		for _, q := range policy.runnable[i] {
			if q == policy.trace[i] {
				continue
			}
			branch := make([]int, i+1)
			copy(branch, policy.trace[:i])
			branch[i] = q
			if err := explore(cfg, branch, budget-1, res); err != nil {
				return err
			}
			if cfg.MaxRuns > 0 && res.Runs >= cfg.MaxRuns {
				res.Truncated = true
				return nil
			}
		}
	}
	return nil
}
