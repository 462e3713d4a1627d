package sim

import (
	"fmt"
	"io"
	"math/rand"
	"strconv"

	"mwllsc/internal/check"
	"mwllsc/internal/core"
)

// Config describes one simulated execution of the paper's algorithm.
type Config struct {
	// N is the process count, W the value width in words.
	N, W int
	// OpsPerProc is how many LL;(VL);SC rounds each process performs.
	OpsPerProc int
	// Seed drives the schedule, the workloads, and torn-read garbage.
	Seed int64
	// Policy schedules steps; nil defaults to NewRandom(Seed).
	Policy Policy
	// Crashes maps process ids to the step at which they crash (stop
	// being scheduled forever); their operations simply never finish.
	Crashes map[int]int
	// TornReads enables safe-register semantics for buffers: reads
	// overlapping a writer return garbage.
	TornReads bool
	// VLEvery inserts a VL after the LL every k-th round (0 = never).
	VLEvery int
	// ReadEvery makes every k-th round a read round (0 = never): a Read
	// takes the LL's place, so the round's VL validates the Read and its
	// SC must fail.
	ReadEvery int
	// MaxSteps bounds total steps (0 = a generous default).
	MaxSteps int
	// DisableInvariants skips invariant checking (for pure benchmarks).
	DisableInvariants bool
	// Debug injects deliberate algorithm mutations (negative controls for
	// the harness itself); see core.Debug.
	Debug core.Debug
	// TraceTo, when non-nil, receives a human-readable line per memory
	// mutation and algorithm event (the llsccheck -dump view).
	TraceTo io.Writer
}

// Result is the outcome of a simulated execution.
type Result struct {
	// History holds all completed operations, suitable for
	// check.CheckLLSC when small enough (crashed processes' pending
	// operations are not recorded).
	History check.History
	// Violations holds invariant violations and process panics; a correct
	// algorithm yields none, under every seed.
	Violations []error
	// Steps is the total number of shared-memory steps executed.
	Steps int
	// MaxLLSteps, MaxSCSteps, MaxVLSteps are the worst-case steps spent
	// inside one operation, across all processes — the empirical side of
	// Theorem 1's O(W), O(W), O(1) bounds.
	MaxLLSteps, MaxSCSteps, MaxVLSteps int
	// MaxReadSteps is the worst case inside one Read: W+2 on its own
	// path, plus at most MaxLLSteps when it falls back to a full LL.
	MaxReadSteps int
	// TornReads counts buffer-word reads that returned garbage.
	TornReads int64
	// Stats is the algorithm's internal event counters.
	Stats core.StatsSnapshot
	// SCSuccessesByProc counts successful SCs per process (to verify
	// non-crashed processes made progress).
	SCSuccessesByProc []int64
}

// InitialValue returns the pattern value (word j = j) every simulated run
// starts from; its check encoding is "0".
func InitialValue(w int) []uint64 {
	v := make([]uint64, w)
	for j := range v {
		v[j] = uint64(j)
	}
	return v
}

// Run executes the configured simulation and returns its result. The same
// Config (including Seed) always produces the identical Result.
func Run(cfg Config) (*Result, error) {
	if cfg.N < 1 || cfg.W < 1 || cfg.OpsPerProc < 0 {
		return nil, fmt.Errorf("sim: invalid config N=%d W=%d ops=%d", cfg.N, cfg.W, cfg.OpsPerProc)
	}
	policy := cfg.Policy
	if policy == nil {
		policy = NewRandom(cfg.Seed)
	}
	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		// Generous: every op is <= 5W+16 steps; x16 slack for starvation
		// policies that burn steps on stalled processes.
		maxSteps = 16 * (cfg.N*cfg.OpsPerProc*(5*cfg.W+16) + 64)
	}

	sched := NewSched(cfg.N, policy, maxSteps, cfg.Crashes)
	memory := NewMemory(sched, cfg.Seed+1, cfg.TornReads)

	if cfg.TraceTo != nil {
		memory.Observe(NewTraceLogger(cfg.TraceTo, memory))
	}

	var checker *InvariantChecker
	if !cfg.DisableInvariants {
		checker = NewInvariantChecker(memory, cfg.N)
		memory.Observe(checker)
		sched.AfterStep(checker.CheckStep)
	}

	var stats core.Stats
	obj, err := core.NewDebug(memory, cfg.N, cfg.W, InitialValue(cfg.W), &stats, cfg.Debug)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}

	res := &Result{SCSuccessesByProc: make([]int64, cfg.N)}
	perProc := make([]check.History, cfg.N)

	// Logical timestamps for the history: all workload code runs one
	// process at a time (the scheduler serializes it), so a shared tick
	// counter yields unique stamps consistent with simulated real time.
	var tick int64
	stamp := func() int64 { tick++; return tick }

	fns := make([]func(int), cfg.N)
	for p := 0; p < cfg.N; p++ {
		fns[p] = func(p int) {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(p)*7919))
			v := make([]uint64, cfg.W)
			next := make([]uint64, cfg.W)
			memory.Sync(p) // start barrier: all further code runs inside granted windows
			for i := 0; i < cfg.OpsPerProc; i++ {
				inv := stamp()
				kind := check.OpLL
				if cfg.ReadEvery > 0 && i%cfg.ReadEvery == 0 {
					kind = check.OpRead
					obj.Read(p, v)
				} else {
					obj.LL(p, v)
				}
				perProc[p] = append(perProc[p], check.Op{
					Proc: p, Kind: kind, Ret: check.PatternValue(v),
					Inv: inv, Res: stamp(),
				})

				if cfg.VLEvery > 0 && i%cfg.VLEvery == 0 {
					inv = stamp()
					ok := obj.VL(p)
					perProc[p] = append(perProc[p], check.Op{
						Proc: p, Kind: check.OpVL, OK: ok,
						Inv: inv, Res: stamp(),
					})
				}

				// A unique pattern id per SC attempt; adding rng noise in
				// the id ordering exercises distinct bank slots.
				id := uint64(1+p*cfg.OpsPerProc+i)*1000 + uint64(rng.Intn(999))
				for j := range next {
					next[j] = id + uint64(j)
				}
				inv = stamp()
				ok := obj.SC(p, next)
				perProc[p] = append(perProc[p], check.Op{
					Proc: p, Kind: check.OpSC, Arg: strconv.FormatUint(id, 10), OK: ok,
					Inv: inv, Res: stamp(),
				})
				if ok {
					res.SCSuccessesByProc[p]++
				}
			}
		}
	}

	errs := sched.Run(fns)
	if checker != nil {
		checker.CheckFinal()
		errs = append(errs, checker.Violations()...)
	}

	res.Violations = errs
	res.Steps = sched.Step()
	res.MaxLLSteps, res.MaxSCSteps, res.MaxVLSteps = memory.MaxOpSteps()
	res.MaxReadSteps = memory.MaxReadSteps()
	res.TornReads = memory.TornReads()
	res.Stats = stats.Snapshot()
	for p := range perProc {
		res.History = append(res.History, perProc[p]...)
	}
	return res, nil
}
