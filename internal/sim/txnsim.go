package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"mwllsc/internal/check"
	"mwllsc/internal/txn"
)

// TxnShards is a simulated txn.ShardSet: K exact atomic multiword
// LL/Read/SC/VL shards (per-shard version counter, per-process links)
// whose every operation costs one scheduler step. It also implements
// txn.Stepper, so the engine's own shared accesses — lock-word CASes and
// descriptor status transitions — are scheduler steps too: a process can
// be stalled or crashed between ANY two of the protocol's shared-memory
// accesses, including mid-commit with locks installed and mid-claim
// between a status check and its CAS.
type TxnShards struct {
	sched *Sched
	k     int
	words int
	vals  [][]uint64
	vers  []uint64
	links [][]uint64 // [shard][proc]: version at latest LL or Read
	reads [][]bool   // [shard][proc]: the latest link came from a Read
	scs   int64
	nread int64
}

// NewTxnShards builds k simulated shards of the given width, each
// initialized to initial.
func NewTxnShards(sched *Sched, k, words int, initial []uint64) *TxnShards {
	if len(initial) != words {
		panic(fmt.Sprintf("sim: initial value has %d words, want %d", len(initial), words))
	}
	s := &TxnShards{sched: sched, k: k, words: words,
		vals:  make([][]uint64, k),
		vers:  make([]uint64, k),
		links: make([][]uint64, k),
		reads: make([][]bool, k),
	}
	for i := range s.vals {
		s.vals[i] = make([]uint64, words)
		copy(s.vals[i], initial)
		s.links[i] = make([]uint64, sched.n)
		s.reads[i] = make([]bool, sched.n)
	}
	return s
}

// Shards implements txn.ShardSet.
func (s *TxnShards) Shards() int { return s.k }

// Words implements txn.ShardSet.
func (s *TxnShards) Words() int { return s.words }

// LL implements txn.ShardSet; one scheduler step.
func (s *TxnShards) LL(p, i int, dst []uint64) {
	s.sched.Yield(p)
	copy(dst, s.vals[i])
	s.links[i][p] = s.vers[i]
	s.reads[i][p] = false
}

// Read implements txn.ShardSet; one scheduler step. It links like LL for
// VL, but p's SC on shard i fails until p's next LL of it.
func (s *TxnShards) Read(p, i int, dst []uint64) {
	s.sched.Yield(p)
	copy(dst, s.vals[i])
	s.links[i][p] = s.vers[i]
	s.reads[i][p] = true
	s.nread++
}

// SC implements txn.ShardSet; one scheduler step.
func (s *TxnShards) SC(p, i int, src []uint64) bool {
	s.sched.Yield(p)
	if s.reads[i][p] || s.links[i][p] != s.vers[i] {
		return false
	}
	copy(s.vals[i], src)
	s.vers[i]++
	s.scs++
	return true
}

// VL implements txn.ShardSet; one scheduler step.
func (s *TxnShards) VL(p, i int) bool {
	s.sched.Yield(p)
	return s.links[i][p] == s.vers[i]
}

// Step implements txn.Stepper: one scheduler step per engine-internal
// shared access (lock words, descriptor status words).
func (s *TxnShards) Step(p int) { s.sched.Yield(p) }

// Sync parks the calling process until granted a step (the start
// barrier, as Memory.Sync).
func (s *TxnShards) Sync(p int) { s.sched.Yield(p) }

// Value returns shard i's current value (for post-run assertions; call
// only after the scheduler has stopped).
func (s *TxnShards) Value(i int) []uint64 {
	out := make([]uint64, s.words)
	copy(out, s.vals[i])
	return out
}

var (
	_ txn.ShardSet = (*TxnShards)(nil)
	_ txn.Stepper  = (*TxnShards)(nil)
)

// TxnConfig describes one simulated execution of the transaction engine
// over simulated shards.
type TxnConfig struct {
	// N is the process count, K the shard count, W the user value width.
	N, K, W int
	// OpsPerProc is how many operations each process performs.
	OpsPerProc int
	// Span is how many distinct shards each multi-key update touches.
	Span int
	// Seed drives the schedule and the workloads.
	Seed int64
	// Policy schedules steps; nil defaults to NewRandom(Seed).
	Policy Policy
	// Crashes maps process ids to the step at which they crash — possibly
	// mid-commit, with a published descriptor and locks installed; their
	// transactions must be finished by whoever trips over them.
	Crashes map[int]int
	// SnapEvery makes every SnapEvery-th operation an atomic snapshot
	// instead of an update (0 = updates only).
	SnapEvery int
	// Transfer selects the conserving workload (move one unit from the
	// first to the last touched shard) instead of distinct increments.
	Transfer bool
	// MaxSteps bounds total steps (0 = a generous default). Exhausting it
	// is reported as a violation — the lock-freedom failure signature.
	MaxSteps int
}

// TxnResult is the outcome of a simulated transaction execution.
type TxnResult struct {
	// History holds all completed operations of non-crashed processes,
	// suitable for check.CheckTxns when small enough.
	History []check.TxnOp
	// Violations holds process panics and step-budget exhaustion; a
	// correct engine yields none under every seed without crashes, and
	// none but missing ops from crashed processes with them.
	Violations []error
	// Steps is the total number of shared-memory steps executed.
	Steps int
	// CommittedByProc counts committed updates per process.
	CommittedByProc []int64
	// Attempts is the total number of collect-lock attempts across all
	// committed updates (Attempts - sum(CommittedByProc) = aborted
	// attempts).
	Attempts int64
	// Snapshots counts completed atomic snapshots; Fallbacks counts those
	// that needed the descriptor path.
	Snapshots, Fallbacks int64
	// Reads counts the engine's store-free shard Reads (collects and
	// snapshot first passes).
	Reads int64
	// Final holds each shard's user value after the run.
	Final [][]uint64
	// LocksLeft counts shards still carrying a held lock reference after
	// the run — with no crashed processes it must be zero.
	LocksLeft int
}

// RunTxn executes the configured simulation and returns its result. The
// same TxnConfig (including Seed) always produces the identical result.
func RunTxn(cfg TxnConfig) (*TxnResult, error) {
	if cfg.N < 1 || cfg.K < 1 || cfg.W < 1 || cfg.OpsPerProc < 0 {
		return nil, fmt.Errorf("sim: invalid txn config N=%d K=%d W=%d ops=%d",
			cfg.N, cfg.K, cfg.W, cfg.OpsPerProc)
	}
	span := cfg.Span
	if span < 1 {
		span = 1
	}
	if span > cfg.K {
		span = cfg.K
	}
	policy := cfg.Policy
	if policy == nil {
		policy = NewRandom(cfg.Seed)
	}
	maxSteps := cfg.MaxSteps
	if maxSteps == 0 {
		// An update costs ~5*span steps uncontended; x128 slack covers
		// helping cascades, aborts, and starvation policies.
		maxSteps = 128*cfg.N*cfg.OpsPerProc*(5*span+2*cfg.K) + 4096
	}

	sched := NewSched(cfg.N, policy, maxSteps, cfg.Crashes)
	shards := NewTxnShards(sched, cfg.K, cfg.W, make([]uint64, cfg.W))
	eng, err := txn.New(shards, cfg.N)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}

	res := &TxnResult{CommittedByProc: make([]int64, cfg.N)}
	perProc := make([][]check.TxnOp, cfg.N)

	// Logical timestamps: all workload code runs one process at a time
	// (the scheduler serializes it), so a shared tick counter yields
	// unique stamps consistent with simulated real time.
	var tick int64
	stamp := func() int64 { tick++; return tick }

	fns := make([]func(int), cfg.N)
	for p := 0; p < cfg.N; p++ {
		fns[p] = func(p int) {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(p)*104729))
			snapBuf := make([][]uint64, cfg.K)
			for i := range snapBuf {
				snapBuf[i] = make([]uint64, cfg.W)
			}
			capOld := make([][]uint64, span)
			capNew := make([][]uint64, span)
			for j := range capOld {
				capOld[j] = make([]uint64, cfg.W)
				capNew[j] = make([]uint64, cfg.W)
			}
			shards.Sync(p) // start barrier: everything below runs inside granted windows
			for i := 0; i < cfg.OpsPerProc; i++ {
				if cfg.SnapEvery > 0 && (i+1)%cfg.SnapEvery == 0 {
					inv := stamp()
					attempts := eng.Snapshot(p, snapBuf)
					op := check.TxnOp{Proc: p, Kind: check.TxnSnap, Inv: inv, Res: stamp()}
					for sh := 0; sh < cfg.K; sh++ {
						op.Shards = append(op.Shards, sh)
						op.Old = append(op.Old, check.WordsValue(snapBuf[sh]))
					}
					perProc[p] = append(perProc[p], op)
					res.Snapshots++
					if attempts > txn.SnapshotRetries {
						res.Fallbacks++
					}
					continue
				}

				// Pick span distinct shards and a mutation, both fixed
				// before the (possibly re-run) transaction function.
				ds := append([]int(nil), rng.Perm(cfg.K)[:span]...)
				sort.Ints(ds)
				delta := uint64(rng.Intn(900) + 1)
				f := func(vals [][]uint64) {
					for j, v := range vals {
						copy(capOld[j], v)
					}
					if cfg.Transfer {
						for t := 0; t < cfg.W; t++ {
							vals[0][t] -= delta
							vals[len(vals)-1][t] += delta
						}
					} else {
						for j, v := range vals {
							for t := range v {
								v[t] += delta + uint64(j)
							}
						}
					}
					for j, v := range vals {
						copy(capNew[j], v)
					}
				}
				inv := stamp()
				attempts := eng.Update(p, ds, f)
				op := check.TxnOp{Proc: p, Kind: check.TxnUpdate, Shards: ds, Inv: inv, Res: stamp()}
				for j := range ds {
					op.Old = append(op.Old, check.WordsValue(capOld[j]))
					op.New = append(op.New, check.WordsValue(capNew[j]))
				}
				perProc[p] = append(perProc[p], op)
				res.CommittedByProc[p]++
				res.Attempts += int64(attempts)
			}
		}
	}

	res.Violations = sched.Run(fns)
	res.Steps = sched.Step()
	for p := range perProc {
		res.History = append(res.History, perProc[p]...)
	}
	res.Final = make([][]uint64, cfg.K)
	for i := range res.Final {
		res.Final[i] = shards.Value(i)
	}
	res.LocksLeft = eng.LockedShards()
	res.Reads = shards.nread
	return res, nil
}
