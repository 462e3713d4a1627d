package sim

import (
	"fmt"
	"testing"

	"mwllsc/internal/check"
	"mwllsc/internal/txn"
)

// txnInitial returns the per-shard initial value strings for CheckTxns
// (RunTxn starts every shard at all-zeros).
func txnInitial(k, w int) []string {
	init := make([]string, k)
	for i := range init {
		init[i] = check.WordsValue(make([]uint64, w))
	}
	return init
}

// TestTxnHistoriesLinearizable drives competing multi-key transactions on
// overlapping shard sets plus atomic snapshots under seeded-random
// adversarial schedules and verifies every history against the sequential
// multi-shard specification.
func TestTxnHistoriesLinearizable(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := 0; seed < seeds; seed++ {
		cfg := TxnConfig{
			N: 3, K: 4, W: 2, OpsPerProc: 5, Span: 2,
			SnapEvery: 3, Seed: int64(seed),
		}
		res, err := RunTxn(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("seed %d: violations: %v", seed, res.Violations)
		}
		if res.LocksLeft != 0 {
			t.Fatalf("seed %d: %d shards still carry a lock word after a crash-free run", seed, res.LocksLeft)
		}
		if err := check.CheckTxns(res.History, cfg.K, txnInitial(cfg.K, cfg.W)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestTxnLinearizableUnderStarvation is the stalled-writer-mid-commit
// schedule: one process is starved to one step in 250, so its published
// descriptors sit mid-lock-phase for ages and the others constantly trip
// over its locks and must help. Histories must stay linearizable and the
// starved writer's transactions must still commit exactly once.
func TestTxnLinearizableUnderStarvation(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		cfg := TxnConfig{
			N: 3, K: 4, W: 1, OpsPerProc: 5, Span: 3,
			Seed:   int64(seed),
			Policy: &Starve{Victim: 0, Every: 250, Inner: NewRandom(int64(seed))},
		}
		res, err := RunTxn(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("seed %d: violations: %v", seed, res.Violations)
		}
		for p, committed := range res.CommittedByProc {
			if committed != int64(cfg.OpsPerProc) {
				t.Fatalf("seed %d: process %d committed %d of %d updates", seed, p, committed, cfg.OpsPerProc)
			}
		}
		if err := check.CheckTxns(res.History, cfg.K, txnInitial(cfg.K, cfg.W)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestTxnCrashedWriterNeverBlocks is the lock-freedom test: a process is
// crashed at an arbitrary step — including mid-commit, descriptor
// published and locks installed — and the survivors must (a) finish every
// one of their operations within the step budget, i.e. never block on the
// corpse, and (b) observe only conserved totals in their atomic
// snapshots, i.e. the dead transaction is applied exactly-once or
// not-at-all, never halfway.
func TestTxnCrashedWriterNeverBlocks(t *testing.T) {
	const (
		n, k, w    = 3, 4, 1
		opsPerProc = 4
		snapEvery  = 2
	)
	stride := 3
	if testing.Short() {
		stride = 17
	}
	for crashAt := 1; crashAt < 260; crashAt += stride {
		cfg := TxnConfig{
			N: n, K: k, W: w, OpsPerProc: opsPerProc, Span: 2,
			SnapEvery: snapEvery, Transfer: true,
			Seed:    int64(crashAt) * 31,
			Crashes: map[int]int{0: crashAt},
		}
		res, err := RunTxn(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("crash@%d: survivors did not make progress: %v", crashAt, res.Violations)
		}
		const updates = opsPerProc - opsPerProc/snapEvery
		for p := 1; p < n; p++ {
			if res.CommittedByProc[p] != updates {
				t.Fatalf("crash@%d: survivor %d committed %d of %d updates",
					crashAt, p, res.CommittedByProc[p], updates)
			}
		}
		// Transfers conserve the all-shards total (mod 2^64, starting at
		// 0): any snapshot that sums to anything else saw a torn commit.
		for _, op := range res.History {
			if op.Kind != check.TxnSnap {
				continue
			}
			var total uint64
			for _, v := range op.Old {
				var x uint64
				if _, err := fmt.Sscanf(v, "%x", &x); err != nil {
					t.Fatalf("crash@%d: unparseable snapshot value %q", crashAt, v)
				}
				total += x
			}
			if total != 0 {
				t.Fatalf("crash@%d: snapshot total %d != 0 — the crashed transaction was applied halfway:\n%v",
					crashAt, total, op)
			}
		}
	}
}

// TestTxnSnapshotFallbackStillAtomic forces snapshot pressure: with every
// process updating wide spans and snapshotting often, some snapshots take
// the descriptor fallback; all must still linearize (CheckTxns treats
// fallback and optimistic snapshots identically).
func TestTxnSnapshotFallbackStillAtomic(t *testing.T) {
	var fallbacks int64
	seeds := 30
	if testing.Short() {
		seeds = 10
	}
	for seed := 0; seed < seeds; seed++ {
		cfg := TxnConfig{
			N: 4, K: 3, W: 1, OpsPerProc: 5, Span: 3,
			SnapEvery: 2, Seed: int64(seed) + 1000,
		}
		res, err := RunTxn(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("seed %d: violations: %v", seed, res.Violations)
		}
		fallbacks += res.Fallbacks
		if err := check.CheckTxns(res.History, cfg.K, txnInitial(cfg.K, cfg.W)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	t.Logf("descriptor-path fallbacks across runs: %d (retries budget %d)", fallbacks, txn.SnapshotRetries)
}

// TestTxnDeterminism pins the reproducibility contract: identical configs
// yield identical histories, step counts, and final states.
func TestTxnDeterminism(t *testing.T) {
	cfg := TxnConfig{N: 3, K: 4, W: 2, OpsPerProc: 4, Span: 2, SnapEvery: 3, Seed: 7}
	a, err := RunTxn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTxn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Steps != b.Steps || len(a.History) != len(b.History) {
		t.Fatalf("nondeterministic: steps %d/%d, history %d/%d ops",
			a.Steps, b.Steps, len(a.History), len(b.History))
	}
	for i := range a.History {
		if a.History[i].String() != b.History[i].String() {
			t.Fatalf("histories diverge at op %d: %v vs %v", i, a.History[i], b.History[i])
		}
	}
	for i := range a.Final {
		for t2 := range a.Final[i] {
			if a.Final[i][t2] != b.Final[i][t2] {
				t.Fatalf("final states diverge at shard %d", i)
			}
		}
	}
}

// TestTxnShardsRead pins the simulated substrate's Read contract — VL
// honours its link, SC rejects it until the next LL — and checks that the
// engine's collects and snapshots reach it.
func TestTxnShardsRead(t *testing.T) {
	sched := NewSched(1, NewRandom(1), 1000, nil)
	s := NewTxnShards(sched, 1, 2, []uint64{3, 4})
	errs := sched.Run([]func(int){func(p int) {
		v := make([]uint64, 2)
		s.Sync(p)
		s.Read(p, 0, v)
		if v[0] != 3 || v[1] != 4 {
			t.Errorf("Read = %v, want [3 4]", v)
		}
		if !s.VL(p, 0) {
			t.Error("VL after Read = false, want true")
		}
		if s.SC(p, 0, []uint64{5, 5}) {
			t.Error("SC after Read succeeded, want failure until the next LL")
		}
		s.LL(p, 0, v)
		if !s.SC(p, 0, []uint64{5, 5}) {
			t.Error("SC after LL failed")
		}
	}})
	if len(errs) > 0 {
		t.Fatal(errs)
	}

	res, err := RunTxn(TxnConfig{N: 3, K: 4, W: 2, OpsPerProc: 5, Span: 2, SnapEvery: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Reads == 0 {
		t.Fatal("the engine never called TxnShards.Read")
	}
	if err := check.CheckTxns(res.History, 4, txnInitial(4, 2)); err != nil {
		t.Fatal(err)
	}
}
