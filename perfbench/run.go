package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mwllsc/internal/persist"
	"mwllsc/internal/shard"
	"mwllsc/internal/wire"
)

// A run moves its callers through phases: a warm-up, then its windows
// (phase i+1 is window i), then stop. An untraced run measures
// measureWindows windows and reports the median over them; a traced run
// measures one untraced window and one traced window. Only ops that
// start in a window count towards the run's metrics; every acknowledged
// update counts towards the correctness check.
const (
	phWarm int32 = 0
	phStop int32 = -1

	measureWindows = 10
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed     uint64
	dur      time.Duration // measured time, all windows together
	trace    bool
	workDir  string    // scratch directory, owned by the caller
	nproc    int       // CPUs available
	report   io.Writer // human-readable report
	traceOut string    // traced runs write their spans here ("" = nowhere)
}

// warmup returns the untimed lead-in before the first window.
func (cfg runConfig) warmup() time.Duration { return min(time.Second, cfg.dur/5) }

// windows returns the number of measured windows.
func (cfg runConfig) windows() int {
	if cfg.trace {
		return 2
	}
	return measureWindows
}

// tracedPhase returns the phase whose calls are traced, or phStop when
// none is.
func (cfg runConfig) tracedPhase() int32 {
	if cfg.trace {
		return 2
	}
	return phStop
}

// callerRec is what one caller observed, per window. Only its own
// goroutine writes it, and it is read after drive has waited for that
// goroutine.
type callerRec struct {
	lat        [][numKinds][]uint32 // untraced windows' latencies, ns
	ok, failed []int64
	updatesOK  int64     // acked updates, window 0
	userWords  int64     // argument words of those updates
	acked      *sums     // every acked update, every phase
	spans      []opSpans // traced window, every spanEvery-th op
	err        error     // first failure
}

// maxSpanOps bounds the traced ops whose spans a run keeps, split
// evenly over the callers.
const maxSpanOps = 200000

// keepSpans reports whether the caller may keep one more op's spans.
func (rec *callerRec) keepSpans(callers int) bool { return len(rec.spans) < maxSpanOps/callers }

func newCallerRec(wl *workload, windows int) *callerRec {
	return &callerRec{
		lat:    make([][numKinds][]uint32, windows),
		ok:     make([]int64, windows),
		failed: make([]int64, windows),
		acked:  newSums(wl.k, wl.w),
	}
}

// observe counts one op that finished in phase p and reports whether
// it succeeded.
func (rec *callerRec) observe(p int32, o *op, err error, shardOf func(uint64) int, w int) bool {
	win := int(p) - 1
	if err != nil {
		if win >= 0 {
			rec.failed[win]++
		}
		if rec.err == nil {
			rec.err = err
		}
		return false
	}
	if o.kind != opRead {
		rec.acked.add(o, shardOf)
	}
	if win >= 0 {
		rec.ok[win]++
	}
	if win == 0 && o.kind != opRead {
		rec.updatesOK++
		rec.userWords += int64(w)
		if o.kind == opMulti {
			rec.userWords += int64(w)
		}
	}
	return true
}

// snapshot is the counters read at a window boundary.
type snapshot struct {
	u                   usage
	srv                 wire.ServerStats
	st                  persist.Stats
	reg                 shard.RegistryStats
	retries, reconnects uint64
}

// drive starts one goroutine per caller, steps the phases, stops the
// callers and waits for them. It returns the snapshots taken at the
// window boundaries: snaps[i] and snaps[i+1] bracket window i.
func drive(cfg runConfig, callers []func(*atomic.Int32), snap func() snapshot) []snapshot {
	var ph atomic.Int32
	var wg sync.WaitGroup
	for _, run := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(&ph)
		}()
	}
	n := cfg.windows()
	window := cfg.dur / time.Duration(n)
	time.Sleep(cfg.warmup())
	var snaps []snapshot
	for i := 1; i <= n; i++ {
		ph.Store(int32(i))
		snaps = append(snaps, snap())
		time.Sleep(window)
	}
	ph.Store(phStop)
	snaps = append(snaps, snap())
	wg.Wait()
	return snaps
}

// outcome is a finished run: its result and, when incorrect, why.
type outcome struct {
	res    result
	reason string // why the run is incorrect, "" when correct
}

// runWorkload runs wl once and assembles its result.
func runWorkload(wl *workload, cfg runConfig) (outcome, error) {
	shardOf, err := shardIndexer(wl.k)
	if err != nil {
		return outcome{}, err
	}
	callers := wl.callers(cfg.nproc)
	streams := genStreams(wl, cfg.seed, callers, shardOf)
	expected := newSums(wl.k, wl.w)
	reps := wl.setupReps
	if cfg.trace {
		reps = 1
	}
	if wl.served {
		return runServed(wl, cfg, streams, shardOf, expected, reps)
	}
	return runInproc(wl, cfg, streams, shardOf, expected, reps)
}

// startSetups collects the heap before the set-ups, so that a
// collection the input generation left due does not land in one run's
// set-ups only.
func startSetups() { runtime.GC() }

func runServed(wl *workload, cfg runConfig, streams [][]op, shardOf func(uint64) int, expected *sums, reps int) (outcome, error) {
	preloadDir := filepath.Join(cfg.workDir, "preload")
	if wl.durable {
		pre := genAdds(wl, cfg.seed, wl.preload, shardOf)
		if _, err := writePreload(preloadDir, wl, pre, shardOf); err != nil {
			return outcome{}, fmt.Errorf("writing preload: %w", err)
		}
		for i := range pre {
			expected.add(&pre[i], shardOf)
		}
	}
	conns := wl.connCount(cfg.nproc)
	startSetups()
	var rig *servedRig
	var setups, recoveries []float64
	var dataDir string
	for i := 0; i < reps; i++ {
		dataDir = filepath.Join(cfg.workDir, fmt.Sprintf("data-%d", i))
		if wl.durable {
			if err := copyDir(preloadDir, dataDir); err != nil {
				return outcome{}, err
			}
		}
		t0 := time.Now()
		r, rec, err := openServed(wl, dataDir, conns)
		if err != nil {
			return outcome{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		recoveries = append(recoveries, rec.Seconds())
		if i < reps-1 {
			if err := r.close(); err != nil {
				return outcome{}, err
			}
			if err := os.RemoveAll(dataDir); err != nil {
				return outcome{}, err
			}
			continue
		}
		rig = r
	}
	defer rig.close()
	if wl.durable {
		fmt.Fprintf(cfg.report, "setup: recovering %d preloaded records took a median %.6fs\n", wl.preload, median(recoveries))
	}

	epoch := time.Now()
	recs := make([]*callerRec, len(streams))
	runs := make([]func(*atomic.Int32), len(streams))
	for c := range streams {
		recs[c] = newCallerRec(wl, cfg.windows())
		sc := &servedCaller{wl: wl, c: rig.c, ops: streams[c], shardOf: shardOf, epoch: epoch, id: uint64(c),
			traced: cfg.tracedPhase(), callers: len(streams), rec: recs[c]}
		runs[c] = sc.run
	}
	snaps := drive(cfg, runs, rig.snap)

	var rungs rungResults
	rr := &rungRecorder{epoch: epoch}
	if cfg.trace {
		var err error
		if rungs, err = runRungs(wl, cfg.seed, streams, shardOf, min(wl.n, cfg.nproc), cfg.workDir, rr); err != nil {
			return outcome{}, err
		}
	}

	// Correctness: the live state must equal the preload plus every acked
	// update; a durable store, closed cleanly and reopened, must recover
	// exactly that state.
	for _, rec := range recs {
		expected.merge(rec.acked)
	}
	live := rig.m.NewSnapshotBuffer()
	rig.m.Snapshot(live)
	reason := expected.diff(live)
	if reason != "" {
		reason = "live state: " + reason
	}
	if err := rig.close(); err != nil {
		return outcome{}, fmt.Errorf("closing: %w", err)
	}
	if wl.durable && reason == "" {
		m2, err := shard.NewMap(wl.k, 1, wl.w)
		if err != nil {
			return outcome{}, err
		}
		st2, _, err := persist.Open(dataDir, m2, persist.Options{Policy: persist.SyncAlways})
		if err != nil {
			return outcome{}, fmt.Errorf("reopening: %w", err)
		}
		got := m2.NewSnapshotBuffer()
		m2.Snapshot(got)
		if err := st2.Close(); err != nil {
			return outcome{}, err
		}
		if d := expected.diff(got); d != "" {
			reason = "recovered state: " + d
		}
	}
	return assemble(wl, cfg, recs, snaps, setups, rungs, rr, reason)
}

func runInproc(wl *workload, cfg runConfig, streams [][]op, shardOf func(uint64) int, expected *sums, reps int) (outcome, error) {
	var m *shard.Map
	var handles []*shard.MapHandle
	var setups []float64
	dst := make([]uint64, wl.w)
	startSetups()
	for i := 0; i < reps; i++ {
		for _, h := range handles {
			h.Release()
		}
		t0 := time.Now()
		var err error
		if m, err = shard.NewMap(wl.k, wl.n, wl.w); err != nil {
			return outcome{}, err
		}
		handles = handles[:0]
		for range streams {
			handles = append(handles, m.Acquire())
		}
		handles[0].Read(0, dst)
		setups = append(setups, time.Since(t0).Seconds())
	}

	epoch := time.Now()
	recs := make([]*callerRec, len(streams))
	runs := make([]func(*atomic.Int32), len(streams))
	for c := range streams {
		recs[c] = newCallerRec(wl, cfg.windows())
		runs[c] = newInprocCaller(wl, handles[c], streams[c], shardOf, epoch, uint64(c), cfg.tracedPhase(), recs[c]).run
	}
	snap := func() snapshot { return snapshot{u: takeUsage(), reg: m.Registry().Stats()} }
	snaps := drive(cfg, runs, snap)
	for _, h := range handles {
		h.Release()
	}

	var rungs rungResults
	rr := &rungRecorder{epoch: epoch}
	if cfg.trace {
		var err error
		if rungs, err = runRungs(wl, cfg.seed, streams, shardOf, min(wl.n, cfg.nproc), cfg.workDir, rr); err != nil {
			return outcome{}, err
		}
	}

	for _, rec := range recs {
		expected.merge(rec.acked)
	}
	live := m.NewSnapshotBuffer()
	m.Snapshot(live)
	reason := expected.diff(live)
	if reason != "" {
		reason = "live state: " + reason
	}
	return assemble(wl, cfg, recs, snaps, setups, rungs, rr, reason)
}
