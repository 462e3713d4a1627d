package server

import (
	"runtime"

	"mwllsc/internal/shard"
	"mwllsc/internal/wire"
)

// HotPathAllocs reports the steady-state heap allocations per request of
// the server's batch-execute path, for Read and for Update — the number
// the E13 allocation gate (internal/bench, cmd/llscgate) tracks across
// PRs, and it must be zero: the recycled batch units and decode
// buffers, the reacquirable map handle and the pre-bound merge closures
// exist precisely so that serving a request costs no allocation.
//
// It drives executeBatch and the writer handoff directly with
// pre-decoded batches rather than through a TCP connection:
// internal/bench cannot reach the unexported execute machinery, and a
// socket would fold goroutine wakeups and bufio into a measurement
// whose entire point is an exact zero for the execute path alone (the
// wire encode/decode halves are measured separately by E13's wire rows).
func HotPathAllocs(runs int) (readAllocs, updateAllocs float64, err error) {
	const (
		k      = 4
		w      = 2
		batchN = 8
	)
	m, err := shard.NewMap(k, 2, w)
	if err != nil {
		return 0, 0, err
	}
	// New's default metrics and idle tracer, admission control enabled:
	// the zero-allocs gate must hold with the full observability stack
	// running and the overload controls armed, or those layers would
	// quietly exempt themselves from the discipline they exist to watch.
	// (The token is a non-blocking channel send per batch — the gate
	// proves it stays free.)
	s := New(m, WithMaxInflight(4))
	cs := s.newConnState()

	args := []uint64{1, 2}
	mkBatch := func(op wire.Op) {
		cs.batch = cs.batch[:0]
		for i := 0; i < batchN; i++ {
			key := uint64(i) * 977
			br := batchReq{req: wire.Request{ID: uint64(i), Op: op, Key: key}}
			if op == wire.OpUpdate {
				br.req.Mode = wire.ModeAdd
				br.req.Args = args
			}
			cs.batch = append(cs.batch, br)
		}
	}
	measure := func(op wire.Op) float64 {
		mkBatch(op)
		for i := 0; i < outUnits; i++ {
			s.execRound(cs) // warm every unit, the handle and the data buffers
		}
		return allocsPerRun(runs, func() { s.execRound(cs) }) / batchN
	}
	readAllocs = measure(wire.OpRead)
	updateAllocs = measure(wire.OpUpdate)
	return readAllocs, updateAllocs, nil
}

// execRound executes cs's gathered batch through the connection
// handoff — take a unit, execute, emit — and plays the writer's part
// minus the encode and write: it finishes and retires the unit's spans
// as if just flushed and recycles the unit.
func (s *Server) execRound(cs *connState) {
	cs.unit = <-cs.free
	s.executeBatch(cs)
	u := <-cs.out
	s.finishSpans(u.spans, false)
	cs.recycle(u)
}

// allocsPerRun mirrors testing.AllocsPerRun for non-test binaries (the
// same helper internal/bench keeps for E7; duplicated here because bench
// imports this package): average heap allocations per call to f over
// runs calls, with the world pinned to one proc.
func allocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warmup
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}
