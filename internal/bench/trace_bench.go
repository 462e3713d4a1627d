package bench

import (
	"fmt"
	"runtime"

	"mwllsc/internal/server"
	"mwllsc/internal/shard"
	"mwllsc/internal/trace"
)

// E15TraceOverhead is the instrumentation-overhead experiment: the
// same closed-loop loopback load as E11, run against three server
// configurations per procs value —
//
//	idle:  the default server, as the daemon runs it — latency
//	       histograms and a tracer with sampling off; the E13 gate
//	       holds this configuration at zero allocations
//	1/64:  head sampling at -trace-sample 64, the suggested production
//	       setting; every 64th request pays the full span path
//	all:   -trace-sample 1, every request traced — the worst case,
//	       what a debugging session costs
//
// There is no uninstrumented arm: every server carries its histograms
// and tracer, and the batch stage clock that feeds both is read
// unconditionally. The sampled rows price what turning tracing up costs
// relative to idle; docs/OBSERVABILITY.md records the budget.
func E15TraceOverhead(o Options) (*Table, error) {
	o = o.withDefaults()
	const (
		k        = 16
		w        = 2
		maxBatch = 64
		conns    = 4
		perConn  = 8
	)

	t := &Table{
		ID: "e15",
		Title: fmt.Sprintf("E15: instrumentation overhead on the serving path (K=%d, W=%d, conns=%d, inflight=%d, %v/point)",
			k, w, conns, conns*perConn, o.Dur),
		Note: "closed-loop loopback Add load, as E11; idle = the default server (histograms on, tracer " +
			"sampling off), 1/64 = -trace-sample 64, all = every request traced.",
		Cols: []string{"procs", "trace", "ops/s", "p50 us", "p99 us", "spans/s"},
	}
	modes := []struct {
		label   string
		sampleN uint64
	}{
		{"idle", 0},
		{"1/64", 64},
		{"all", 1},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0)) // restore the ambient setting
	for _, procs := range o.Procs {
		runtime.GOMAXPROCS(procs)
		for _, mode := range modes {
			// A fresh server per point, as in E11: no cross-point state.
			err := func() error {
				m, err := shard.NewMap(k, conns+2, w)
				if err != nil {
					return err
				}
				tr := trace.New(trace.Config{SampleN: mode.sampleN})
				s := server.New(m, server.WithMaxBatch(maxBatch), server.WithTracer(tr))
				addr, err := s.Listen("127.0.0.1:0")
				if err != nil {
					return err
				}
				go s.Serve()
				defer s.Close()
				res, err := NetLoadClosedLoop(addr.String(), conns, conns*perConn, w, o.Dur, 0)
				if err != nil {
					return err
				}
				spansPerSec := 0.0
				if res.Ops > 0 {
					// Retired spans over the window, normalized the same way
					// as ops/s (the window dominates the elapsed time).
					spansPerSec = float64(tr.Stats().Retired) * res.OpsPerSec / float64(res.Ops)
				}
				t.AddRow(procs, mode.label, res.OpsPerSec,
					float64(res.P50.Nanoseconds())/1e3, float64(res.P99.Nanoseconds())/1e3,
					spansPerSec)
				return nil
			}()
			if err != nil {
				return nil, fmt.Errorf("E15 procs=%d trace=%s: %w", procs, mode.label, err)
			}
		}
	}
	return t, nil
}
