package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef declares a metric's name and unit; endToEnd metrics come
// from an untraced run, the rest from a traced one. BENCHMARK.json
// lists the same names (a test checks it).
type metricDef struct {
	name, unit string
}

var endToEndMetrics = []metricDef{
	{"throughput_ops_s", "ops/s"},
	{"update_p50_us", "us"}, {"update_p99_us", "us"},
	{"read_p50_us", "us"}, {"read_p99_us", "us"},
	{"multi_p50_us", "us"}, {"multi_p99_us", "us"},
	{"cpu_us_per_op", "us"},
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
}

var perLayerMetrics = []metricDef{
	{"failed_frac", "frac"},
	{"client.queue_wait_p50_us", "us"}, {"client.wire_p50_us", "us"},
	{"client.retries_per_op", "ratio"}, {"client.reconnects", "count"},
	{"wire.encode_ns_per_op", "ns"}, {"wire.decode_ns_per_op", "ns"}, {"wire.bytes_per_op", "bytes"},
	{"server.avg_batch", "reqs"}, {"server.service_p99_us", "us"}, {"server.bad_req_frac", "frac"},
	{"server.decode_p50_us", "us"}, {"server.queue_p50_us", "us"},
	{"server.acquire_p50_us", "us"}, {"server.execute_p50_us", "us"},
	{"shard.acquire_ns", "ns"}, {"shard.acquire_wait_frac", "frac"},
	{"shard.update_ns", "ns"}, {"shard.read_ns", "ns"}, {"shard.attempts_per_update", "ratio"},
	{"txn.update_multi_ns", "ns"}, {"txn.retries_per_commit", "ratio"}, {"txn.helps_per_commit", "ratio"},
	{"core.ll_ns", "ns"}, {"core.sc_ns", "ns"}, {"core.vl_ns", "ns"},
	{"core.sc_success_frac", "frac"}, {"core.ll_helped_frac", "frac"},
	{"persist.append_us", "us"}, {"persist.sync_us", "us"},
	{"persist.server_persist_p50_us", "us"}, {"persist.server_fsync_p50_us", "us"},
	{"persist.fsync_p99_us", "us"}, {"persist.updates_per_sync", "ratio"},
	{"persist.bytes_per_record", "bytes"}, {"persist.storage_bytes_per_user_byte", "ratio"},
	{"persist.recovery_s", "s"},
	{"runtime.allocs_per_op", "count"}, {"runtime.gc_cpu_frac", "frac"}, {"runtime.sys_cpu_frac", "frac"},
	{"ladder.unexplained_frac", "frac"}, {"trace.overhead_frac", "frac"},
}

// maxSpanOpsWritten bounds the caller ops whose spans the trace file
// holds; the ladder uses every recorded op.
const maxSpanOpsWritten = 5000

// assemble turns a finished run into its result: end-to-end metrics for
// an untraced run, per-layer metrics for a traced one.
func assemble(wl *workload, cfg runConfig, recs []*callerRec, snaps []snapshot, setups []float64,
	rungs rungResults, rr *rungRecorder, reason string) (outcome, error) {
	n := cfg.windows()
	ok, failed := make([]int64, n), make([]int64, n)
	lat := make([][numKinds][]uint32, n)
	var updatesOK, userWords int64
	var firstErr error
	for _, rec := range recs {
		for i := 0; i < n; i++ {
			ok[i] += rec.ok[i]
			failed[i] += rec.failed[i]
			for k := range lat[i] {
				lat[i][k] = append(lat[i][k], rec.lat[i][k]...)
			}
		}
		updatesOK += rec.updatesOK
		userWords += rec.userWords
		if firstErr == nil {
			firstErr = rec.err
		}
	}
	if firstErr != nil {
		fmt.Fprintf(cfg.report, "first op error: %v\n", firstErr)
	}
	out := outcome{res: result{Correct: reason == ""}, reason: reason}
	var tputs, cpus []float64
	for i := 0; i < n; i++ {
		if ok[i] == 0 {
			return outcome{}, fmt.Errorf("no op succeeded in window %d (first error: %v)", i, firstErr)
		}
		out.res.Attempted += ok[i] + failed[i]
		out.res.Failed += failed[i]
		d := snaps[i].u.to(snaps[i+1].u)
		tputs = append(tputs, float64(ok[i])/d.wall.Seconds())
		cpus = append(cpus, float64(d.cpu.Nanoseconds())/1e3/float64(ok[i]))
	}
	vals := map[string]float64{}

	if !cfg.trace {
		vals["throughput_ops_s"] = median(tputs)
		vals["cpu_us_per_op"] = median(cpus)
		for k := opKind(0); k < numKinds; k++ {
			windows := make([][]uint32, n)
			for i := range windows {
				windows[i] = lat[i][k]
			}
			s := summarizeWindows(windows)
			if s.tailPct == 0 {
				return outcome{}, fmt.Errorf("a window with %d %s samples cannot support a median and tail", s.minN, kindNames[k])
			}
			vals[kindNames[k]+"_p50_us"] = s.p50
			vals[kindNames[k]+"_p99_us"] = s.tail
			fmt.Fprintf(cfg.report, "latency %-6s p50=%.2fus p%g=%.2fus (median of %d windows of %d..%d samples; >=%d beyond the tail in each)\n",
				kindNames[k], s.p50, s.tailPct, s.tail, n, s.minN, s.maxN, beyond(s.minN, s.tailPct))
			fmt.Fprintf(cfg.report, "  %s p%g per window: %.1f us\n", kindNames[k], s.tailPct, s.tails)
			if s.tailPct < 99 {
				fmt.Fprintf(cfg.report, "note: %s_p99_us reports p%g, the highest percentile %d samples support\n",
					kindNames[k], s.tailPct, s.minN)
			}
		}
		fmt.Fprintf(cfg.report, "throughput per window: %.0f ops/s\n", tputs)
		vals["setup_s"] = median(setups)
		vals["peak_rss_mib"] = float64(takeUsage().maxRSS) / 1024
		fmt.Fprintf(cfg.report, "setup: %d set-ups, min %.6fs median %.6fs max %.6fs\n",
			len(setups), slices.Min(setups), median(setups), slices.Max(setups))
		out.res.Metrics = pick(endToEndMetrics, vals)
		return out, nil
	}

	w0 := snaps[0].u.to(snaps[1].u)
	tput0, tput1 := tputs[0], tputs[1]
	ladders := map[opKind]*ladder{}
	var written []span
	writtenOps := 0
	for _, rec := range recs {
		for _, sp := range rec.spans {
			if ladders[sp.kind] == nil {
				ladders[sp.kind] = newLadder()
			}
			ladders[sp.kind].addOp(sp.spans)
			if writtenOps < maxSpanOpsWritten {
				written = append(written, sp.spans...)
				writtenOps++
			}
		}
	}
	for _, sp := range rr.spans {
		written = append(written, sp.spans...)
	}
	upd := ladders[opAdd]
	if upd == nil {
		upd = newLadder()
	}
	for k := opKind(0); k < numKinds; k++ {
		if l := ladders[k]; l != nil {
			writeLadder(cfg.report, kindNames[k], l)
		}
	}

	s0, s1 := snaps[0], snaps[1]
	dReqs := float64(s1.srv.Reqs - s0.srv.Reqs)
	attempted0 := float64(ok[0] + failed[0])
	vals["failed_frac"] = float64(out.res.Failed) / float64(out.res.Attempted)
	vals["client.queue_wait_p50_us"] = upd.p50("client.queue") / 1e3
	vals["client.wire_p50_us"] = upd.p50("client.wire") / 1e3
	vals["client.retries_per_op"] = ratio(float64(s1.retries-s0.retries), attempted0)
	vals["client.reconnects"] = float64(snaps[2].reconnects - s0.reconnects)
	vals["wire.encode_ns_per_op"] = rungs.wireEncNS
	vals["wire.decode_ns_per_op"] = rungs.wireDecNS
	vals["wire.bytes_per_op"] = rungs.wireBytes
	vals["server.avg_batch"] = ratio(dReqs, float64(s1.srv.Batches-s0.srv.Batches))
	vals["server.service_p99_us"] = float64(s1.srv.LatP99) / 1e3
	vals["server.bad_req_frac"] = ratio(float64(s1.srv.BadReqs-s0.srv.BadReqs), dReqs)
	for _, st := range []string{"decode", "queue", "acquire", "execute"} {
		vals["server."+st+"_p50_us"] = upd.p50("server."+st) / 1e3
	}
	vals["shard.acquire_ns"] = rungs.acquireNS
	vals["shard.acquire_wait_frac"] = ratio(float64(s1.reg.Waited-s0.reg.Waited), float64(s1.reg.Acquires-s0.reg.Acquires))
	vals["shard.update_ns"] = rungs.updateNS
	vals["shard.read_ns"] = rungs.readNS
	vals["shard.attempts_per_update"] = rungs.attemptsPerUpdate
	vals["txn.update_multi_ns"] = rungs.multiNS
	vals["txn.retries_per_commit"] = rungs.retriesPerCommit
	vals["txn.helps_per_commit"] = rungs.helpsPerCommit
	vals["core.ll_ns"] = rungs.llNS
	vals["core.sc_ns"] = rungs.scNS
	vals["core.vl_ns"] = rungs.vlNS
	vals["core.sc_success_frac"] = rungs.scSuccessFrac
	vals["core.ll_helped_frac"] = rungs.llHelpedFrac
	vals["persist.append_us"] = rungs.appendUS
	vals["persist.sync_us"] = rungs.syncUS
	vals["persist.server_persist_p50_us"] = upd.p50("server.persist") / 1e3
	vals["persist.server_fsync_p50_us"] = upd.p50("server.fsync") / 1e3
	vals["persist.fsync_p99_us"] = float64(s1.srv.FsyncP99) / 1e3
	vals["persist.updates_per_sync"] = ratio(float64(updatesOK), float64(s1.st.Syncs-s0.st.Syncs))
	// Log bytes per record and per user byte come from the workload's own
	// log when it has one, else from the persist rung's recovery log.
	if dBytes := float64(s1.st.Bytes - s0.st.Bytes); wl.durable {
		vals["persist.bytes_per_record"] = ratio(dBytes, float64(s1.st.Records-s0.st.Records))
		vals["persist.storage_bytes_per_user_byte"] = ratio(dBytes, float64(8*userWords))
	} else {
		vals["persist.bytes_per_record"] = rungs.logBytesPerRecord
		vals["persist.storage_bytes_per_user_byte"] = rungs.logBytesPerRecord / float64(8*wl.w)
	}
	vals["persist.recovery_s"] = rungs.recoveryS
	vals["runtime.allocs_per_op"] = float64(w0.allocs) / float64(ok[0])
	vals["runtime.gc_cpu_frac"] = w0.gcCPUFrac
	vals["runtime.sys_cpu_frac"] = ratio(float64(w0.sys), float64(w0.cpu))
	vals["ladder.unexplained_frac"] = upd.unexplained()
	vals["trace.overhead_frac"] = 1 - tput1/tput0
	fmt.Fprintf(cfg.report, "traced vs untraced throughput: %.0f vs %.0f ops/s\n", tput1, tput0)
	out.res.Metrics = pick(perLayerMetrics, vals)

	if cfg.traceOut != "" {
		if err := writeSpansFile(cfg.traceOut, written); err != nil {
			return outcome{}, err
		}
		fmt.Fprintf(cfg.report, "spans: %d written to %s\n", len(written), cfg.traceOut)
	}
	return out, nil
}

// pick returns the declared metrics from vals, in declaration order; a
// value that is not a finite number panics, since only a bug makes one.
func pick(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("perfbench: metric %s has no finite value (%v)", d.name, v))
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

func writeSpansFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeReport prints every metric of a result, one per line.
func writeReport(w io.Writer, defs []metricDef, res result) {
	for _, d := range defs {
		if m, ok := res.Metrics[d.name]; ok {
			fmt.Fprintf(w, "%-38s %14.6g %s\n", d.name, m.Value, m.Unit)
		}
	}
}
