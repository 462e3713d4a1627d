// Command perfbench is the repository's benchmark. It runs one named
// workload against the serving stack (client, wire, server, shard map,
// the paper's LL/SC objects and, for served-durable, the log) or against
// the in-process sharded map, checks that the final state equals the
// sum of every acknowledged update, and prints its metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload served-mem --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced, times each layer's public functions
// directly, and prints the per-layer metrics. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. README.md in this directory is the metric catalog.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workRoot is where runs keep their scratch data and traces, relative
// to the directory the benchmark runs in.
const workRoot = ".bench_build/perfbench"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: served-mem, served-durable or inproc-contended")
		seed    = fs.Uint64("seed", 1, "seed of the generated op streams")
		seconds = fs.Int("seconds", 10, "measured seconds")
		traceN  = fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if *seconds < 1 || (*traceN != 0 && *traceN != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	workDir, err := os.MkdirTemp(workRoot, wl.name+"-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(workDir)
	env, err := stampEnv(workDir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		dur:     time.Duration(*seconds) * time.Second,
		trace:   *traceN == 1,
		nproc:   env.nproc,
		report:  stdout,
		workDir: workDir,
	}
	if cfg.trace {
		cfg.traceOut = filepath.Join(workRoot, "trace-"+wl.name+".tsv")
	}
	fmt.Fprintf(stdout, "env: %s\n", env)
	fmt.Fprintf(stdout, "workload: %s seed=%d seconds=%d trace=%d %s\n", wl.name, *seed, *seconds, *traceN, describe(wl, env.nproc))
	out, err := runWorkload(wl, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	defs := endToEndMetrics
	if cfg.trace {
		defs = perLayerMetrics
	}
	writeReport(stdout, defs, out.res)
	if out.reason != "" {
		fmt.Fprintf(stdout, "INCORRECT: %s\n", out.reason)
	}
	line, err := json.Marshal(out.res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.res.Correct {
		return 1
	}
	return 0
}

// describe is a one-line statement of a workload's shape.
func describe(wl *workload, nproc int) string {
	s := fmt.Sprintf("K=%d N=%d W=%d mix=read%d/add%d/multi%d", wl.k, wl.n, wl.w, wl.readPct, wl.addPct, wl.multiPct)
	if wl.served {
		s += fmt.Sprintf(" closed-loop conns=%d callers=%d maxbatch=%d", wl.connCount(nproc), wl.callers(nproc), maxBatch)
	} else {
		s += fmt.Sprintf(" closed-loop goroutines=%d", wl.procs)
	}
	if wl.durable {
		s += fmt.Sprintf(" fsync=always preload=%d records", wl.preload)
	}
	return s
}
