// Command llscbench regenerates the experiment tables E1-E16: the
// empirical counterparts of the paper's Theorem 1 claims (E1-E7), the
// scaling experiments for the sharded map and handle registry (E8-E9),
// the cross-shard transaction experiment (E10), the networked
// serving-layer load experiment (E11; cmd/llscload is its standalone
// load generator), the durability-cost experiment across fsync
// policies (E12), the hot-path allocation gate (E13, held at zero by
// cmd/llscgate in CI), the instrumentation-overhead experiment (E15:
// the always-on server with its tracer idle vs 1-in-64 sampling vs
// every request traced; it absorbed the former E14), and the
// overload-control experiment (E16: goodput under 2x open-loop offered
// load with admission control off vs on).
// docs/BENCHMARKS.md documents the methodology and the full catalog.
//
// Usage:
//
//	llscbench [-e e1,e3] [-impls jp,amstyle] [-dur 200ms] [-iters 50000] [-procs 1,4] [-csv] [-json out.json]
//
// With no -e flag every experiment runs. -procs sets the GOMAXPROCS
// sweep for the serving experiments E11/E12/E15 (default {1,4,8,16} capped
// at the machine's parallelism); values above NumCPU are allowed and
// the report's gomaxprocs/num_cpu stamps record the truth. Results
// print as plain-text tables. With -json PATH the run is also written
// as a machine-readable Report (internal/bench.Report) for archiving
// the BENCH_*.json perf trajectory and for cmd/llscgate's regression
// comparison; PATH "-" writes JSON to stdout and suppresses the text
// tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"mwllsc/internal/bench"
	"mwllsc/internal/impls"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("llscbench", flag.ContinueOnError)
	var (
		exps     = fs.String("e", "", "comma-separated experiments to run (e1..e16); empty = all")
		implList = fs.String("impls", "", "comma-separated implementations (default: all of "+strings.Join(impls.Names(), ",")+")")
		dur      = fs.Duration("dur", 150*time.Millisecond, "measurement window per throughput point")
		iters    = fs.Int("iters", 30000, "iterations per latency point")
		procList = fs.String("procs", "", "comma-separated GOMAXPROCS sweep for E11/E12/E15 (default: 1,4,8,16 capped at the machine)")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned tables (for plotting)")
		jsonOut  = fs.String("json", "", "also write a machine-readable JSON report to this path (\"-\" = stdout only)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	o := bench.Options{Dur: *dur, Iters: *iters}
	if *implList != "" {
		o.Impls = strings.Split(*implList, ",")
	}
	if *procList != "" {
		for _, p := range strings.Split(*procList, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "llscbench: bad -procs entry %q\n", p)
				return 2
			}
			o.Procs = append(o.Procs, n)
		}
	}

	builders := []struct {
		id    string
		build func(bench.Options) (*bench.Table, error)
	}{
		{"e1", bench.E1TimeComplexity},
		{"e2", bench.E2Space},
		{"e3", bench.E3Throughput},
		{"e4", bench.E4Helping},
		{"e5", bench.E5Substrate},
		{"e6", bench.E6Applications},
		{"e7", bench.E7Allocation},
		{"e8", bench.E8Sharding},
		{"e9", bench.E9Registry},
		{"e10", bench.E10Transactions},
		{"e11", bench.E11NetServing},
		{"e12", bench.E12Durability},
		{"e13", bench.E13Allocs},
		{"e15", bench.E15TraceOverhead},
		{"e16", bench.E16Overload},
	}

	want := map[string]bool{}
	if *exps != "" {
		for _, e := range strings.Split(*exps, ",") {
			want[strings.ToLower(strings.TrimSpace(e))] = true
		}
	}

	jsonOnly := *jsonOut == "-"
	var tables []*bench.Table
	for _, b := range builders {
		if len(want) > 0 && !want[b.id] {
			continue
		}
		t, err := b.build(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "llscbench: %s: %v\n", b.id, err)
			return 1
		}
		if t.ID == "" {
			t.ID = b.id
		}
		if !jsonOnly {
			if *csv {
				t.FprintCSV(os.Stdout)
			} else {
				t.Fprint(os.Stdout)
			}
		}
		tables = append(tables, t)
	}
	if len(tables) == 0 {
		fmt.Fprintf(os.Stderr, "llscbench: no experiment matched %q\n", *exps)
		return 2
	}
	if *jsonOut != "" {
		report := bench.NewReport(tables)
		out := os.Stdout
		if !jsonOnly {
			f, err := os.Create(*jsonOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "llscbench: %v\n", err)
				return 1
			}
			defer f.Close()
			out = f
		}
		if err := report.WriteJSON(out); err != nil {
			fmt.Fprintf(os.Stderr, "llscbench: writing JSON report: %v\n", err)
			return 1
		}
	}
	return 0
}
