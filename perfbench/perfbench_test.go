package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{10, 0},    // even the median has only 4 above it
		{21, 50},   // 10 above the median
		{40, 75},   // 10 above p75
		{200, 95},  // 10 above p95
		{999, 95},  // 9 above p99: not enough
		{1000, 99}, // exactly 10 above p99
		{1e6, 99},  // never past the named percentile
	} {
		got := tailPercentile(tc.n, 99)
		if got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
		if got > 0 && beyond(tc.n, got) < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond", tc.n, got, beyond(tc.n, got))
		}
	}
}

func TestSummarizeWindowsTakesMedianOverWindows(t *testing.T) {
	window := func(scale uint32) []uint32 {
		ns := make([]uint32, 1000)
		for i := range ns {
			ns[i] = scale * uint32(1000-i) // 1..1000 × scale, unsorted
		}
		return ns
	}
	s := summarizeWindows([][]uint32{window(1000), window(3000), window(2000)})
	if s.tailPct != 99 || s.minN != 1000 || s.maxN != 1000 {
		t.Fatalf("got %+v", s)
	}
	// Window medians are 500, 1000 and 1500 µs; tails 990, 1980, 2970 µs.
	if s.p50 != 1000 || s.tail != 1980 {
		t.Fatalf("p50=%g tail=%g, want 1000 and 1980", s.p50, s.tail)
	}
	if s := summarizeWindows([][]uint32{window(1), make([]uint32, 5)}); s.tailPct != 0 {
		t.Fatalf("a 5-sample window supports p%g", s.tailPct)
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	var sp opSpans
	root := sp.add(-1, "op", 0, 100)
	a := sp.add(root, "a", 10, 30)
	sp.add(root, "b", 20, 50) // overlaps a: the union 10..50 counts once
	sp.add(root, "c", 60, 70)
	sp.add(root, "d", 95, 120) // clipped to the parent's end
	sp.add(a, "a1", 12, 18)
	self := selfTimes(sp.spans)
	want := []int64{100 - 40 - 10 - 5, 20 - 6, 30, 10, 25, 6}
	if !slices.Equal(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
}

func TestLadderCountsMissingLayersAsZero(t *testing.T) {
	l := newLadder()
	for i := int64(0); i < 3; i++ {
		var sp opSpans
		root := sp.add(-1, "op", 0, 100)
		sp.add(root, "work", 0, 80)
		if i == 0 {
			sp.add(root, "retry", 80, 100) // one op in three retries
		}
		l.addOp(sp.spans)
	}
	if got := l.p50("retry"); got != 0 {
		t.Fatalf("retry p50 = %g, want 0", got)
	}
	if got := l.unexplained(); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("unexplained = %g, want 0.2", got)
	}
}

func TestOpStreamsDependOnlyOnSeed(t *testing.T) {
	for _, wl := range workloads {
		shardOf, err := shardIndexer(wl.k)
		if err != nil {
			t.Fatal(err)
		}
		a := genStreams(wl, 7, 3, shardOf)
		b := genStreams(wl, 7, 3, shardOf)
		c := genStreams(wl, 8, 3, shardOf)
		for i := range a {
			if !slices.Equal(a[i], b[i]) {
				t.Fatalf("%s: stream %d differs between two generations with one seed", wl.name, i)
			}
			if slices.Equal(a[i], c[i]) {
				t.Fatalf("%s: stream %d is the same for seeds 7 and 8", wl.name, i)
			}
		}
		if slices.Equal(a[0], a[1]) {
			t.Fatalf("%s: two callers got the same stream", wl.name)
		}
		var counts [numKinds]int
		for _, o := range a[0] {
			counts[o.kind]++
			if o.kind == opMulti && shardOf(o.key) == shardOf(o.key2) {
				t.Fatalf("%s: multi op keys share shard %d", wl.name, shardOf(o.key))
			}
		}
		for k, pct := range []int{wl.readPct, wl.addPct, wl.multiPct} {
			if got := 100 * float64(counts[k]) / ringLen; math.Abs(got-float64(pct)) > 3 {
				t.Errorf("%s: %s share %.1f%%, want about %d%%", wl.name, kindNames[k], got, pct)
			}
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// the correctness verdict and that every declared metric is present.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 1, dur: time.Second, trace: traced, workDir: t.TempDir(),
				nproc: 2, report: io.Discard}
			out, err := runWorkload(wl, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, traced, err)
			}
			if !out.res.Correct || out.res.Failed != 0 || out.res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d (%s)", wl.name, traced,
					out.res.Correct, out.res.Attempted, out.res.Failed, out.reason)
			}
			defs := endToEndMetrics
			if traced {
				defs = perLayerMetrics
			}
			if len(out.res.Metrics) != len(defs) {
				t.Fatalf("%s trace=%v: %d metrics, want %d", wl.name, traced, len(out.res.Metrics), len(defs))
			}
			for _, d := range defs {
				m := out.res.Metrics[d.name]
				if m.Unit != d.unit || (!traced && m.Value <= 0) {
					t.Errorf("%s trace=%v: %s = %v %s", wl.name, traced, d.name, m.Value, m.Unit)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json at the repository
// root declares exactly the metrics this program prints and gates only
// workloads it runs, with their reasons.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		wl, err := workloadByName(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		if w.Why != wl.why {
			t.Errorf("%s: BENCHMARK.json gives why %q, the program %q", w.Name, w.Why, wl.why)
		}
	}
	for _, wl := range workloads {
		if len(wl.why) > 200 {
			t.Errorf("%s: why has %d characters, over 200", wl.name, len(wl.why))
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s %s, the program %s %s",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}
