package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a percentile for the
// sample to support it.
const minBeyond = 10

// tailLadder lists the percentiles a tail metric may fall back to, from
// the one it is named for down to the median.
var tailLadder = []float64{99, 95, 90, 75, 50}

// rank returns the 0-based nearest-rank index of percentile p in a
// sorted sample of n values.
func rank(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	return max(0, min(n-1, i))
}

// beyond returns how many of n sorted samples lie above percentile p.
func beyond(n int, p float64) int { return n - 1 - rank(n, p) }

// tailPercentile returns the highest percentile of the ladder, at most
// want, that has at least minBeyond samples above it in a sample of n,
// or 0 when even the median is unsupported.
func tailPercentile(n int, want float64) float64 {
	for _, p := range tailLadder {
		if p <= want && beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank percentile p of a sorted sample.
func percentile(sorted []uint32, p float64) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)]
}

// windowLatency is one op kind's latency over a run's windows: the
// median over windows of each window's median and tail.
type windowLatency struct {
	minN, maxN int       // smallest and largest window sample
	tailPct    float64   // the tail percentile, supported by every window (0 = unsupported)
	p50, tail  float64   // microseconds
	tails      []float64 // each window's tail, microseconds
}

// summarizeWindows sorts each window's nanosecond samples in place and
// returns the median over windows of their p50 and of their tail, the
// tail taken at the highest percentile up to p99 that the smallest
// window supports.
func summarizeWindows(windows [][]uint32) windowLatency {
	s := windowLatency{minN: -1}
	for _, ns := range windows {
		if s.minN < 0 || len(ns) < s.minN {
			s.minN = len(ns)
		}
		s.maxN = max(s.maxN, len(ns))
	}
	s.tailPct = tailPercentile(max(s.minN, 0), 99)
	if s.tailPct == 0 {
		return s
	}
	var p50s, tails []float64
	for _, ns := range windows {
		slices.Sort(ns)
		p50s = append(p50s, float64(percentile(ns, 50))/1e3)
		tails = append(tails, float64(percentile(ns, s.tailPct))/1e3)
	}
	s.p50, s.tail, s.tails = median(p50s), median(tails), tails
	return s
}

// median returns the median of xs (the mean of the middle two for an
// even count), sorting a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianInt64 returns the median of xs, sorting a copy.
func medianInt64(xs []int64) float64 {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return median(f)
}
