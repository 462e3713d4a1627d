package main

import (
	"bufio"
	"fmt"
	"io"
	"slices"
)

// span is one timed interval the benchmark recorded around a call into
// a layer, or one interval a traced response echoed back. Spans of one
// op share op; a root span has parent -1. Times are nanoseconds since
// the run's epoch.
type span struct {
	op     uint64
	id     int32 // index within the op's spans
	parent int32
	layer  string
	start  int64
	end    int64
}

func (s span) dur() int64 { return s.end - s.start }

// opSpans builds the spans of one op: add returns the new span's id for
// use as a parent.
type opSpans struct {
	op    uint64
	kind  opKind
	spans []span
}

func (o *opSpans) add(parent int32, layer string, start, end int64) int32 {
	id := int32(len(o.spans))
	o.spans = append(o.spans, span{op: o.op, id: id, parent: parent, layer: layer, start: start, end: end})
	return id
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals
// (clipped to the parent). spans must be the spans of one op, with ids
// equal to their indexes.
func selfTimes(spans []span) []int64 {
	type iv struct{ lo, hi int64 }
	kids := make([][]iv, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			p := spans[s.parent]
			lo, hi := max(s.start, p.start), min(s.end, p.end)
			if lo < hi {
				kids[s.parent] = append(kids[s.parent], iv{lo, hi})
			}
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := kids[i]
		slices.SortFunc(ivs, func(a, b iv) int {
			switch {
			case a.lo < b.lo:
				return -1
			case a.lo > b.lo:
				return 1
			}
			return 0
		})
		var covered int64
		curLo, curHi := int64(0), int64(0)
		open := false
		for _, v := range ivs {
			if open && v.lo <= curHi {
				curHi = max(curHi, v.hi)
				continue
			}
			if open {
				covered += curHi - curLo
			}
			curLo, curHi, open = v.lo, v.hi, true
		}
		if open {
			covered += curHi - curLo
		}
		self[i] = s.dur() - covered
	}
	return self
}

// ladder is the self-time breakdown of a set of traced ops: for each
// layer, the self times of its spans (summed per op when an op holds
// several spans of one layer), and the root durations.
type ladder struct {
	layers []string           // in first-seen order
	self   map[string][]int64 // per layer, one entry per op that has it
	roots  []int64            // root span duration per op
}

func newLadder() *ladder { return &ladder{self: map[string][]int64{}} }

// addOp folds one op's spans into the ladder. The root's own self time
// is what no layer span explains; it is not a layer.
func (l *ladder) addOp(spans []span) {
	if len(spans) == 0 {
		return
	}
	self := selfTimes(spans)
	perLayer := map[string]int64{}
	for i, s := range spans {
		if s.parent < 0 {
			l.roots = append(l.roots, s.dur())
			continue
		}
		if _, seen := l.self[s.layer]; !seen {
			l.layers = append(l.layers, s.layer)
			l.self[s.layer] = nil
		}
		perLayer[s.layer] += self[i]
	}
	for layer, v := range perLayer {
		l.self[layer] = append(l.self[layer], v)
	}
}

// p50 returns a layer's median self time in nanoseconds over every op,
// counting 0 for an op without a span of that layer (a retry layer of an
// op that never retried).
func (l *ladder) p50(layer string) float64 {
	xs := make([]int64, len(l.roots))
	copy(xs, l.self[layer])
	return medianInt64(xs)
}

// unexplained returns 1 − Σ layer median self times / median root
// duration: the share of the typical op no layer span accounts for.
func (l *ladder) unexplained() float64 {
	root := medianInt64(l.roots)
	if root == 0 {
		return 0
	}
	var sum float64
	for _, layer := range l.layers {
		sum += l.p50(layer)
	}
	return 1 - sum/root
}

// writeLadder prints the ladder as a table: layer, ops having it, median
// self time, and share of the median root duration.
func writeLadder(w io.Writer, title string, l *ladder) {
	root := medianInt64(l.roots)
	fmt.Fprintf(w, "ladder %s: %d traced ops, median op %.0f ns\n", title, len(l.roots), root)
	for _, layer := range l.layers {
		p := l.p50(layer)
		share := 0.0
		if root > 0 {
			share = p / root
		}
		fmt.Fprintf(w, "  %-18s ops=%-8d self p50 %10.0f ns  %6.1f%%\n", layer, len(l.self[layer]), p, 100*share)
	}
	fmt.Fprintf(w, "  %-18s %24s %6.1f%%\n", "(unexplained)", "", 100*l.unexplained())
}

// writeSpans writes spans as tab-separated lines: op, id, parent, layer,
// start ns, end ns.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "op\tid\tparent\tlayer\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", s.op, s.id, s.parent, s.layer, s.start, s.end)
	}
	return bw.Flush()
}
