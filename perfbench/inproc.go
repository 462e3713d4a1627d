package main

import (
	"sync/atomic"
	"time"

	"mwllsc/internal/shard"
)

// inprocCaller is one goroutine of the in-process workload. It holds one
// map handle for the whole run. Its merge callbacks are bound once, so
// an op allocates nothing; when stamping, they record their entry and
// exit times, which split an Update into LL, merge and SC from outside.
type inprocCaller struct {
	wl      *workload
	h       *shard.MapHandle
	ops     []op
	shardOf func(uint64) int
	epoch   time.Time
	id      uint64
	traced  int32 // the phase whose ops are stamped
	rec     *callerRec

	d, d2    uint64
	keys     []uint64
	dst      []uint64
	stamping bool
	stamps   []int64
	addFn    func([]uint64)
	multiFn  func([][]uint64)
}

func newInprocCaller(wl *workload, h *shard.MapHandle, ops []op, shardOf func(uint64) int, epoch time.Time, id uint64, traced int32, rec *callerRec) *inprocCaller {
	g := &inprocCaller{wl: wl, h: h, ops: ops, shardOf: shardOf, epoch: epoch, id: id, traced: traced, rec: rec,
		keys: make([]uint64, 2), dst: make([]uint64, wl.w), stamps: make([]int64, 0, 64)}
	g.addFn, g.multiFn = g.add, g.multi
	return g
}

func (g *inprocCaller) now() int64 { return time.Since(g.epoch).Nanoseconds() }

func (g *inprocCaller) add(v []uint64) {
	if g.stamping {
		g.stamps = append(g.stamps, g.now())
	}
	for j := range v {
		v[j] += g.d + uint64(j)
	}
	if g.stamping {
		g.stamps = append(g.stamps, g.now())
	}
}

func (g *inprocCaller) multi(vals [][]uint64) {
	if g.stamping {
		g.stamps = append(g.stamps, g.now())
	}
	for j := range vals[0] {
		vals[0][j] += g.d + uint64(j)
		vals[1][j] += g.d2 + uint64(j)
	}
	if g.stamping {
		g.stamps = append(g.stamps, g.now())
	}
}

// do runs one op and returns the attempts it took (1 for a read).
func (g *inprocCaller) do(o *op) int {
	switch o.kind {
	case opRead:
		g.h.Read(o.key, g.dst)
		return 1
	case opAdd:
		g.d = o.d
		return g.h.Update(o.key, g.addFn)
	default:
		g.d, g.d2 = o.d, o.d2
		g.keys[0], g.keys[1] = o.key, o.key2
		return g.h.UpdateMulti(g.keys, g.multiFn)
	}
}

func (g *inprocCaller) run(ph *atomic.Int32) {
	rec := g.rec
	for i := 0; ; i++ {
		p := ph.Load()
		if p == phStop {
			return
		}
		o := &g.ops[i%len(g.ops)]
		switch {
		case p == g.traced:
			g.stamping = true
			g.stamps = g.stamps[:0]
			t0 := g.now()
			g.do(o)
			t1 := g.now()
			g.stamping = false
			rec.observe(p, o, nil, g.shardOf, g.wl.w)
			if i%g.wl.spanEvery == 0 && rec.keepSpans(g.wl.procs) {
				rec.addInprocSpans(g.id<<32|uint64(i), o.kind, t0, t1, g.stamps)
			}
		case p != phWarm && i%g.wl.sampleEvery == 0:
			t0 := time.Now()
			g.do(o)
			d := time.Since(t0)
			rec.observe(p, o, nil, g.shardOf, g.wl.w)
			rec.lat[p-1][o.kind] = append(rec.lat[p-1][o.kind], uint32(d))
		default:
			g.do(o)
			rec.observe(p, o, nil, g.shardOf, g.wl.w)
		}
	}
}

// inprocLayers names the intervals an in-process op's callback stamps
// delimit: before the first merge, between merges (a failed attempt),
// and after the last merge.
var inprocLayers = map[opKind][3]string{
	opAdd:   {"core.ll", "shard.retry", "core.sc"},
	opMulti: {"txn.collect", "txn.retry", "txn.commit"},
}

// addInprocSpans records one traced in-process op: the call as the root
// and, for updates, the intervals around each run of the merge callback.
func (rec *callerRec) addInprocSpans(opID uint64, kind opKind, t0, t1 int64, stamps []int64) {
	sp := opSpans{op: opID, kind: kind}
	root := sp.add(-1, "op", t0, t1)
	if names, ok := inprocLayers[kind]; ok && len(stamps) >= 2 {
		sp.add(root, names[0], t0, stamps[0])
		for i := 0; i+1 < len(stamps); i += 2 {
			if i > 0 {
				sp.add(root, names[1], stamps[i-1], stamps[i])
			}
			sp.add(root, "app.merge", stamps[i], stamps[i+1])
		}
		sp.add(root, names[2], stamps[len(stamps)-1], t1)
	}
	rec.spans = append(rec.spans, sp)
}
