package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mwllsc"
	"mwllsc/internal/persist"
	"mwllsc/internal/shard"
	"mwllsc/internal/wire"
)

// The direct rungs call one layer's public functions in a loop, outside
// any serving path, with the workload's geometry and op keys. Each rung
// runs rounds of roundCalls calls for about rungBudget (at most
// maxRounds rounds) and reports the median per-call time over its
// rounds; every round is a span under the rung's root span.
const (
	roundCalls = 256
	rungBudget = 150 * time.Millisecond
	minRounds  = 5
	maxRounds  = 1000
)

// rungRecorder collects the spans of the direct rungs.
type rungRecorder struct {
	mu    sync.Mutex
	epoch time.Time
	next  uint64
	spans []opSpans
}

func (rr *rungRecorder) now() int64 { return time.Since(rr.epoch).Nanoseconds() }

// rung times rounds of calls to one layer function and records each
// round as a span. Each goroutine of a parallel rung uses its own.
type rung struct {
	rr   *rungRecorder
	sp   opSpans
	root int32
}

func (rr *rungRecorder) start(name string) *rung {
	rr.mu.Lock()
	id := rr.next
	rr.next++
	rr.mu.Unlock()
	r := &rung{rr: rr, sp: opSpans{op: 1<<63 | id}}
	r.root = r.sp.add(-1, name, rr.now(), 0)
	return r
}

func (r *rung) finish() {
	r.sp.spans[r.root].end = r.rr.now()
	r.rr.mu.Lock()
	r.rr.spans = append(r.rr.spans, r.sp)
	r.rr.mu.Unlock()
}

// rounds runs round (which makes roundCalls calls) repeatedly for the
// budget and returns the per-call nanoseconds of every round.
func (r *rung) rounds(layer string, round func()) []float64 {
	var per []float64
	begin := time.Now()
	for len(per) < minRounds || (len(per) < maxRounds && time.Since(begin) < rungBudget) {
		t0 := r.rr.now()
		round()
		t1 := r.rr.now()
		r.sp.add(r.root, layer, t0, t1)
		per = append(per, float64(t1-t0)/roundCalls)
	}
	return per
}

// parallel runs f(0..g-1) on g goroutines and waits for them.
func parallel(g int, f func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i)
		}()
	}
	wg.Wait()
}

// rungResults are the direct rungs' per-layer metrics.
type rungResults struct {
	wireEncNS, wireDecNS, wireBytes float64
	acquireNS, updateNS, readNS     float64
	attemptsPerUpdate               float64
	multiNS                         float64
	retriesPerCommit                float64
	helpsPerCommit                  float64
	llNS, scNS, vlNS                float64
	scSuccessFrac, llHelpedFrac     float64
	appendUS, syncUS                float64
	recoveryS, logBytesPerRecord    float64
}

// runRungs runs the rungs on the layers wl's path crosses; the persist
// rung runs for every served workload, so that a workload without a log
// still measures the storage layer on its filesystem. goroutines is the
// parallelism of the core, shard and txn rungs.
func runRungs(wl *workload, seed uint64, streams [][]op, shardOf func(uint64) int, goroutines int, workDir string, rr *rungRecorder) (rungResults, error) {
	var res rungResults
	if wl.served {
		res.wireEncNS, res.wireDecNS, res.wireBytes = wireRung(wl, streams[0], rr)
	}
	if err := coreRung(wl, streams, shardOf, goroutines, rr, &res); err != nil {
		return res, err
	}
	if err := shardRung(wl, streams, goroutines, rr, &res); err != nil {
		return res, err
	}
	if wl.served {
		if err := persistRung(wl, seed, streams[0], shardOf, filepath.Join(workDir, "persist-rung"), rr, &res); err != nil {
			return res, err
		}
	}
	return res, nil
}

// wireRung encodes and decodes each op's request and response frames as
// the client and server do.
func wireRung(wl *workload, ops []op, rr *rungRecorder) (encNS, decNS, bytesPerOp float64) {
	reqs := make([]wire.Request, len(ops))
	resps := make([]wire.Response, len(ops))
	reqBufs := make([][]byte, len(ops))
	respBufs := make([][]byte, len(ops))
	var frameBytes int
	for i := range ops {
		o := &ops[i]
		rows := 1
		switch o.kind {
		case opRead:
			reqs[i] = wire.Request{ID: uint64(i), Op: wire.OpRead, Key: o.key}
		case opAdd:
			args := make([]uint64, wl.w)
			fillDelta(args, o.d)
			reqs[i] = wire.Request{ID: uint64(i), Op: wire.OpUpdate, Mode: wire.ModeAdd, Key: o.key, Args: args}
		case opMulti:
			args := make([]uint64, 2*wl.w)
			fillDelta(args[:wl.w], o.d)
			fillDelta(args[wl.w:], o.d2)
			reqs[i] = wire.Request{ID: uint64(i), Op: wire.OpUpdateMulti, Mode: wire.ModeAdd,
				Keys: []uint64{o.key, o.key2}, Args: args}
			rows = 2
		}
		resps[i] = wire.Response{ID: uint64(i), Status: wire.StatusOK, Attempts: 1,
			Rows: uint32(rows), Words: uint32(wl.w), Data: make([]uint64, rows*wl.w)}
		reqBufs[i] = wire.AppendRequest(nil, &reqs[i])
		respBufs[i] = wire.AppendResponse(nil, &resps[i])
		frameBytes += len(wire.AppendFrame(nil, reqBufs[i])) + len(wire.AppendFrame(nil, respBufs[i]))
	}
	r := rr.start("rung.wire")
	defer r.finish()
	var buf []byte
	next := 0
	enc := r.rounds("wire.encode", func() {
		for range roundCalls {
			i := next % len(ops)
			next++
			buf = wire.AppendRequest(buf[:0], &reqs[i])
			buf = wire.AppendResponse(buf[:0], &resps[i])
		}
	})
	var req wire.Request
	var resp wire.Response
	dec := r.rounds("wire.decode", func() {
		for range roundCalls {
			i := next % len(ops)
			next++
			if wire.DecodeRequest(&req, reqBufs[i]) != nil || wire.DecodeResponse(&resp, respBufs[i]) != nil {
				panic("perfbench: wire round trip of a generated op failed")
			}
		}
	})
	return median(enc), median(dec), float64(frameBytes) / float64(len(ops))
}

// coreRung drives the paper's object directly: K objects of the
// workload's N and W, with stats on, each op's key picking the object.
func coreRung(wl *workload, streams [][]op, shardOf func(uint64) int, g int, rr *rungRecorder, res *rungResults) error {
	objs := make([]*mwllsc.Object, wl.k)
	for i := range objs {
		o, err := mwllsc.New(wl.n, wl.w, make([]uint64, wl.w), mwllsc.WithStats())
		if err != nil {
			return fmt.Errorf("core rung: %w", err)
		}
		objs[i] = o
	}
	ll := make([][]float64, g)
	llsc := make([][]float64, g)
	vl := make([][]float64, g)
	parallel(g, func(p int) {
		r := rr.start("rung.core")
		defer r.finish()
		ops := streams[p%len(streams)]
		hs := make([]*mwllsc.Handle, len(objs))
		for i, o := range objs {
			hs[i] = o.Handle(p)
		}
		dst := make([]uint64, wl.w)
		next := 0
		pick := func() (*mwllsc.Handle, *op) {
			o := &ops[next%len(ops)]
			next++
			return hs[shardOf(o.key)], o
		}
		ll[p] = r.rounds("core.ll", func() {
			for range roundCalls {
				h, _ := pick()
				h.LL(dst)
			}
		})
		llsc[p] = r.rounds("core.ll+sc", func() {
			for range roundCalls {
				h, o := pick()
				h.LL(dst)
				for j := range dst {
					dst[j] += o.d + uint64(j)
				}
				h.SC(dst)
			}
		})
		vl[p] = r.rounds("core.vl", func() {
			h, _ := pick()
			h.LL(dst)
			for range roundCalls {
				h.VL()
			}
		})
	})
	res.llNS = median(concat(ll))
	res.scNS = median(concat(llsc)) - res.llNS
	res.vlNS = median(concat(vl))
	var st mwllsc.Stats
	for _, o := range objs {
		s, _ := o.Stats()
		st.LLTotal += s.LLTotal
		st.LLHelped += s.LLHelped
		st.SCTotal += s.SCTotal
		st.SCSuccess += s.SCSuccess
	}
	res.scSuccessFrac = ratio(float64(st.SCSuccess), float64(st.SCTotal))
	res.llHelpedFrac = ratio(float64(st.LLHelped), float64(st.LLTotal))
	return nil
}

// shardRung drives a fresh map of the workload's geometry through the
// shard layer (registry acquire, Update, Read) and the txn layer
// (UpdateMulti).
func shardRung(wl *workload, streams [][]op, g int, rr *rungRecorder, res *rungResults) error {
	m, err := shard.NewMap(wl.k, wl.n, wl.w)
	if err != nil {
		return fmt.Errorf("shard rung: %w", err)
	}
	acq := make([][]float64, g)
	upd := make([][]float64, g)
	read := make([][]float64, g)
	attempts := make([]int64, g)
	updates := make([]int64, g)
	parallel(g, func(p int) {
		r := rr.start("rung.shard")
		defer r.finish()
		ops := streams[p%len(streams)]
		acq[p] = r.rounds("shard.acquire", func() {
			for range roundCalls {
				m.Acquire().Release()
			}
		})
		h := m.Acquire()
		defer h.Release()
		var d uint64
		add := func(v []uint64) {
			for j := range v {
				v[j] += d + uint64(j)
			}
		}
		next := 0
		upd[p] = r.rounds("shard.update", func() {
			for range roundCalls {
				o := &ops[next%len(ops)]
				next++
				d = o.d
				attempts[p] += int64(h.Update(o.key, add))
				updates[p]++
			}
		})
		dst := make([]uint64, wl.w)
		read[p] = r.rounds("shard.read", func() {
			for range roundCalls {
				h.Read(ops[next%len(ops)].key, dst)
				next++
			}
		})
	})
	res.acquireNS = median(concat(acq))
	res.updateNS = median(concat(upd))
	res.readNS = median(concat(read))
	res.attemptsPerUpdate = ratio(float64(sum(attempts)), float64(sum(updates)))

	before := m.TxnStats()
	multi := make([][]float64, g)
	commits := make([]int64, g)
	parallel(g, func(p int) {
		r := rr.start("rung.txn")
		defer r.finish()
		var pairs []op
		for _, o := range streams[p%len(streams)] {
			if o.kind == opMulti {
				pairs = append(pairs, o)
			}
		}
		if len(pairs) == 0 {
			return
		}
		h := m.Acquire()
		defer h.Release()
		var d, d2 uint64
		f := func(vals [][]uint64) {
			for j := range vals[0] {
				vals[0][j] += d + uint64(j)
				vals[1][j] += d2 + uint64(j)
			}
		}
		keys := make([]uint64, 2)
		next := 0
		multi[p] = r.rounds("txn.update_multi", func() {
			for range roundCalls {
				o := &pairs[next%len(pairs)]
				next++
				d, d2 = o.d, o.d2
				keys[0], keys[1] = o.key, o.key2
				h.UpdateMulti(keys, f)
				commits[p]++
			}
		})
	})
	after := m.TxnStats()
	res.multiNS = median(concat(multi))
	n := float64(sum(commits))
	res.retriesPerCommit = ratio(float64(after.Retries-before.Retries), n)
	res.helpsPerCommit = ratio(float64(after.Helps-before.Helps), n)
	return nil
}

// persistRung appends one record at a time to a fresh store and syncs
// after each, timing Append and Sync separately. It then writes a log
// of recoveryRecords Add records and times persist.Open recovering it.
func persistRung(wl *workload, seed uint64, ops []op, shardOf func(uint64) int, dir string, rr *rungRecorder, res *rungResults) error {
	defer os.RemoveAll(dir)
	m, err := shard.NewMap(wl.k, 1, wl.w)
	if err != nil {
		return err
	}
	st, _, err := persist.Open(filepath.Join(dir, "append"), m, persist.Options{Policy: persist.SyncAlways})
	if err != nil {
		return fmt.Errorf("persist rung: %w", err)
	}
	r := rr.start("rung.persist")
	defer r.finish()
	args := make([]uint64, wl.w)
	recs := make([]persist.Record, 1)
	var appends, syncs []float64
	begin := time.Now()
	for i := 0; i < minRounds || (i < maxRounds && time.Since(begin) < rungBudget); i++ {
		o := &ops[i%len(ops)]
		fillDelta(args, o.d)
		recs[0] = persist.Record{Seq: st.NextSeq(), Op: wire.OpUpdate, Mode: wire.ModeAdd,
			Key: o.key, Args: args, Shard: shardOf(o.key)}
		t0 := rr.now()
		err := st.Append(recs)
		t1 := rr.now()
		if err == nil {
			err = st.Sync()
		}
		t2 := rr.now()
		if err != nil {
			st.Close()
			return fmt.Errorf("persist rung: %w", err)
		}
		r.sp.add(r.root, "persist.append", t0, t1)
		r.sp.add(r.root, "persist.sync", t1, t2)
		appends = append(appends, float64(t1-t0)/1e3)
		syncs = append(syncs, float64(t2-t1)/1e3)
	}
	res.appendUS, res.syncUS = median(appends), median(syncs)
	if err := st.Close(); err != nil {
		return fmt.Errorf("persist rung: %w", err)
	}

	logDir := filepath.Join(dir, "recovery")
	written, err := writePreload(logDir, wl, genAdds(wl, seed, recoveryRecords, shardOf), shardOf)
	if err != nil {
		return fmt.Errorf("persist rung: %w", err)
	}
	res.logBytesPerRecord = ratio(float64(written.Bytes), float64(written.Records))
	if m, err = shard.NewMap(wl.k, 1, wl.w); err != nil {
		return err
	}
	t0 := rr.now()
	st, _, err = persist.Open(logDir, m, persist.Options{Policy: persist.SyncAlways})
	t1 := rr.now()
	if err != nil {
		return fmt.Errorf("persist rung: %w", err)
	}
	r.sp.add(r.root, "persist.recover", t0, t1)
	res.recoveryS = float64(t1-t0) / 1e9
	return st.Close()
}

func concat(xss [][]float64) []float64 {
	var out []float64
	for _, xs := range xss {
		out = append(out, xs...)
	}
	return out
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
