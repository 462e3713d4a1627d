package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"mwllsc/internal/client"
	"mwllsc/internal/persist"
	"mwllsc/internal/server"
	"mwllsc/internal/shard"
	"mwllsc/internal/trace"
	"mwllsc/internal/wire"
)

// maxBatch is the daemon's default -maxbatch.
const maxBatch = 64

// servedRig is an in-process server with the daemon's defaults (metrics
// on, tracer idle), optionally durable, and a client pool dialed to it.
type servedRig struct {
	m      *shard.Map
	st     *persist.Store
	srv    *server.Server
	served chan error
	c      *client.Client
}

// openServed builds the rig over dir (durable workloads recover it) and
// returns once the first Read has answered. recovery is the time
// persist.Open took.
func openServed(wl *workload, dir string, conns int) (r *servedRig, recovery time.Duration, err error) {
	r = &servedRig{}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if r.m, err = shard.NewMap(wl.k, wl.n, wl.w); err != nil {
		return nil, 0, err
	}
	opts := []server.Option{
		server.WithMaxBatch(maxBatch),
		server.WithMetrics(server.NewMetrics(wl.n)),
		server.WithTracer(trace.New(trace.Config{})),
	}
	if wl.durable {
		t0 := time.Now()
		if r.st, _, err = persist.Open(dir, r.m, persist.Options{Policy: persist.SyncAlways}); err != nil {
			return nil, 0, err
		}
		recovery = time.Since(t0)
		opts = append(opts, server.WithPersist(r.st))
	}
	r.srv = server.New(r.m, opts...)
	addr, err := r.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	r.served = make(chan error, 1)
	go func() { r.served <- r.srv.Serve() }()
	if r.c, err = client.Dial(addr.String(), client.WithConns(conns)); err != nil {
		return nil, 0, err
	}
	if _, err = r.c.Read(context.Background(), 0); err != nil {
		return nil, 0, fmt.Errorf("first read: %w", err)
	}
	return r, recovery, nil
}

// close shuts the rig down in dependency order and waits for the
// server's goroutines; it returns the store's close error. Closing a
// closed rig does nothing.
func (r *servedRig) close() error {
	if r.c != nil {
		r.c.Close()
		r.c = nil
	}
	if r.srv != nil {
		r.srv.Close()
		if r.served != nil {
			<-r.served
		}
		r.srv = nil
	}
	if st := r.st; st != nil {
		r.st = nil
		return st.Close()
	}
	return nil
}

func (r *servedRig) snap() snapshot {
	s := snapshot{u: takeUsage(), srv: r.srv.Stats(), reg: r.m.Registry().Stats(),
		retries: r.c.Retries(), reconnects: r.c.Reconnects()}
	if r.st != nil {
		s.st = r.st.Stats()
	}
	return s
}

// writePreload writes a log into dir holding one Add record per op —
// the log a durable set-up recovers — and returns the store's counters.
func writePreload(dir string, wl *workload, ops []op, shardOf func(uint64) int) (persist.Stats, error) {
	m, err := shard.NewMap(wl.k, 1, wl.w)
	if err != nil {
		return persist.Stats{}, err
	}
	st, _, err := persist.Open(dir, m, persist.Options{Policy: persist.SyncNone})
	if err != nil {
		return persist.Stats{}, err
	}
	const chunk = 512
	recs := make([]persist.Record, 0, chunk)
	for i := range ops {
		o := &ops[i]
		args := make([]uint64, wl.w)
		fillDelta(args, o.d)
		recs = append(recs, persist.Record{Seq: st.NextSeq(), Op: wire.OpUpdate, Mode: wire.ModeAdd,
			Key: o.key, Args: args, Shard: shardOf(o.key)})
		if len(recs) == chunk || i == len(ops)-1 {
			if err := st.Append(recs); err != nil {
				st.Close()
				return persist.Stats{}, err
			}
			recs = recs[:0]
		}
	}
	stats := st.Stats()
	return stats, st.Close()
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// servedCaller is one closed-loop caller of a served workload.
type servedCaller struct {
	wl      *workload
	c       *client.Client
	ops     []op
	shardOf func(uint64) int
	epoch   time.Time
	id      uint64
	traced  int32 // the phase whose calls are traced
	callers int
	rec     *callerRec
}

func (sc *servedCaller) run(ph *atomic.Int32) {
	ctx := context.Background()
	w := sc.wl.w
	d1, d2 := make([]uint64, w), make([]uint64, w)
	keys, rows := make([]uint64, 2), [][]uint64{d1, d2}
	var tr client.Trace
	traceCtx := client.WithTrace(ctx, &tr)
	rec := sc.rec
	for i := 0; ; i++ {
		p := ph.Load()
		if p == phStop {
			return
		}
		o := &sc.ops[i%len(sc.ops)]
		callCtx := ctx
		traced := p == sc.traced
		if traced {
			tr.ID = 0 // a fresh trace id per call
			callCtx = traceCtx
		}
		var err error
		t0 := time.Now()
		switch o.kind {
		case opRead:
			_, err = sc.c.Read(callCtx, o.key)
		case opAdd:
			fillDelta(d1, o.d)
			_, err = sc.c.Add(callCtx, o.key, d1)
		case opMulti:
			fillDelta(d1, o.d)
			fillDelta(d2, o.d2)
			keys[0], keys[1] = o.key, o.key2
			_, err = sc.c.AddMulti(callCtx, keys, rows)
		}
		t1 := time.Now()
		if rec.observe(p, o, err, sc.shardOf, w) && p != phWarm && !traced {
			rec.lat[p-1][o.kind] = append(rec.lat[p-1][o.kind], uint32(t1.Sub(t0)))
		}
		if err == nil && traced && i%sc.wl.spanEvery == 0 && rec.keepSpans(sc.callers) {
			rec.addServedSpans(sc.id<<32|uint64(i), o.kind, t0.Sub(sc.epoch).Nanoseconds(), t1.Sub(sc.epoch).Nanoseconds(), &tr)
		}
	}
}

// serverStageLayers names the echoed server stages in wire order.
var serverStageLayers = [trace.WireStages]string{
	"server.decode", "server.queue", "server.acquire", "server.execute", "server.persist", "server.fsync",
}

// addServedSpans records one traced served call: the call itself as the
// root, the client's send-queue wait and round trip as its children,
// and the server's echoed stages inside the round trip. The echoed
// stages are durations only; they are laid end to end, centred in the
// round trip, which leaves every self time exact.
func (rec *callerRec) addServedSpans(opID uint64, kind opKind, t0, t1 int64, tr *client.Trace) {
	sp := opSpans{op: opID, kind: kind}
	root := sp.add(-1, "op", t0, t1)
	total, rt := tr.Total.Nanoseconds(), tr.RoundTrip.Nanoseconds()
	sp.add(root, "client.queue", t1-total, t1-rt)
	wireID := sp.add(root, "client.wire", t1-rt, t1)
	if len(tr.ServerStages) >= len(serverStageLayers) {
		var sum int64
		for _, ns := range tr.ServerStages[:len(serverStageLayers)] {
			sum += int64(ns)
		}
		at := t1 - rt + max(0, rt-sum)/2
		for i, layer := range serverStageLayers {
			d := int64(tr.ServerStages[i])
			sp.add(wireID, layer, at, at+d)
			at += d
		}
	}
	rec.spans = append(rec.spans, sp)
}
