// Package server exposes a shard.Map over TCP with the wire protocol
// (internal/wire): the serving layer that turns the in-process
// data structure into a system other processes can reach.
//
// Each accepted connection runs two goroutines. The reader decodes
// request frames and gathers them into batches: it blocks for the first
// request, then drains whatever else has already arrived (up to
// MaxBatch), so under pipelined load one registry Acquire/Release pays
// for many operations. A batch executes in arrival order: each shard is
// an independent W-word LL/SC object whose operations cost the same
// whichever shard ran before, so there is nothing to gain from
// regrouping. Clients still match responses by the request id every
// response frame carries. The reader hands each batch's responses to
// the writer goroutine as one unit in one channel send; the writer
// streams them out, flushes only when its queue runs empty — coalescing
// many small frames into few syscalls — and hands the unit back for
// reuse.
//
// Every server is instrumented: it always carries latency histograms
// (Metrics) and a tracer (internal/trace) that stays idle until a
// client flags a request or the tracer samples one. A batch passes
// through named stages — the trace stages decode, queue, acquire,
// execute, persist, fsync — and one clock read at each stage boundary
// feeds both the service-latency histogram and every trace span in the
// batch.
//
// Consistency is exactly the in-process contract: per-key operations
// are linearizable per shard, UpdateMulti is a cross-shard atomic
// commit, Snapshot is per-shard atomic, SnapshotAtomic cross-shard
// linearizable. Batching never weakens this — a batch is just the same
// sequence of linearizable operations issued by one process slot, and
// the operations of one batch execute in the order they arrived.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"mwllsc/internal/obs"
	"mwllsc/internal/persist"
	"mwllsc/internal/shard"
	"mwllsc/internal/trace"
	"mwllsc/internal/wire"
)

// Option configures New.
type Option func(*Server)

// WithMaxBatch caps how many pipelined requests one handle acquisition
// may execute (default 64). Larger batches amortize registry traffic
// further but hold a process slot longer.
func WithMaxBatch(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxBatch = n
		}
	}
}

// WithLogf installs a logger for per-connection errors (default: drop
// them; a dying connection is the client's problem, not the server's).
func WithLogf(logf func(format string, args ...any)) Option {
	return func(s *Server) { s.logf = logf }
}

// WithTracer replaces the server's tracer (internal/trace). Requests
// become traced when the client flags them on the wire or the tracer
// head-samples them (Config.SampleN); everything else pays one branch
// per request. The default tracer samples nothing, so it serves only
// client-flagged requests; nil keeps the default.
func WithTracer(t *trace.Tracer) Option {
	return func(s *Server) {
		if t != nil {
			s.tracer = t
		}
	}
}

// WithPersist attaches a durability store (internal/persist): each
// batch's committed Update/UpdateMulti records are appended to the
// store's one log in a single write after the batch executes — outside
// the registry slot, so disk I/O never pins a process id — and, under
// persist.SyncAlways, the batch's responses are held until a
// group-commit fsync covers its records. The store must have been
// opened over the same map this server serves.
func WithPersist(st *persist.Store) Option {
	return func(s *Server) { s.persist = st }
}

// WithMaxConns caps concurrently open connections (default 0 =
// unlimited). A connection accepted past the cap is closed immediately
// without serving a byte — shedding at the door is the one overload
// defense that costs the server nothing per rejected client — and
// counted as ShedConns in the stats.
func WithMaxConns(n int) Option {
	return func(s *Server) { s.maxConns = n }
}

// WithIdleTimeout closes a connection whose next request does not
// arrive within d (default 0 = never). The deadline is re-armed before
// each batch-head read, so it also evicts peers that stall mid-frame;
// an active pipelining client never notices it. Closures are counted
// as IdleCloses.
func WithIdleTimeout(d time.Duration) Option {
	return func(s *Server) { s.idleTimeout = d }
}

// WithWriteTimeout evicts a connection whose peer stops draining its
// responses: each coalesced write must complete within d (default 0 =
// never). Without it a non-reading client eventually fills its TCP
// window and parks the writer goroutine forever, pinning the
// connection's buffers; with it the write fails, the connection is
// closed, and the eviction is counted as Evictions.
func WithWriteTimeout(d time.Duration) Option {
	return func(s *Server) { s.writeTimeout = d }
}

// WithMaxInflight bounds how many batches may be executing (registry
// slot through durability) at once (default 0 = unbounded). A batch
// that finds all n admission tokens taken is rejected whole with
// StatusBusy — before acquiring a slot, touching the map, or logging
// anything — which clients treat as an explicit not-executed promise
// and retry with backoff. This converts overload from queueing collapse
// (every request slower) into cheap early rejection (admitted requests
// at full speed, the rest bounced in microseconds); the E16 benchmark
// measures exactly this difference. Rejections count as BusyRejects.
func WithMaxInflight(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.sem = make(chan struct{}, n)
		}
	}
}

// WithDegradeOnDiskError turns a sick durability store into read-only
// degraded mode: once the store has refused an append (torn write,
// fsync failure — persist.Store.Sick), updates are rejected with
// StatusUnavailable before touching the map, while reads, snapshots,
// pings and stats keep serving from memory. Without it (the default)
// the server keeps accepting updates that are applied in memory but
// never durable — visibly, via PersistErrs, but a restart silently
// rewinds them. Rejections count as DegradedRejects.
func WithDegradeOnDiskError(on bool) Option {
	return func(s *Server) { s.degrade = on }
}

// Server serves a shard.Map over TCP.
type Server struct {
	m        *shard.Map
	maxBatch int
	logf     func(format string, args ...any)
	persist  *persist.Store
	metrics  *Metrics
	tracer   *trace.Tracer

	// Overload controls; zero values mean "off" (see the With* options).
	maxConns     int
	idleTimeout  time.Duration
	writeTimeout time.Duration
	sem          chan struct{} // admission tokens; nil = unbounded
	degrade      bool

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	// ctrs are the server counters (see the c* indices in metrics.go),
	// striped per registry slot: per-request bumps from the batch
	// executor write only the cache lines of the slot it holds, so two
	// executors at high GOMAXPROCS never contend on stats. Events with
	// no slot in hand (accepts, decode rejects) use stripe 0 — they are
	// per-connection or error-path rare, not per-request.
	ctrs *obs.Counters
}

// New creates a server over m. The map is shared: in-process callers may
// keep using it concurrently with remote traffic. Unless the options
// supply their own, the server builds a Metrics set and an idle tracer.
func New(m *shard.Map, opts ...Option) *Server {
	s := &Server{
		m:        m,
		maxBatch: 64,
		logf:     func(string, ...any) {},
		conns:    make(map[net.Conn]struct{}),
		ctrs:     obs.NewCounters(m.N(), numCounters),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.metrics == nil {
		s.metrics = NewMetrics(m.N())
	}
	if s.tracer == nil {
		s.tracer = trace.New(trace.Config{})
	}
	return s
}

// Map returns the served map.
func (s *Server) Map() *shard.Map { return s.m }

// Tracer returns the server's tracer: the one WithTracer installed, or
// the default idle one.
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// ErrClosed is returned by Serve after Close.
var ErrClosed = errors.New("server: closed")

// Listen binds addr (e.g. "127.0.0.1:7787"; port 0 picks a free port)
// and remembers the listener so Addr works before Serve is called.
func (s *Server) Listen(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		l.Close()
		return nil, ErrClosed
	}
	if s.listener != nil {
		l.Close()
		return nil, errors.New("server: already listening")
	}
	s.listener = l
	return l.Addr(), nil
}

// Addr returns the bound address, or nil before Listen.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return nil
	}
	return s.listener.Addr()
}

// Serve accepts connections on the listener bound by Listen until Close.
// It always returns a non-nil error; after a clean Close that error is
// ErrClosed.
func (s *Server) Serve() error {
	s.mu.Lock()
	l := s.listener
	closed := s.closed
	s.mu.Unlock()
	if l == nil {
		return errors.New("server: Serve before Listen")
	}
	if closed {
		return ErrClosed
	}
	for {
		c, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return ErrClosed
		}
		if s.maxConns > 0 && len(s.conns) >= s.maxConns {
			// Shed at the door: closing before serving a byte is the only
			// rejection whose cost does not grow with load. The client sees
			// a reset/EOF and treats it like any broken connection.
			s.mu.Unlock()
			c.Close()
			s.ctrs.Inc(0, cConnsShed)
			continue
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.ctrs.Inc(0, cConnsTotal)
		s.ctrs.Inc(0, cConnsOpen)
		go s.serveConn(c)
	}
}

// ListenAndServe is Listen followed by Serve.
func (s *Server) ListenAndServe(addr string) error {
	if _, err := s.Listen(addr); err != nil {
		return err
	}
	return s.Serve()
}

// Close stops accepting, closes every open connection, and waits for
// all connection goroutines to drain. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	l := s.listener
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

// Stats returns a point-in-time snapshot of the server counters plus
// the served map's geometry, folding the striped banks into the wire
// totals. The latency quantile words are filled from the Service
// histogram and FsyncP99 from the durability store (zero without one).
func (s *Server) Stats() wire.ServerStats {
	var c [numCounters]uint64
	s.ctrs.Sums(c[:])
	st := wire.ServerStats{
		Shards:      uint64(s.m.Shards()),
		Slots:       uint64(s.m.N()),
		Words:       uint64(s.m.W()),
		ConnsTotal:  c[cConnsTotal],
		ConnsOpen:   c[cConnsOpen],
		Reqs:        c[cReqs],
		Updates:     c[cUpdates],
		Reads:       c[cReads],
		Snapshots:   c[cSnapshots],
		Multis:      c[cMultis],
		Batches:     c[cBatches],
		BadReqs:     c[cBadReqs],
		PersistErrs: c[cPersistErrs],

		ShedConns:       c[cConnsShed],
		BusyRejects:     c[cBusy],
		Evictions:       c[cEvictions],
		IdleCloses:      c[cIdleClosed],
		DegradedRejects: c[cDegraded],
	}
	snap := s.metrics.Service.Snapshot()
	st.LatP50 = uint64(snap.Quantile(0.50))
	st.LatP99 = uint64(snap.Quantile(0.99))
	st.LatP999 = uint64(snap.Quantile(0.999))
	if s.persist != nil {
		snap := s.persist.SyncHist().Snapshot()
		st.FsyncP99 = uint64(snap.Quantile(0.99))
	}
	return st
}

// respDataSoftCap bounds (in words) the Data backing array a recycled
// response may keep: a rare snapshot-sized response would otherwise pin
// K×W words in its batch unit for the connection's lifetime.
const respDataSoftCap = 4096

// outUnits is how many batch units a connection cycles between reader
// and writer: one filling, the rest queued or being encoded, so the
// reader runs at most that many batches ahead of a slow peer before it
// waits for the writer.
const outUnits = 4

// batchOut is one batch's responses on their way to the writer, handed
// over in a single channel send. It owns its responses — recycled with
// the unit, which is why responses cost no allocation in steady state —
// and the spans of its traced requests, which the writer copies out and
// finishes after the flush that carries them. Malformed-frame answers
// come first, then the batch's responses in batch order.
//
// A unit carries at most one span per batched request, so the spans a
// connection holds in its units are bounded by outUnits × maxBatch by
// construction. The writer's copy holds those of one coalesced write,
// and keeps no more than that bound's capacity between writes.
type batchOut struct {
	resps []wire.Response
	spans []trace.Span
}

// add appends a reset response to u and returns it. The pointer is
// valid until the next add.
func (u *batchOut) add() *wire.Response {
	n := len(u.resps)
	if n < cap(u.resps) {
		u.resps = u.resps[:n+1]
	} else {
		u.resps = append(u.resps, wire.Response{})
	}
	r := &u.resps[n]
	*r = wire.Response{Data: r.Data[:0], Stages: r.Stages[:0]}
	return r
}

// Batch clock marks, one per trace stage boundary in timeline order:
// clk[mArrive] is the batch head's arrival and clk[1+st] the instant
// trace stage st ended, so the clock is exactly the marks a span reads.
const (
	mArrive  = 0                           // head frame read
	mDecode  = 1 + int(trace.StageDecode)  // the batch's frames decoded
	mQueue   = 1 + int(trace.StageQueue)   // inflight token taken (or refused), degraded verdict
	mAcquire = 1 + int(trace.StageAcquire) // registry slot held
	mExecute = 1 + int(trace.StageExecute) // operations run, slot released
	mPersist = 1 + int(trace.StagePersist) // committed updates appended to the log
	mFsync   = 1 + int(trace.StageFsync)   // the group-commit round covering them done
)

// connState is one connection's reusable serving state — the reason the
// hot path is allocation-free in steady state. It holds the decoded
// batch (whose Request slots recycle their Keys/Args backing arrays),
// the batch units cycled between the reader and the writer goroutine,
// the batch's log records, the per-batch map handle (re-armed
// with Reacquire instead of reallocated), and the merge closures
// pre-bound at connection setup, which would otherwise be allocated per
// update to capture that request's arguments.
type connState struct {
	h     *shard.MapHandle // lazily acquired, then Reacquire per batch
	batch []batchReq
	recs  []persist.Record // the batch's committed updates, for the log
	rows  [][]uint64       // snapshot row scratch over resp.Data

	// The writer handoff: unit is the batch unit being filled, out
	// carries filled units to the writer, free carries them back.
	unit *batchOut
	out  chan *batchOut
	free chan *batchOut

	// clk is the current batch's stage clock (the m* marks).
	clk [trace.WireStages + 1]time.Time

	// Update/UpdateMulti state read by the pre-bound merge closures. seq
	// is the commit sequence number the latest merge run drew (with a
	// store attached): after the update returns, the committing run's.
	args       []uint64
	dst        []uint64
	mode       wire.Mode
	w          int
	seq        uint64
	mergeOne   func(v []uint64)
	mergeMulti func(vals [][]uint64)

	// degraded is the per-batch verdict of the disk-sick check: set once
	// per batch in executeBatch, read by execute for every update in it.
	degraded bool

	// sampleCtr counts toward the next head sample.
	sampleCtr uint64
}

func (s *Server) newConnState() *connState {
	cs := &connState{
		batch: make([]batchReq, 0, s.maxBatch),
		out:   make(chan *batchOut, outUnits),
		free:  make(chan *batchOut, outUnits),
	}
	for i := 0; i < outUnits; i++ {
		cs.free <- &batchOut{}
	}
	cs.mergeOne = func(v []uint64) {
		wire.Merge(v, cs.args, cs.mode)
		copy(cs.dst, v)
		if s.persist != nil {
			cs.seq = s.persist.NextSeq()
		}
	}
	cs.mergeMulti = func(vals [][]uint64) {
		for i, v := range vals {
			wire.Merge(v, cs.args[i*cs.w:(i+1)*cs.w], cs.mode)
			copy(cs.dst[i*cs.w:(i+1)*cs.w], v)
		}
		if s.persist != nil {
			cs.seq = s.persist.NextSeq()
		}
	}
	return cs
}

// recycle returns an encoded unit to the reader. Oversized data backing
// arrays (snapshots) are dropped first, mirroring wire.ReadFrame's
// shrink of oversized frame buffers.
func (cs *connState) recycle(u *batchOut) {
	for i := range u.resps {
		if cap(u.resps[i].Data) > respDataSoftCap {
			u.resps[i].Data = nil
		}
	}
	u.resps, u.spans = u.resps[:0], u.spans[:0]
	cs.free <- u
}

// stamp closes the stage ending at mark m: the batch clock's one read
// per stage boundary.
func (cs *connState) stamp(m int) { cs.clk[m] = time.Now() }

// hold closes every stage after mark m at m's instant. Stages a batch
// skips — persistence with nothing to log, everything after a busy
// rejection — stay zero-width, so stage sums still equal span totals.
func (cs *connState) hold(m int) {
	for i := m + 1; i < len(cs.clk); i++ {
		cs.clk[i] = cs.clk[m]
	}
}

// sizedData returns resp.Data resized to n words, reusing its capacity.
func sizedData(resp *wire.Response, n int) []uint64 {
	if cap(resp.Data) < n {
		resp.Data = make([]uint64, n)
	}
	resp.Data = resp.Data[:n]
	return resp.Data
}

func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer s.ctrs.Add(0, cConnsOpen, ^uint64(0))
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()

	// The writer owns the outbound half: it encodes the batch units the
	// reader emits and flushes whenever its queue runs dry.
	cs := s.newConnState()
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		s.writeLoop(c, cs)
	}()
	s.readLoop(c, cs)
	close(cs.out)
	writerWG.Wait()
}

// writeBufCap pre-sizes the writer's coalescing buffer (and is the cap
// an oversized one shrinks back to): large enough for a maxBatch of
// small-op responses, far below the 256 KiB coalescing bound.
const writeBufCap = 64 << 10

// writeLoop encodes batch units and writes them with frame coalescing:
// it keeps appending units to one buffer while more are queued and
// hands the kernel a single write when the queue is empty. Each unit
// returns to the reader as soon as it is encoded; its trace spans
// finish (flush stage + total) after the write that put them on the
// wire and retire into the tracer's rings. After a failed write the
// loop keeps draining, so the reader never waits on a dead connection,
// and the spans still in flight retire marked Err.
func (s *Server) writeLoop(c net.Conn, cs *connState) {
	buf := make([]byte, 0, writeBufCap)
	payload := make([]byte, 0, 4<<10)
	var spans []trace.Span // spans riding in buf, finished at its flush
	// write pushes one coalesced buffer, under the write-stall deadline
	// when one is set. On failure it closes the connection itself: an
	// evicted-but-alive peer would otherwise keep the read loop (and the
	// connection's buffers) parked until it went away on its own.
	write := func(b []byte) error {
		if s.writeTimeout > 0 {
			c.SetWriteDeadline(time.Now().Add(s.writeTimeout))
		}
		_, err := c.Write(b)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				s.ctrs.Inc(0, cEvictions)
				s.logf("server: evicting stalled reader %v: %v", c.RemoteAddr(), err)
			} else {
				s.logf("server: write to %v: %v", c.RemoteAddr(), err)
			}
			c.Close()
		}
		return err
	}
	encode := func(u *batchOut) {
		for i := range u.resps {
			payload = wire.AppendResponse(payload[:0], &u.resps[i])
			buf = wire.AppendFrame(buf, payload)
		}
		spans = append(spans, u.spans...)
		cs.recycle(u)
	}
	var werr error
	for u := range cs.out {
		buf = buf[:0]
		encode(u)
		// Coalesce whatever else is already queued.
	coalesce:
		for len(buf) < 256<<10 {
			select {
			case next, ok := <-cs.out:
				if !ok {
					break coalesce
				}
				encode(next)
			default:
				break coalesce
			}
		}
		if werr == nil {
			werr = write(buf)
		}
		s.finishSpans(spans, werr != nil)
		spans = spans[:0]
		// A snapshot-sized response grows these past any steady-state
		// need; release the oversized arrays instead of pinning them.
		if cap(buf) > 4*writeBufCap {
			buf = make([]byte, 0, writeBufCap)
		}
		if cap(payload) > 4*writeBufCap {
			payload = make([]byte, 0, 4<<10)
		}
		if cap(spans) > outUnits*s.maxBatch {
			spans = nil
		}
	}
}

// finishSpans closes the flush stage of every span one write carried
// and retires them; failed marks them Err (their responses never left).
func (s *Server) finishSpans(spans []trace.Span, failed bool) {
	if len(spans) == 0 {
		return
	}
	now := time.Now()
	for i := range spans {
		sp := &spans[i]
		sp.Err = sp.Err || failed
		sp.Flushed(now)
		s.tracer.Retire(sp)
	}
}

// batchReq is one decoded request waiting in a batch; sampled marks a
// request the server head-sampled for tracing (wire-flagged ones carry
// req.Traced instead).
type batchReq struct {
	req     wire.Request
	sampled bool
}

// readLoop decodes frames into batches and executes them. It returns on
// any read or protocol error (the connection is then closed).
func (s *Server) readLoop(c net.Conn, cs *connState) {
	br := bufio.NewReaderSize(c, 64<<10)
	var frame []byte
	for {
		// Take the next batch's unit first. Waiting here is the
		// backpressure of a peer that does not drain its responses, and
		// waiting now — never after Acquire — keeps a stalled connection
		// from pinning a registry slot.
		cs.unit = <-cs.free
		// Block for the head of the next batch, for at most the idle
		// timeout when one is set. Re-arming before each head read means
		// the deadline also covers a peer that stalls mid-frame; the
		// drain reads below never block (frameBuffered), so an active
		// client pays one SetReadDeadline syscall per batch, not per
		// request.
		if s.idleTimeout > 0 {
			c.SetReadDeadline(time.Now().Add(s.idleTimeout))
		}
		var err error
		frame, err = wire.ReadFrame(br, frame)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				s.ctrs.Inc(0, cIdleClosed)
				s.logf("server: closing idle connection %v", c.RemoteAddr())
			}
			return
		}
		cs.stamp(mArrive)
		cs.batch = cs.batch[:0]
		frame = s.appendDecoded(cs, frame)
		// Drain requests that already arrived, without blocking: only
		// frames whose payload is fully buffered are taken — a partially
		// arrived frame would block ReadFrame mid-batch on a slow peer
		// while the already-gathered batch sat waiting.
		for len(cs.batch) < s.maxBatch && frameBuffered(br) {
			if frame, err = wire.ReadFrame(br, frame); err != nil {
				break
			}
			frame = s.appendDecoded(cs, frame)
		}
		s.executeBatch(cs)
		if err != nil {
			return
		}
	}
}

// frameBuffered reports whether br holds one complete frame — the
// 4-byte length prefix and its full payload — so reading it cannot
// block. An oversized length also reports true: ReadFrame rejects it
// from the buffered header alone, without blocking.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	hdr, err := br.Peek(4)
	if err != nil {
		return false
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > wire.MaxFrame {
		return true
	}
	return br.Buffered() >= 4+int(n)
}

// appendDecoded decodes frame into a new batch slot. A malformed request
// is not batched: its StatusBadRequest answer goes into the batch's
// unit ahead of the batch's own responses. It also makes the
// head-sampling decision for requests the client did not flag.
func (s *Server) appendDecoded(cs *connState, frame []byte) []byte {
	// Reslice over a recycled slot when possible: DecodeRequest resets
	// every field and reuses the slot's Keys/Args backing arrays, which
	// is where the per-request allocations would otherwise be.
	batch := cs.batch
	if len(batch) < cap(batch) {
		batch = batch[:len(batch)+1]
	} else {
		batch = append(batch, batchReq{})
	}
	br := &batch[len(batch)-1]
	br.sampled = false
	if err := wire.DecodeRequest(&br.req, frame); err != nil {
		s.ctrs.Inc(0, cBadReqs)
		// A frame too mangled to carry an id gets id 0; the client will
		// drop it but the stream stays framed.
		resp := cs.unit.add()
		resp.ID, resp.Status, resp.Err = br.req.ID, wire.StatusBadRequest, err.Error()
		cs.batch = batch[:len(batch)-1]
		return frame
	}
	if n := s.tracer.SampleN(); n > 0 && !br.req.Traced {
		if cs.sampleCtr++; cs.sampleCtr >= n {
			cs.sampleCtr = 0
			br.sampled = true
		}
	}
	cs.batch = batch
	return frame
}

// executeBatch runs the gathered batch through its stages — queue, then
// acquire, execute, persist and fsync for an admitted batch — stamping
// the batch clock at each boundary, and emits the batch's unit to the
// writer. The Service histogram and every traced span read the
// same clock: each stage window is shared by the whole batch, which
// also makes every span's stage sum equal its total by construction.
//
// Responses are collected in the unit and emitted only after the handle
// is released: the out channel can fill when the peer stops reading its
// responses, and blocking on it while holding a registry slot would let
// one non-reading connection pin a process id that every other
// connection (and in-process callers) may be waiting for.
func (s *Server) executeBatch(cs *connState) {
	if n := len(cs.batch); n > 0 {
		base := len(cs.unit.resps) // malformed-frame answers go first
		cs.stamp(mDecode)
		// Admission: try to take an inflight token before committing any
		// resources to the batch. No token means the server is already
		// executing its configured maximum — reject the whole batch with
		// StatusBusy now, in microseconds, rather than queue it behind
		// work that is itself queued. The non-blocking send is the entire
		// cost on the admitted path.
		admitted := true
		if s.sem != nil {
			select {
			case s.sem <- struct{}{}:
			default:
				admitted = false
			}
		}
		// Degraded mode is decided once per batch: the store's sick flag
		// is a single atomic load, and every update in the batch sees the
		// same verdict.
		cs.degraded = s.degrade && s.persist != nil && s.persist.Sick()
		cs.stamp(mQueue)
		if admitted {
			p := s.runAdmitted(cs, base)
			// The admission token covers slot acquisition through
			// durability — the stages whose concurrency overload actually
			// multiplies.
			if s.sem != nil {
				<-s.sem
			}
			s.metrics.Service.ObserveN(p, uint64(cs.clk[mFsync].Sub(cs.clk[mDecode])), uint64(n))
			s.metrics.Batch.Observe(p, uint64(n))
		} else {
			s.rejectBusy(cs)
			cs.hold(mQueue)
		}
		cs.fillSpans(base)
	}
	cs.out <- cs.unit
	cs.unit = nil
}

// runAdmitted runs an admitted batch's acquire, execute, persist and
// fsync stages through one acquired handle, in arrival order, appending
// the response to batch[i] at unit index base+i. It returns the counter
// stripe the batch ran on.
func (s *Server) runAdmitted(cs *connState, base int) int {
	if cs.h == nil {
		cs.h = s.m.Acquire()
	} else {
		cs.h.Reacquire()
	}
	h := cs.h
	cs.stamp(mAcquire)

	// Stats stripe for everything this batch does: the registry slot we
	// just acquired. Another executor necessarily holds a different slot
	// and therefore writes different cache lines.
	p := h.Process()
	s.ctrs.Inc(p, cBatches)
	s.ctrs.Add(p, cReqs, uint64(len(cs.batch)))
	cs.recs = cs.recs[:0]
	for i := range cs.batch {
		s.execute(cs, h, p, &cs.batch[i].req, cs.unit.add())
	}
	h.Release()
	cs.stamp(mExecute)

	// Durability happens here: after execution, outside the registry
	// slot, before the responses flush. The record slices alias the
	// batch's decode buffers, which stay untouched until the next batch.
	if len(cs.recs) == 0 {
		cs.hold(mExecute)
		return p
	}
	err := s.persist.Append(cs.recs)
	cs.stamp(mPersist)
	if err == nil && s.persist.Policy() == persist.SyncAlways {
		err = s.persist.Sync()
		cs.stamp(mFsync)
	} else {
		cs.hold(mPersist)
	}
	if err != nil {
		s.logf("server: persistence: %v", err)
		s.ctrs.Inc(p, cPersistErrs)
		if s.persist.Policy() == persist.SyncAlways {
			// The in-memory commits stand, but the durability the policy
			// promises does not — fail the acknowledgments rather than lie
			// about them. Every OK update response in the batch is one of
			// the logged records; the conversions count as BadReqs so the
			// drift is visible in the stats.
			msg := fmt.Sprintf("persistence failure: %v", err)
			for i := range cs.batch {
				r := &cs.unit.resps[base+i]
				if op := cs.batch[i].req.Op; r.Status == wire.StatusOK && (op == wire.OpUpdate || op == wire.OpUpdateMulti) {
					s.reject(p, r, wire.StatusBadRequest, msg)
				}
			}
		}
	}
	return p
}

// fillSpans builds a span from the batch clock for every traced request
// of the batch — admitted or busy — records the request's outcome,
// echoes the stage breakdown on wire-flagged OK responses (response
// index base+i), and adds the span to the unit for the writer to finish.
func (cs *connState) fillSpans(base int) {
	for i := range cs.batch {
		br := &cs.batch[i]
		if !br.req.Traced && !br.sampled {
			continue
		}
		resp := &cs.unit.resps[base+i]
		sp := trace.NewSpan(&cs.clk)
		sp.Op, sp.Key, sp.Sampled = uint8(br.req.Op), br.req.Key, br.sampled
		sp.Attempts, sp.Batch = resp.Attempts, uint32(len(cs.batch))
		sp.Err = resp.Status != wire.StatusOK
		if br.sampled {
			sp.TraceID = trace.NewID()
		} else {
			sp.TraceID = br.req.TraceID
			if !sp.Err {
				resp.Traced, resp.TraceID = true, sp.TraceID
				resp.Stages = append(resp.Stages, sp.Stages[:trace.WireStages]...)
			}
		}
		cs.unit.spans = append(cs.unit.spans, sp)
	}
}

// busyMsg and degradedMsg are the constant rejection texts: both paths
// run under load (busy: every over-capacity batch; degraded: every
// update while sick), so they must not format anything per request.
const (
	busyMsg     = "server busy: inflight batch limit reached, retry with backoff"
	degradedMsg = "server degraded: durability log failed, updates disabled (reads still serve)"
)

// rejectBusy answers every request of the gathered batch with
// StatusBusy — the server's explicit promise that none of them reached
// the map, which is what lets clients safely retry even updates. It
// runs with no registry slot in hand, so counting uses stripe 0 (like
// the other no-slot paths); traced requests still get spans from
// fillSpans, so an overloaded server remains observable through /tracez.
func (s *Server) rejectBusy(cs *connState) {
	s.ctrs.Add(0, cBusy, uint64(len(cs.batch)))
	for i := range cs.batch {
		resp := cs.unit.add()
		resp.ID = cs.batch[i].req.ID
		s.reject(0, resp, wire.StatusBusy, busyMsg)
	}
}

// Checkpoint rewrites the durability store's snapshot file and
// truncates its logs (see persist.Store.Checkpoint). The watermark
// capture runs as an identity transaction over all shards: cross-shard
// atomic, so the snapshot is one consistent cut, and conflicting with
// every shard, so the sequence number drawn inside the callback cleanly
// separates the updates the snapshot contains from those it does not.
// Serving continues concurrently; only the capture's brief all-shard
// lock is shared with foreground traffic.
func (s *Server) Checkpoint() error {
	if s.persist == nil {
		return errors.New("server: no durability store attached")
	}
	return s.persist.Checkpoint(func() ([][]uint64, uint64, error) {
		rows := s.m.NewSnapshotBuffer()
		keys := make([]uint64, s.m.Shards())
		for i := range keys {
			keys[i] = s.m.KeyForShard(i)
		}
		var watermark uint64
		h := s.m.Acquire()
		defer h.Release()
		h.UpdateMulti(keys, func(vals [][]uint64) {
			watermark = s.persist.NextSeq()
			for i, v := range vals {
				copy(rows[i], v)
			}
		})
		return rows, watermark, nil
	})
}

// execute runs one request, filling resp (a unit response reset by
// batchOut.add). With a store attached, each committed update appends
// its record to cs.recs, carrying the Seq its committing merge run drew
// — the number that orders it against every other committed update.
func (s *Server) execute(cs *connState, h *shard.MapHandle, p int, req *wire.Request, resp *wire.Response) {
	resp.ID = req.ID
	w := s.m.W()
	switch req.Op {
	case wire.OpPing:
		// Empty OK response.

	case wire.OpRead:
		s.ctrs.Inc(p, cReads)
		resp.Rows, resp.Words = 1, uint32(w)
		h.Read(req.Key, sizedData(resp, w))

	case wire.OpUpdate, wire.OpUpdateMulti:
		nk, ctr := 1, cUpdates
		if req.Op == wire.OpUpdateMulti {
			nk, ctr = len(req.Keys), cMultis
		}
		s.ctrs.Inc(p, ctr)
		switch {
		case cs.degraded:
			s.ctrs.Inc(p, cDegraded)
			s.reject(p, resp, wire.StatusUnavailable, degradedMsg)
			return
		case len(req.Args) != nk*w:
			s.fail(p, resp, "%v args have %d words, want %d keys × width %d", req.Op, len(req.Args), nk, w)
			return
		case req.Mode > wire.ModeSet:
			s.fail(p, resp, "unknown update mode %d", req.Mode)
			return
		}
		resp.Rows, resp.Words = uint32(nk), uint32(w)
		cs.args, cs.mode, cs.dst, cs.w = req.Args, req.Mode, sizedData(resp, nk*w), w
		if req.Op == wire.OpUpdate {
			resp.Attempts = uint32(h.Update(req.Key, cs.mergeOne))
		} else {
			resp.Attempts = uint32(h.UpdateMulti(req.Keys, cs.mergeMulti))
		}
		s.metrics.Attempts.Observe(p, uint64(resp.Attempts))
		if s.persist != nil {
			cs.recs = append(cs.recs, persist.Record{Seq: cs.seq, Op: req.Op, Mode: req.Mode, Key: req.Key, Keys: req.Keys, Args: req.Args})
		}

	case wire.OpSnapshot, wire.OpSnapshotAtomic:
		s.ctrs.Inc(p, cSnapshots)
		k := s.m.Shards()
		// A K×W beyond one frame would be encoded and then kill the
		// client connection at its MaxFrame check; refuse it with a
		// clear error instead (llscd also refuses the geometry at
		// startup).
		if !SnapshotFits(k, w) {
			s.fail(p, resp, "snapshot of %d×%d words exceeds the %d-byte frame limit", k, w, wire.MaxFrame)
			return
		}
		resp.Rows, resp.Words = uint32(k), uint32(w)
		data := sizedData(resp, k*w)
		if cap(cs.rows) < k {
			cs.rows = make([][]uint64, k)
		}
		rows := cs.rows[:k]
		for i := range rows {
			rows[i] = data[i*w : (i+1)*w]
		}
		if req.Op == wire.OpSnapshotAtomic {
			resp.Attempts = uint32(h.SnapshotAtomic(rows))
		} else {
			h.Snapshot(rows)
		}

	case wire.OpStats:
		st := s.Stats()
		resp.Data = st.Append(resp.Data[:0])
		resp.Rows, resp.Words = 1, uint32(len(resp.Data))

	default:
		s.fail(p, resp, "unknown opcode %d", uint8(req.Op))
	}
}

// SnapshotFits reports whether a K×W snapshot response fits in one wire
// frame — the only response whose size is set by server geometry rather
// than by a (already frame-bounded) request.
func SnapshotFits(k, w int) bool {
	const respHeader = 9 + 12 // id+status, attempts+rows+words
	return k*w <= (wire.MaxFrame-respHeader)/8
}

// fail rejects resp with StatusBadRequest and a formatted message.
func (s *Server) fail(p int, resp *wire.Response, format string, args ...any) {
	s.reject(p, resp, wire.StatusBadRequest, fmt.Sprintf(format, args...))
}

// reject turns resp into an error response with status st and message
// msg, counting it as a BadReq on stripe p: the one writer of every
// error answer to a decoded request — invalid, busy, degraded, or an
// update whose durability failed.
func (s *Server) reject(p int, resp *wire.Response, st wire.Status, msg string) {
	s.ctrs.Inc(p, cBadReqs)
	resp.Status, resp.Err = st, msg
	resp.Attempts, resp.Rows, resp.Words = 0, 0, 0
	resp.Data = resp.Data[:0]
}
