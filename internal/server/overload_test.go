package server

import (
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"mwllsc/internal/fault"
	"mwllsc/internal/persist"
	"mwllsc/internal/shard"
	"mwllsc/internal/trace"
	"mwllsc/internal/wire"
)

// Internal tests for the overload controls: they reach the admission
// semaphore directly to make saturation deterministic instead of racing
// goroutines against a microsecond-wide window.

func newTestServer(t *testing.T, opts ...Option) (*Server, string) {
	t.Helper()
	m, err := shard.NewMap(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := New(m, opts...)
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	t.Cleanup(func() { s.Close() })
	return s, addr.String()
}

func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func sendReq(t *testing.T, c net.Conn, req *wire.Request) {
	t.Helper()
	if err := wire.WriteFrame(c, wire.AppendRequest(nil, req)); err != nil {
		t.Fatalf("send request: %v", err)
	}
}

func readResp(t *testing.T, c net.Conn) *wire.Response {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	frame, err := wire.ReadFrame(c, nil)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	var resp wire.Response
	if err := wire.DecodeResponse(&resp, frame); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return &resp
}

// waitClosed asserts the peer closes c: the next read returns EOF or a
// reset instead of blocking.
func waitClosed(t *testing.T, c net.Conn) {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var b [1]byte
	_, err := c.Read(b[:])
	if err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatal("connection still delivering data, want close")
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("connection still open after 5s, want server-side close")
	}
}

func waitConnsOpen(t *testing.T, s *Server, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.ctrs.Sum(cConnsOpen) != want && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := s.ctrs.Sum(cConnsOpen); got != want {
		t.Fatalf("ConnsOpen = %d, want %d", got, want)
	}
}

func TestMaxConnsShed(t *testing.T) {
	s, addr := newTestServer(t, WithMaxConns(2))
	c1, c2 := rawDial(t, addr), rawDial(t, addr)
	sendReq(t, c1, &wire.Request{ID: 1, Op: wire.OpPing})
	sendReq(t, c2, &wire.Request{ID: 2, Op: wire.OpPing})
	readResp(t, c1)
	readResp(t, c2)

	// The third connection is shed at accept: closed before a byte.
	c3 := rawDial(t, addr)
	waitClosed(t, c3)
	if got := s.Stats().ShedConns; got != 1 {
		t.Fatalf("ShedConns = %d, want 1", got)
	}
	// The survivors still serve, and freeing a slot readmits.
	sendReq(t, c1, &wire.Request{ID: 3, Op: wire.OpPing})
	if resp := readResp(t, c1); resp.Status != wire.StatusOK {
		t.Fatalf("survivor got %v after shed", resp.Status)
	}
	c2.Close()
	waitConnsOpen(t, s, 1)
	c4 := rawDial(t, addr)
	sendReq(t, c4, &wire.Request{ID: 4, Op: wire.OpPing})
	if resp := readResp(t, c4); resp.Status != wire.StatusOK {
		t.Fatalf("readmitted conn got %v", resp.Status)
	}
}

func TestIdleTimeoutCloses(t *testing.T) {
	s, addr := newTestServer(t, WithIdleTimeout(50*time.Millisecond))
	c := rawDial(t, addr)
	sendReq(t, c, &wire.Request{ID: 1, Op: wire.OpPing})
	if resp := readResp(t, c); resp.Status != wire.StatusOK {
		t.Fatalf("ping got %v", resp.Status)
	}
	// Go quiet past the deadline: the server closes from its side, the
	// connection goroutines drain, and the closure is counted.
	waitClosed(t, c)
	waitConnsOpen(t, s, 0)
	if got := s.Stats().IdleCloses; got != 1 {
		t.Fatalf("IdleCloses = %d, want 1", got)
	}
}

// TestIdleTimeoutSparesActiveClient: a client that keeps requests
// coming — slower than the batch rate but faster than the deadline —
// is never closed.
func TestIdleTimeoutSparesActiveClient(t *testing.T) {
	s, addr := newTestServer(t, WithIdleTimeout(200*time.Millisecond))
	c := rawDial(t, addr)
	for i := 0; i < 10; i++ {
		sendReq(t, c, &wire.Request{ID: uint64(i), Op: wire.OpPing})
		if resp := readResp(t, c); resp.Status != wire.StatusOK {
			t.Fatalf("ping %d got %v", i, resp.Status)
		}
		time.Sleep(30 * time.Millisecond)
	}
	if got := s.Stats().IdleCloses; got != 0 {
		t.Fatalf("IdleCloses = %d for an active client, want 0", got)
	}
}

// TestWriteStallEviction: a peer that requests snapshots and never
// reads the responses fills its TCP window; the write deadline evicts
// it instead of parking the writer goroutine forever.
func TestWriteStallEviction(t *testing.T) {
	m, err := shard.NewMap(64, 4, 64) // 32 KiB per snapshot response
	if err != nil {
		t.Fatal(err)
	}
	s := New(m, WithWriteTimeout(100*time.Millisecond))
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	defer s.Close()

	baseline := runtime.NumGoroutine()
	c := rawDial(t, addr.String())
	// Enough snapshot responses to overrun any default socket buffer
	// while this side never reads a byte.
	for i := 0; i < 256; i++ {
		sendReq(t, c, &wire.Request{ID: uint64(i), Op: wire.OpSnapshot})
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Evictions == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.Stats().Evictions; got == 0 {
		t.Fatal("stalled reader was never evicted")
	}
	// Both connection goroutines must unwind — the eviction closed the
	// conn, so the read loop sees the error too.
	waitConnsOpen(t, s, 0)
	dl := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(dl) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutine leak after eviction: %d > %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestBusyRejectWhenSaturated fills the admission semaphore by hand —
// the deterministic stand-in for max-inflight concurrent batches — and
// checks the whole-batch StatusBusy rejection, then that draining a
// token readmits.
func TestBusyRejectWhenSaturated(t *testing.T) {
	s, addr := newTestServer(t, WithMaxInflight(2))
	s.sem <- struct{}{}
	s.sem <- struct{}{}

	c := rawDial(t, addr)
	sendReq(t, c, &wire.Request{ID: 7, Op: wire.OpUpdate, Key: 1, Mode: wire.ModeAdd, Args: []uint64{1}})
	resp := readResp(t, c)
	if resp.Status != wire.StatusBusy {
		t.Fatalf("saturated server answered %v, want StatusBusy", resp.Status)
	}
	if resp.ID != 7 || resp.Err == "" {
		t.Fatalf("busy response = id %d err %q, want the request id and a message", resp.ID, resp.Err)
	}
	st := s.Stats()
	if st.BusyRejects != 1 || st.BadReqs != 1 {
		t.Fatalf("BusyRejects=%d BadReqs=%d, want 1 and 1", st.BusyRejects, st.BadReqs)
	}
	// The rejected update must not have touched the map.
	got := make([]uint64, 1)
	s.Map().Read(1, got)
	if got[0] != 0 {
		t.Fatalf("rejected update reached the map: key 1 = %d", got[0])
	}

	<-s.sem // capacity frees up
	sendReq(t, c, &wire.Request{ID: 8, Op: wire.OpUpdate, Key: 1, Mode: wire.ModeAdd, Args: []uint64{1}})
	if resp := readResp(t, c); resp.Status != wire.StatusOK {
		t.Fatalf("after drain got %v, want OK", resp.Status)
	}
	s.Map().Read(1, got)
	if got[0] != 1 {
		t.Fatalf("admitted update lost: key 1 = %d, want 1", got[0])
	}
	<-s.sem
}

// TestBusyRejectTracedSpan: a busy-rejected batch still produces spans
// through the shared span-fill path. Three pipelined requests arrive in
// one write, the middle one client-flagged; the saturated server must
// answer all three busy and retire exactly one span, marked Err, under
// the client's id, with the rejected batch's size.
func TestBusyRejectTracedSpan(t *testing.T) {
	tr := trace.New(trace.Config{})
	s, addr := newTestServer(t, WithMaxInflight(1), WithTracer(tr))
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	const traceID uint64 = 0xb05ec0de
	var buf []byte
	for i := uint64(1); i <= 3; i++ {
		req := &wire.Request{ID: i, Op: wire.OpRead, Key: i}
		if i == 2 {
			req.Traced, req.TraceID = true, traceID
		}
		buf = wire.AppendFrame(buf, wire.AppendRequest(nil, req))
	}
	c := rawDial(t, addr)
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if resp := readResp(t, c); resp.Status != wire.StatusBusy || resp.Traced {
			t.Fatalf("response %d: status %v traced %v, want busy without a trace echo", resp.ID, resp.Status, resp.Traced)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for tr.Stats().Retired < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	spans := tr.Recent(nil, 0)
	if len(spans) != 1 {
		t.Fatalf("retired %d spans, want exactly 1: %+v", len(spans), spans)
	}
	sp := spans[0]
	if !sp.Err || sp.Sampled || sp.TraceID != traceID || sp.Batch != 3 || sp.Key != 2 {
		t.Fatalf("busy span = %+v, want Err, client id %x, batch 3, key 2", sp, traceID)
	}
	var sum uint64
	for _, d := range sp.Stages {
		sum += d
	}
	if sum != sp.Total {
		t.Fatalf("busy span stage sum %d != total %d", sum, sp.Total)
	}
	if st := s.Stats(); st.BusyRejects != 3 {
		t.Fatalf("BusyRejects = %d, want 3", st.BusyRejects)
	}
}

// TestBusyRejectZeroAlloc holds the busy path to its promise: rejecting
// a batch — traced request included — allocates nothing once the
// connection's units are warm.
func TestBusyRejectZeroAlloc(t *testing.T) {
	const batchN = 8
	m, err := shard.NewMap(4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := New(m, WithMaxInflight(1))
	s.sem <- struct{}{}
	cs := s.newConnState()
	round := func() {
		mkReadBatch(cs, batchN)
		cs.batch[0].sampled = true
		s.execRound(cs)
	}
	for i := 0; i < outUnits; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("busy-rejected batch: %v allocs/op, want 0", allocs)
	}
	if got, want := s.Stats().BusyRejects, uint64((outUnits+201)*batchN); got != want {
		t.Fatalf("BusyRejects = %d, want %d", got, want)
	}
	if got := s.Tracer().Stats().Retired; got != outUnits+201 {
		t.Fatalf("retired %d spans, want one per round = %d", got, outUnits+201)
	}
}

// TestDegradedModeReadOnly drives the durability store into its sticky
// sick state through an injected disk fault and checks the degrade
// contract: updates bounce with StatusUnavailable, reads and stats keep
// serving from memory.
func TestDegradedModeReadOnly(t *testing.T) {
	m, err := shard.NewMap(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ff := fault.NewFiles(fault.FilesConfig{Seed: 3, FailWriteAfterBytes: 1})
	st, _, err := persist.Open(t.TempDir(), m, persist.Options{
		OpenLog: func(path string) (persist.LogFile, error) { return ff.Open(path) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := New(m, WithPersist(st), WithDegradeOnDiskError(true))
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	defer s.Close()

	c := rawDial(t, addr.String())
	// First update: committed in memory, but its append hits the fault
	// and poisons the store. Under SyncNone the ack still goes out (the
	// durability loss is visible as PersistErrs, not as a failure).
	sendReq(t, c, &wire.Request{ID: 1, Op: wire.OpUpdate, Key: 5, Mode: wire.ModeSet, Args: []uint64{42}})
	if resp := readResp(t, c); resp.Status != wire.StatusOK {
		t.Fatalf("poisoning update got %v", resp.Status)
	}
	if !st.Sick() {
		t.Fatal("store not sick after injected append failure")
	}

	// Now degraded: updates bounce before touching the map...
	sendReq(t, c, &wire.Request{ID: 2, Op: wire.OpUpdate, Key: 5, Mode: wire.ModeSet, Args: []uint64{99}})
	resp := readResp(t, c)
	if resp.Status != wire.StatusUnavailable {
		t.Fatalf("update on sick store got %v, want StatusUnavailable", resp.Status)
	}
	sendReq(t, c, &wire.Request{ID: 3, Op: wire.OpUpdateMulti, Keys: []uint64{1, 2}, Mode: wire.ModeAdd, Args: []uint64{1, 1}})
	if resp := readResp(t, c); resp.Status != wire.StatusUnavailable {
		t.Fatalf("multi on sick store got %v, want StatusUnavailable", resp.Status)
	}

	// ...while reads still serve the in-memory truth.
	sendReq(t, c, &wire.Request{ID: 4, Op: wire.OpRead, Key: 5})
	rr := readResp(t, c)
	if rr.Status != wire.StatusOK || rr.Data[0] != 42 {
		t.Fatalf("read in degraded mode = %v %v, want OK [42]", rr.Status, rr.Data)
	}
	sendReq(t, c, &wire.Request{ID: 5, Op: wire.OpSnapshot})
	if resp := readResp(t, c); resp.Status != wire.StatusOK {
		t.Fatalf("snapshot in degraded mode got %v", resp.Status)
	}
	stats := s.Stats()
	if stats.DegradedRejects != 2 || stats.PersistErrs == 0 {
		t.Fatalf("DegradedRejects=%d PersistErrs=%d, want 2 and >0", stats.DegradedRejects, stats.PersistErrs)
	}
}

// TestDegradeOffKeepsAccepting: without the option, a sick store only
// shows up in PersistErrs — updates keep succeeding in memory. This
// pins the default so enabling degrade stays an explicit choice.
func TestDegradeOffKeepsAccepting(t *testing.T) {
	m, err := shard.NewMap(4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ff := fault.NewFiles(fault.FilesConfig{Seed: 4, FailWriteAfterBytes: 1})
	st, _, err := persist.Open(t.TempDir(), m, persist.Options{
		OpenLog: func(path string) (persist.LogFile, error) { return ff.Open(path) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := New(m, WithPersist(st))
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()
	defer s.Close()

	c := rawDial(t, addr.String())
	for i := 0; i < 3; i++ {
		sendReq(t, c, &wire.Request{ID: uint64(i), Op: wire.OpUpdate, Key: 5, Mode: wire.ModeAdd, Args: []uint64{1}})
		if resp := readResp(t, c); resp.Status != wire.StatusOK {
			t.Fatalf("update %d with degrade off got %v", i, resp.Status)
		}
	}
	stats := s.Stats()
	if stats.DegradedRejects != 0 || stats.PersistErrs == 0 {
		t.Fatalf("DegradedRejects=%d PersistErrs=%d, want 0 and >0", stats.DegradedRejects, stats.PersistErrs)
	}
}
