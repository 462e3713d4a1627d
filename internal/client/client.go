// Package client is the Go client for the llscd serving layer: a
// connection pool speaking the wire protocol (internal/wire) with
// request pipelining, automatic write coalescing, and failure
// resilience (reconnect with capped exponential backoff, per-op
// deadline defaults, and a status-aware retry policy).
//
// Every call is safe for concurrent use. Calls are spread round-robin
// over the pool's connections; on each connection a writer goroutine
// drains a send queue and flushes only when the queue runs empty, so
// concurrent callers' requests coalesce into few syscalls and pipeline
// through the server's batch executor without any explicit batch API.
// A reader goroutine matches responses — which the server may reorder —
// back to callers by request id. Contexts are honored: a canceled call
// abandons its slot (the response, when it arrives, is dropped).
//
// # Failure semantics
//
// A connection that dies is redialed in the background with capped
// exponential backoff and jitter; callers never see a permanently
// broken pool unless the server stays unreachable. The retry policy is
// deliberately asymmetric about what a lost connection means:
//
//   - Idempotent ops (Ping, Read, Snapshot, SnapshotAtomic, Stats)
//     retry on any connection failure — re-executing them is harmless.
//   - Updates (Add/Set/AddMulti/SetMulti) are declarative but not
//     idempotent (Add applied twice double-counts), so they are NOT
//     retried when a connection dies with the request in flight — the
//     server may or may not have executed it. They surface an error
//     wrapping ErrConnBroken and the caller decides.
//   - Updates ARE retried when nothing was ever sent (the whole pool is
//     down between attempts) and on an explicit retryable status:
//     StatusBusy is the server's promise that it rejected the request
//     before executing any of it.
//   - StatusUnavailable (disk-sick read-only degraded mode) is not
//     retried: the condition is sticky until an operator intervenes.
//
// Context cancellation and deadlines are never retried and surface
// exactly as context.Canceled / context.DeadlineExceeded.
//
// The remote operations carry the same consistency contract as the
// in-process shard.Map they reach: per-key Update/Read linearizable per
// shard, UpdateMulti a cross-shard atomic commit, Snapshot per-shard
// atomic, SnapshotAtomic cross-shard linearizable.
package client

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mwllsc/internal/trace"
	"mwllsc/internal/wire"
)

// Option configures Dial.
type Option func(*config)

// Every connection attempt, initial and background redial alike, is
// bounded by dialTimeout; sendQueue is each connection's send queue
// depth, the pipelining window per connection.
const (
	dialTimeout = 5 * time.Second
	sendQueue   = 256
)

type config struct {
	conns       int
	opTimeout   time.Duration
	maxRetries  int
	backoffBase time.Duration
	backoffMax  time.Duration
}

// WithConns sets the pool size (default 1). More connections raise the
// server-side parallelism ceiling: each in-flight batch occupies one
// registry slot, and batches from different connections execute
// concurrently.
func WithConns(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.conns = n
		}
	}
}

// WithOpTimeout gives every call without its own context deadline a
// default deadline of d. Zero (the default) leaves calls unbounded —
// existing callers keep their exact context semantics.
func WithOpTimeout(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.opTimeout = d
		}
	}
}

// WithRetries sets how many times a failed call is retried beyond its
// first attempt (default 3), within its retry policy — see the package
// comment. 0 disables retries entirely.
func WithRetries(n int) Option {
	return func(c *config) {
		if n >= 0 {
			c.maxRetries = n
		}
	}
}

// WithBackoff sets the retry/reconnect backoff band: base is the first
// delay, max the cap of the exponential growth (defaults 2ms, 250ms).
// Each sleep is jittered over [d/2, d] to break retry synchronization
// across clients.
func WithBackoff(base, max time.Duration) Option {
	return func(c *config) {
		if base > 0 {
			c.backoffBase = base
		}
		if max > 0 {
			c.backoffMax = max
		}
	}
}

// ErrClosed is returned by calls on a closed Client.
var ErrClosed = errors.New("client: closed")

// ErrConnBroken wraps every error caused by a connection dying. For an
// update it marks the ambiguous outcome — the server may or may not
// have executed the request — which is exactly why updates are not
// retried on it.
var ErrConnBroken = errors.New("client: connection broken")

// ErrRetriesExhausted wraps the final error of a call that failed after
// its full retry budget.
var ErrRetriesExhausted = errors.New("client: retries exhausted")

// ErrBusy wraps a StatusBusy response: the server's admission control
// rejected the request before executing it. Safe to retry for every op
// (and retried automatically, with backoff).
var ErrBusy = errors.New("client: server busy")

// ErrUnavailable wraps a StatusUnavailable response: the server is in
// disk-sick read-only degraded mode and rejected the update without
// executing it. Not retried — the condition is sticky.
var ErrUnavailable = errors.New("client: server unavailable (degraded)")

// errNotSent marks a failure that happened before the request was ever
// enqueued, so retrying cannot double-execute anything.
var errNotSent = errors.New("request not sent")

// Trace is one traced call's client-side record. Pass it to a call via
// WithTrace; when the call returns, the client has filled in the
// client-side stage durations and any server-side breakdown the
// response carried. A Trace must not be shared across concurrent calls.
type Trace struct {
	// ID is the trace id the request carries on the wire. Zero asks the
	// client to generate one (filled in before the request is sent).
	ID uint64
	// QueueWait is the send-queue wait: from the call enqueueing its
	// encoded request to the writer goroutine picking it up.
	QueueWait time.Duration
	// RoundTrip covers the wire and the server: from the writer picking
	// the request up to the response being decoded.
	RoundTrip time.Duration
	// Total is the call's full client-side duration (QueueWait +
	// RoundTrip, measured independently).
	Total time.Duration
	// ServerStages holds the server's echoed per-stage durations in
	// nanoseconds, in internal/trace stage order (decode, queue,
	// acquire, execute, persist, fsync). Empty when the server did not
	// echo a breakdown: an old server, or a response with a non-OK
	// status.
	ServerStages []uint64
}

// traceKey carries a *Trace through a context.
type traceKey struct{}

// WithTrace returns a context that traces the one call made with it:
// the request is flagged on the wire (the server traces it under
// t.ID and echoes its stage breakdown) and t is filled in when the
// call completes. The caller owns t; reuse it only sequentially.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// Client is a pooled, self-healing connection to one llscd server.
type Client struct {
	addr   string
	cfg    config
	slots  []*slot
	next   atomic.Uint64
	closed atomic.Bool
	closeC chan struct{} // closed by Close; wakes backoff sleeps
	wg     sync.WaitGroup

	retries    atomic.Uint64 // attempts beyond the first, all calls
	reconnects atomic.Uint64 // successful background redials
}

// slot is one pool position: it holds the current connection and
// redials in the background when that connection breaks, so the pool
// heals without any caller waiting on a dial.
type slot struct {
	c         *Client
	mu        sync.Mutex
	cn        *conn // nil while down
	redialing bool
}

// Dial connects the pool to addr. Initial connections are dialed
// synchronously — a dead target fails Dial instead of queueing calls.
func Dial(addr string, opts ...Option) (*Client, error) {
	cfg := config{
		conns: 1, maxRetries: 3,
		backoffBase: 2 * time.Millisecond, backoffMax: 250 * time.Millisecond,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	c := &Client{addr: addr, cfg: cfg, closeC: make(chan struct{})}
	for i := 0; i < cfg.conns; i++ {
		cn, err := c.dialConn()
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("client: dialing %s: %w", addr, err)
		}
		c.slots = append(c.slots, &slot{c: c, cn: cn})
	}
	return c, nil
}

func (c *Client) dialConn() (*conn, error) {
	nc, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // latency over bandwidth; coalescing happens in the writer
	}
	return newConn(nc), nil
}

// Close tears down every connection; in-flight calls fail with ErrClosed.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	close(c.closeC)
	for _, sl := range c.slots {
		sl.mu.Lock()
		cn := sl.cn
		sl.mu.Unlock()
		if cn != nil {
			cn.close(ErrClosed)
		}
	}
	c.wg.Wait() // redial goroutines exit via closeC
	return nil
}

// Reconnects returns how many background redials have succeeded.
func (c *Client) Reconnects() uint64 { return c.reconnects.Load() }

// Retries returns how many call attempts beyond the first have been
// made (transport retries and busy retries together).
func (c *Client) Retries() uint64 { return c.retries.Load() }

// pick returns the next healthy connection round-robin, kicking a
// background redial for every broken slot it passes over.
func (c *Client) pick() (*conn, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	n := len(c.slots)
	// Reduce in uint64 before narrowing: int(counter) goes negative on
	// 32-bit platforms once the counter passes 2^31.
	start := int((c.next.Add(1) - 1) % uint64(n))
	var lastErr error
	for i := 0; i < n; i++ {
		sl := c.slots[(start+i)%n]
		sl.mu.Lock()
		cn := sl.cn
		sl.mu.Unlock()
		if cn != nil {
			if err := cn.err(); err == nil {
				return cn, nil
			} else {
				lastErr = err
			}
		}
		sl.ensureRedial()
	}
	if lastErr != nil && errors.Is(lastErr, ErrConnBroken) {
		return nil, fmt.Errorf("client: all %d connections down: %w", n, lastErr)
	}
	return nil, fmt.Errorf("client: all %d connections down (reconnecting): %w", n, ErrConnBroken)
}

// ensureRedial retires a broken connection from the slot and starts the
// background redial loop, at most one per slot.
func (sl *slot) ensureRedial() {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.redialing || sl.c.closed.Load() {
		return
	}
	if sl.cn != nil && sl.cn.err() == nil {
		return // healed by a racing pick
	}
	sl.cn = nil
	sl.redialing = true
	sl.c.wg.Add(1)
	go sl.redial()
}

// redial dials until it succeeds or the client closes, sleeping a
// capped, jittered exponential backoff between attempts.
func (sl *slot) redial() {
	c := sl.c
	defer c.wg.Done()
	d := c.cfg.backoffBase
	for {
		if c.closed.Load() {
			sl.mu.Lock()
			sl.redialing = false
			sl.mu.Unlock()
			return
		}
		cn, err := c.dialConn()
		if err == nil {
			sl.mu.Lock()
			if c.closed.Load() {
				sl.redialing = false
				sl.mu.Unlock()
				cn.close(ErrClosed)
				return
			}
			sl.cn = cn
			sl.redialing = false
			sl.mu.Unlock()
			c.reconnects.Add(1)
			return
		}
		t := time.NewTimer(jitter(d))
		select {
		case <-t.C:
		case <-c.closeC:
			t.Stop()
			sl.mu.Lock()
			sl.redialing = false
			sl.mu.Unlock()
			return
		}
		if d < c.cfg.backoffMax {
			d *= 2
			if d > c.cfg.backoffMax {
				d = c.cfg.backoffMax
			}
		}
	}
}

// jitter spreads d over [d/2, d] so a fleet of clients does not retry
// in lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return time.Millisecond
	}
	return d/2 + time.Duration(rand.Int64N(int64(d/2)+1))
}

// opCtx applies the configured default op deadline when the caller's
// context has none.
func (c *Client) opCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.cfg.opTimeout <= 0 {
		return ctx, nil
	}
	if _, ok := ctx.Deadline(); ok {
		return ctx, nil
	}
	return context.WithTimeout(ctx, c.cfg.opTimeout)
}

// do runs req through the retry policy: pick a connection, send, map
// the response status, classify any failure, back off, repeat. idem
// marks ops safe to re-execute; see the package comment for the exact
// policy.
func (c *Client) do(ctx context.Context, req *wire.Request, idem bool) (*wire.Response, error) {
	ctx, cancel := c.opCtx(ctx)
	if cancel != nil {
		defer cancel()
	}
	for attempt := 0; ; attempt++ {
		cn, err := c.pick()
		sent := false
		if err == nil {
			sent = true
			var resp *wire.Response
			resp, err = cn.do(ctx, req)
			if err == nil {
				err = statusErr(resp)
			}
			if err == nil {
				return resp, nil
			}
		}
		if !retryable(err, idem, sent) {
			return nil, err
		}
		if attempt >= c.cfg.maxRetries {
			return nil, fmt.Errorf("%w (%d attempts): %w", ErrRetriesExhausted, attempt+1, err)
		}
		c.retries.Add(1)
		d := c.cfg.backoffBase << attempt
		if d <= 0 || d > c.cfg.backoffMax {
			d = c.cfg.backoffMax
		}
		t := time.NewTimer(jitter(d))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		case <-c.closeC:
			t.Stop()
			return nil, ErrClosed
		}
	}
}

// retryable classifies one attempt's failure. sent reports whether the
// request reached a connection at all — when it never did, even a
// non-idempotent update is safe to retry.
func retryable(err error, idem, sent bool) bool {
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return false // the caller's clock ran out; retrying steals time it no longer has
	case errors.Is(err, ErrClosed):
		return false
	case errors.Is(err, ErrBusy):
		return true // explicit pre-execution rejection: safe for every op
	case errors.Is(err, ErrUnavailable):
		return false // sticky degraded mode; retrying hammers a sick server
	case errors.Is(err, errNotSent):
		return true // the connection was already dead before we queued
	case errors.Is(err, ErrConnBroken):
		return idem || !sent
	}
	return false
}

// statusErr maps a non-OK response status to an error.
func statusErr(resp *wire.Response) error {
	switch resp.Status {
	case wire.StatusOK:
		return nil
	case wire.StatusShutdown:
		return fmt.Errorf("client: server shutting down: %s", resp.Err)
	case wire.StatusBusy:
		return fmt.Errorf("%w: %s", ErrBusy, resp.Err)
	case wire.StatusUnavailable:
		return fmt.Errorf("%w: %s", ErrUnavailable, resp.Err)
	default:
		return fmt.Errorf("client: %v: %s", resp.Status, resp.Err)
	}
}

// Ping round-trips an empty request.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.do(ctx, &wire.Request{Op: wire.OpPing}, true)
	return err
}

// Read returns the current W-word value of the shard owning key.
func (c *Client) Read(ctx context.Context, key uint64) ([]uint64, error) {
	resp, err := c.do(ctx, &wire.Request{Op: wire.OpRead, Key: key}, true)
	if err != nil {
		return nil, err
	}
	return resp.Data, nil
}

// Add atomically adds deltas (word by word, wrapping; len = the map's W)
// to the value owning key and returns the resulting value — the
// multiword fetch-and-add.
func (c *Client) Add(ctx context.Context, key uint64, deltas []uint64) ([]uint64, error) {
	return c.update(ctx, wire.ModeAdd, key, deltas)
}

// Set atomically overwrites the value owning key and returns the stored
// value.
func (c *Client) Set(ctx context.Context, key uint64, vals []uint64) ([]uint64, error) {
	return c.update(ctx, wire.ModeSet, key, vals)
}

func (c *Client) update(ctx context.Context, mode wire.Mode, key uint64, args []uint64) ([]uint64, error) {
	resp, err := c.do(ctx, &wire.Request{Op: wire.OpUpdate, Mode: mode, Key: key, Args: args}, false)
	if err != nil {
		return nil, err
	}
	return resp.Data, nil
}

// AddMulti atomically adds deltas[i] to the value of keys[i] for all i
// in one cross-shard transaction (len(deltas) = len(keys), each W
// words), returning the resulting values. Keys in the same shard alias
// the same stored value, exactly as in-process.
func (c *Client) AddMulti(ctx context.Context, keys []uint64, deltas [][]uint64) ([][]uint64, error) {
	return c.updateMulti(ctx, wire.ModeAdd, keys, deltas)
}

// SetMulti atomically overwrites the values of keys in one cross-shard
// transaction, returning the stored values.
func (c *Client) SetMulti(ctx context.Context, keys []uint64, vals [][]uint64) ([][]uint64, error) {
	return c.updateMulti(ctx, wire.ModeSet, keys, vals)
}

func (c *Client) updateMulti(ctx context.Context, mode wire.Mode, keys []uint64, args [][]uint64) ([][]uint64, error) {
	if len(args) != len(keys) {
		return nil, fmt.Errorf("client: %d keys but %d arg rows", len(keys), len(args))
	}
	// The wire's key count is a uint16; checking here keeps a wrapped
	// count from ever reaching the server.
	if len(keys) == 0 || len(keys) > wire.MaxMultiKeys {
		return nil, fmt.Errorf("client: updatemulti with %d keys, want 1..%d", len(keys), wire.MaxMultiKeys)
	}
	flat := make([]uint64, 0, len(keys)*wordsOf(args))
	for _, row := range args {
		flat = append(flat, row...)
	}
	resp, err := c.do(ctx, &wire.Request{Op: wire.OpUpdateMulti, Mode: mode, Keys: keys, Args: flat}, false)
	if err != nil {
		return nil, err
	}
	return rows(resp), nil
}

// Snapshot returns every shard's value (K rows of W words), each row
// individually atomic (rows may stem from different instants; see
// SnapshotAtomic for one consistent cut).
func (c *Client) Snapshot(ctx context.Context) ([][]uint64, error) {
	return c.snapshot(ctx, wire.OpSnapshot)
}

// SnapshotAtomic returns every shard's value from one instant — the
// cross-shard linearizable snapshot.
func (c *Client) SnapshotAtomic(ctx context.Context) ([][]uint64, error) {
	return c.snapshot(ctx, wire.OpSnapshotAtomic)
}

func (c *Client) snapshot(ctx context.Context, op wire.Op) ([][]uint64, error) {
	resp, err := c.do(ctx, &wire.Request{Op: op}, true)
	if err != nil {
		return nil, err
	}
	return rows(resp), nil
}

// Stats returns the server's counter snapshot.
func (c *Client) Stats(ctx context.Context) (wire.ServerStats, error) {
	resp, err := c.do(ctx, &wire.Request{Op: wire.OpStats}, true)
	if err != nil {
		return wire.ServerStats{}, err
	}
	return wire.DecodeStats(resp.Data)
}

// rows reshapes a response's flat data into its Rows×Words grid.
func rows(resp *wire.Response) [][]uint64 {
	w := int(resp.Words)
	out := make([][]uint64, resp.Rows)
	for i := range out {
		out[i] = resp.Data[i*w : (i+1)*w]
	}
	return out
}

func wordsOf(rows [][]uint64) int {
	if len(rows) == 0 {
		return 0
	}
	return len(rows[0])
}

// pending is one in-flight request's completion slot. sentNS is the
// wall-clock instant the writer goroutine dequeued the request, stored
// atomically because no other happens-before edge links the writer to
// the caller that reads it after completion.
type pending struct {
	done   chan struct{}
	resp   wire.Response
	err    error
	sentNS atomic.Int64
}

// sendReq is one queued request: its encoded payload, plus its pending
// slot when the call is traced (nil otherwise) so the writer can stamp
// the send-queue wait.
type sendReq struct {
	payload []byte
	traced  *pending
}

// conn is one pooled connection: a send queue drained by a writer
// goroutine (coalescing frames) and a reader goroutine completing
// pendings by id.
type conn struct {
	nc     net.Conn
	send   chan sendReq  // encoded requests awaiting the writer
	dead   chan struct{} // closed when the conn fails or is closed
	close1 sync.Once

	mu     sync.Mutex
	pend   map[uint64]*pending
	nextID uint64
	broken error
}

func newConn(nc net.Conn) *conn {
	cn := &conn{
		nc:   nc,
		send: make(chan sendReq, sendQueue),
		dead: make(chan struct{}),
		pend: make(map[uint64]*pending),
	}
	go cn.writeLoop()
	go cn.readLoop()
	return cn
}

func (cn *conn) err() error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.broken
}

// close fails the connection: every pending and queued request
// completes with err, and the socket is torn down.
func (cn *conn) close(err error) {
	cn.close1.Do(func() {
		cn.mu.Lock()
		cn.broken = err
		pend := cn.pend
		cn.pend = map[uint64]*pending{}
		cn.mu.Unlock()
		close(cn.dead)
		cn.nc.Close()
		for _, p := range pend {
			p.err = err
			close(p.done)
		}
	})
}

// do registers a pending slot, enqueues the encoded request, and waits.
func (cn *conn) do(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	p := &pending{done: make(chan struct{})}
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	if tr != nil {
		if tr.ID == 0 {
			tr.ID = trace.NewID()
		}
		req.Traced, req.TraceID = true, tr.ID
	}

	cn.mu.Lock()
	if cn.broken != nil {
		err := cn.broken
		cn.mu.Unlock()
		return nil, fmt.Errorf("%w: %w", errNotSent, err)
	}
	cn.nextID++
	id := cn.nextID
	cn.pend[id] = p
	cn.mu.Unlock()

	req.ID = id
	sr := sendReq{payload: wire.AppendRequest(nil, req)}
	if len(sr.payload) > wire.MaxFrame {
		// Nothing was sent and the connection stays up: the writer would
		// otherwise fail the frame and tear down every caller's requests.
		cn.forget(id)
		return nil, fmt.Errorf("client: request payload %d bytes exceeds wire.MaxFrame %d", len(sr.payload), wire.MaxFrame)
	}
	var tEnq time.Time
	if tr != nil {
		sr.traced = p
		tEnq = time.Now()
	}
	select {
	case cn.send <- sr:
	case <-ctx.Done():
		cn.forget(id)
		return nil, ctx.Err()
	case <-p.done:
		return nil, p.err // connection failed while we queued
	}

	select {
	case <-p.done:
		if p.err != nil {
			return nil, p.err
		}
		if tr != nil {
			end := time.Now()
			tr.Total = end.Sub(tEnq)
			if ns := p.sentNS.Load(); ns != 0 {
				sent := time.Unix(0, ns)
				tr.QueueWait = sent.Sub(tEnq)
				tr.RoundTrip = end.Sub(sent)
			}
			tr.ServerStages = tr.ServerStages[:0]
			if p.resp.Traced {
				tr.ServerStages = append(tr.ServerStages, p.resp.Stages...)
			}
		}
		return &p.resp, nil
	case <-ctx.Done():
		cn.forget(id)
		return nil, ctx.Err()
	}
}

// forget abandons a pending slot (context cancellation); a late
// response for the id is dropped by the reader.
func (cn *conn) forget(id uint64) {
	cn.mu.Lock()
	delete(cn.pend, id)
	cn.mu.Unlock()
}

// writeLoop drains the send queue, coalescing every already-queued
// request into one buffer before handing it to the kernel.
func (cn *conn) writeLoop() {
	bw := bufio.NewWriterSize(cn.nc, 64<<10)
	for {
		var sr sendReq
		select {
		case sr = <-cn.send:
		case <-cn.dead:
			return
		}
		if sr.traced != nil {
			sr.traced.sentNS.Store(time.Now().UnixNano())
		}
		if err := wire.WriteFrame(bw, sr.payload); err != nil {
			cn.close(fmt.Errorf("%w: write: %w", ErrConnBroken, err))
			return
		}
		// Coalesce: keep encoding while more requests are queued; flush
		// only when the queue runs empty.
		for {
			select {
			case next := <-cn.send:
				if next.traced != nil {
					next.traced.sentNS.Store(time.Now().UnixNano())
				}
				if err := wire.WriteFrame(bw, next.payload); err != nil {
					cn.close(fmt.Errorf("%w: write: %w", ErrConnBroken, err))
					return
				}
				continue
			default:
			}
			break
		}
		if err := bw.Flush(); err != nil {
			cn.close(fmt.Errorf("%w: flush: %w", ErrConnBroken, err))
			return
		}
	}
}

// readLoop decodes response frames and completes pendings by id.
//
// The response id is the frame's first 8 words of payload, so the loop
// matches the pending first and decodes straight into the caller's
// slot: the waiting caller's Response — not a loop-local temporary —
// owns the decoded Data. Frames nobody is waiting for (canceled
// callers, the server's id-0 error frame) decode into a per-connection
// scratch Response whose Data backing array is reused, so a stream of
// abandoned responses costs no per-frame allocation.
//
// Transport failures wrap ErrConnBroken (the retry policy's ambiguous
// case); protocol corruption — a malformed or undecodable frame — does
// not, so it surfaces to the caller immediately instead of being
// retried against a server that is speaking garbage.
func (cn *conn) readLoop() {
	br := bufio.NewReaderSize(cn.nc, 64<<10)
	var frame []byte
	var scratch wire.Response
	for {
		var err error
		frame, err = wire.ReadFrame(br, frame)
		if err != nil {
			cn.close(fmt.Errorf("%w: read: %w", ErrConnBroken, err))
			return
		}
		if len(frame) < 8 {
			cn.close(fmt.Errorf("client: response frame %d bytes, need >= 8", len(frame)))
			return
		}
		cn.mu.Lock()
		id := binary.LittleEndian.Uint64(frame)
		p := cn.pend[id]
		delete(cn.pend, id)
		cn.mu.Unlock()
		if p == nil {
			// Still decode, so a malformed frame kills the connection
			// instead of silently desynchronizing it.
			if err := wire.DecodeResponse(&scratch, frame); err != nil {
				cn.close(err)
				return
			}
			continue
		}
		if err := wire.DecodeResponse(&p.resp, frame); err != nil {
			// p left the map above, so close() can no longer reach it:
			// complete it by hand before failing the connection.
			p.err = err
			close(p.done)
			cn.close(err)
			return
		}
		close(p.done)
	}
}
