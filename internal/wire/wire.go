// Package wire defines the compact binary protocol spoken between the
// llscd server (internal/server) and its clients (internal/client): a
// length-prefixed frame carrying one request or one response, with an
// explicit request id so many requests can be in flight on one
// connection at once (pipelining) and responses may return out of
// order.
//
// Every data operation of the in-process map has a wire counterpart
// with the same consistency contract — Update and UpdateMulti become
// declarative (the server applies a per-word merge, Add or Set, instead
// of a caller closure, since closures do not travel), Read, Snapshot
// and SnapshotAtomic carry their per-key / per-shard-atomic /
// cross-shard-linearizable guarantees unchanged, and Stats exposes the
// server's counters.
//
// # Frame layout
//
// Everything is little-endian. A frame is
//
//	uint32 length | payload (length bytes)
//
// and a payload is
//
//	request:  uint64 id | uint8 op | op-specific body
//	response: uint64 id | uint8 status | body
//
// Request bodies:
//
//	Ping           —
//	Read           uint64 key
//	Update         uint8 mode | uint64 key | W×uint64 args
//	Snapshot       —
//	SnapshotAtomic —
//	UpdateMulti    uint8 mode | uint16 nkeys | nkeys×uint64 keys | (nkeys·W)×uint64 args
//	Stats          —
//
// Response bodies:
//
//	status OK:  uint32 attempts | uint32 rows | uint32 words | (rows·words)×uint64 data
//	status err: uint16 len | len bytes of message
//
// Rows×words is 1×W for Read/Update, nkeys×W for UpdateMulti, K×W for
// the snapshots, 1×len for Stats (see ServerStats), and 0×0 for Ping.
//
// # Trace suffix
//
// A request may carry an optional trailing trace suffix after its
// op-specific body:
//
//	uint8 'T' (0x54) | uint64 traceid
//
// asking the server to trace this request (internal/trace) and echo
// the per-stage latency breakdown. The suffix follows the same
// tolerant-decode rule as the Stats row's optional words: decoders
// that understand it parse it, and it is unambiguous for every opcode
// because every op-specific body is a whole number of 8-byte words
// after its fixed header, while the suffix is 9 bytes. Old clients
// never send it; servers that predate it reject the frame, so clients
// must flag requests only against servers known to speak it (see
// docs/WIRE.md).
//
// A response to a traced request carries its own trailing suffix
// after the data words:
//
//	uint8 'T' | uint64 traceid | uint8 nstages | nstages×uint64 stage-ns
//
// with the server-side stage durations in internal/trace stage order
// (decode, queue, acquire, execute, persist, fsync — flush cannot
// travel, it is still happening while these bytes leave). The server
// sends it only on responses to traced requests, so a client that
// never flags a request never sees one.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Op identifies a request's operation.
type Op uint8

// Request opcodes.
const (
	OpPing Op = iota + 1
	OpRead
	OpUpdate
	OpSnapshot
	OpSnapshotAtomic
	OpUpdateMulti
	OpStats
)

// String returns the opcode mnemonic.
func (o Op) String() string {
	switch o {
	case OpPing:
		return "ping"
	case OpRead:
		return "read"
	case OpUpdate:
		return "update"
	case OpSnapshot:
		return "snapshot"
	case OpSnapshotAtomic:
		return "snapshotatomic"
	case OpUpdateMulti:
		return "updatemulti"
	case OpStats:
		return "stats"
	default:
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
}

// Mode selects how Update/UpdateMulti merge the request's args into the
// stored value, word by word.
type Mode uint8

const (
	// ModeAdd adds each arg word to the stored word (wrapping) — the
	// fetch-and-add family: counters, ledgers, accumulators.
	ModeAdd Mode = iota
	// ModeSet overwrites each stored word with the arg word.
	ModeSet
)

// String returns the mode mnemonic.
func (m Mode) String() string {
	switch m {
	case ModeAdd:
		return "add"
	case ModeSet:
		return "set"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Status is the response's outcome code.
type Status uint8

// Response status codes.
const (
	StatusOK Status = iota
	// StatusBadRequest: the request did not decode, used an unknown
	// opcode, or had the wrong arg width for the server's W.
	StatusBadRequest
	// StatusShutdown: the server is draining; retry against another one.
	StatusShutdown
	// StatusBusy: the server's admission controller rejected the request
	// before executing any of it (no map state was touched), because too
	// many batches were already in flight. Explicitly retryable for every
	// op, including non-idempotent updates: the server guarantees the
	// request did not run. Clients should back off before retrying.
	StatusBusy
	// StatusUnavailable: the server is in disk-sick read-only degraded
	// mode (a sticky persistence failure with -degrade-on-disk-error);
	// the update was rejected without touching the map so it cannot be
	// acked-but-lost. Reads keep working. Not worth retrying against the
	// same server: the condition is sticky until an operator intervenes.
	StatusUnavailable
)

// String returns the status mnemonic.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBadRequest:
		return "bad-request"
	case StatusShutdown:
		return "shutdown"
	case StatusBusy:
		return "busy"
	case StatusUnavailable:
		return "unavailable"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Merge applies an update's word-merge mode to a stored value: ModeAdd
// adds each arg word into v (wrapping), ModeSet overwrites v with args.
// It is the one merge semantic shared by the server's live execution
// path and the persistence layer's log replay — deterministic and
// side-effect free, as the LL/SC retry loop requires.
func Merge(v, args []uint64, mode Mode) {
	if mode == ModeSet {
		copy(v, args)
		return
	}
	for i := range v {
		v[i] += args[i]
	}
}

// MaxFrame bounds a frame's payload; both sides reject bigger frames
// instead of allocating attacker-controlled amounts. Generous enough for
// a snapshot of thousands of shards times a wide W.
const MaxFrame = 8 << 20

// MaxMultiKeys bounds the keys of one UpdateMulti (the uint16 nkeys
// field caps it at 65535 anyway; this keeps worst-case descriptor work
// sane and matches the transaction layer's sweet spot of small spans).
const MaxMultiKeys = 1 << 12

// TraceMark is the first byte of the optional trailing trace suffix on
// requests and responses ('T').
const TraceMark = 0x54

// reqTraceLen is the request trace suffix length: marker + trace id.
const reqTraceLen = 9

// MaxTraceStages bounds the stage count a response trace suffix may
// carry — a decode sanity bound, not a protocol promise (the current
// server sends trace.WireStages = 6).
const MaxTraceStages = 16

// Request is one decoded request frame.
type Request struct {
	ID   uint64
	Op   Op
	Mode Mode     // Update, UpdateMulti
	Key  uint64   // Read, Update
	Keys []uint64 // UpdateMulti (aliases decode buffer; copy to retain)
	Args []uint64 // Update: W words; UpdateMulti: len(Keys)·W words
	// Traced marks a request carrying the optional trace suffix: the
	// client asks the server to trace it under TraceID and echo the
	// stage breakdown on the response.
	Traced  bool
	TraceID uint64
}

// Response is one decoded response frame.
type Response struct {
	ID       uint64
	Status   Status
	Attempts uint32 // LL/SC attempts or txn attempts; 0 when n/a
	Rows     uint32 // data shape: Rows rows of Words words
	Words    uint32
	Data     []uint64 // aliases decode buffer; copy to retain
	Err      string   // set iff Status != StatusOK
	// Traced marks a response carrying the trace suffix; Stages holds
	// the server-side per-stage durations in nanoseconds, in
	// internal/trace stage order (reuses its backing array on decode).
	Traced  bool
	TraceID uint64
	Stages  []uint64
}

// Row returns row i of the response data.
func (r *Response) Row(i int) []uint64 {
	w := int(r.Words)
	return r.Data[i*w : (i+1)*w]
}

// AppendRequest appends req's payload (without the frame length) to dst.
// The payload is sized up front and the words bulk-encoded, so a dst
// with enough capacity (a recycled encode buffer) costs zero allocations.
func AppendRequest(dst []byte, req *Request) []byte {
	size := 9
	switch req.Op {
	case OpRead:
		size += 8
	case OpUpdate:
		size += 1 + 8 + 8*len(req.Args)
	case OpUpdateMulti:
		size += 1 + 2 + 8*(len(req.Keys)+len(req.Args))
	}
	if req.Traced {
		size += reqTraceLen
	}
	dst = growBytes(dst, size)
	dst = binary.LittleEndian.AppendUint64(dst, req.ID)
	dst = append(dst, byte(req.Op))
	switch req.Op {
	case OpRead:
		dst = binary.LittleEndian.AppendUint64(dst, req.Key)
	case OpUpdate:
		dst = append(dst, byte(req.Mode))
		dst = binary.LittleEndian.AppendUint64(dst, req.Key)
		dst = appendUint64s(dst, req.Args)
	case OpUpdateMulti:
		dst = append(dst, byte(req.Mode))
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(req.Keys)))
		dst = appendUint64s(dst, req.Keys)
		dst = appendUint64s(dst, req.Args)
	}
	if req.Traced {
		dst = append(dst, TraceMark)
		dst = binary.LittleEndian.AppendUint64(dst, req.TraceID)
	}
	return dst
}

// splitReqTrace strips the optional trailing trace suffix from a
// request body when extra — the body length beyond the op's base shape
// modulo its word granularity — says one is present, filling req's
// trace fields. It returns the body without the suffix.
func splitReqTrace(req *Request, body []byte) []byte {
	n := len(body) - reqTraceLen
	if n < 0 || body[n] != TraceMark {
		return body // leave the length error to the per-op check
	}
	req.Traced = true
	req.TraceID = binary.LittleEndian.Uint64(body[n+1:])
	return body[:n]
}

// DecodeRequest decodes a request payload into req, reusing req's Keys
// and Args backing arrays when they are large enough. Every field is
// reset first, so a payload too short to carry an id leaves id 0.
func DecodeRequest(req *Request, payload []byte) error {
	*req = Request{Keys: req.Keys[:0], Args: req.Args[:0]}
	if len(payload) < 9 {
		return fmt.Errorf("wire: request payload %d bytes, need >= 9", len(payload))
	}
	req.ID = binary.LittleEndian.Uint64(payload)
	req.Op = Op(payload[8])
	body := payload[9:]
	// The trace suffix is detectable by length alone: every op-specific
	// body is a whole number of 8-byte words past its fixed header, and
	// the suffix is 9 bytes, so the length residue says whether one is
	// present (the marker byte is then required).
	switch req.Op {
	case OpPing, OpSnapshot, OpSnapshotAtomic, OpStats:
		if len(body) == reqTraceLen {
			body = splitReqTrace(req, body)
		}
		if len(body) != 0 {
			return fmt.Errorf("wire: %v request carries %d unexpected body bytes", req.Op, len(body))
		}
	case OpRead:
		if len(body) == 8+reqTraceLen {
			body = splitReqTrace(req, body)
		}
		if len(body) != 8 {
			return fmt.Errorf("wire: read request body %d bytes, want 8", len(body))
		}
		req.Key = binary.LittleEndian.Uint64(body)
	case OpUpdate:
		if len(body) >= 9+reqTraceLen && (len(body)-9)%8 == reqTraceLen%8 {
			body = splitReqTrace(req, body)
		}
		if len(body) < 9 || (len(body)-9)%8 != 0 {
			return fmt.Errorf("wire: update request body %d bytes, want 9+8·w", len(body))
		}
		req.Mode = Mode(body[0])
		req.Key = binary.LittleEndian.Uint64(body[1:])
		req.Args = appendWords(req.Args, body[9:])
	case OpUpdateMulti:
		if len(body) < 3 {
			return fmt.Errorf("wire: updatemulti request body %d bytes, want >= 3", len(body))
		}
		req.Mode = Mode(body[0])
		nkeys := int(binary.LittleEndian.Uint16(body[1:]))
		if nkeys == 0 || nkeys > MaxMultiKeys {
			return fmt.Errorf("wire: updatemulti with %d keys, want 1..%d", nkeys, MaxMultiKeys)
		}
		if extra := len(body) - 3 - nkeys*8; extra >= reqTraceLen && extra%8 == reqTraceLen%8 {
			body = splitReqTrace(req, body)
		}
		rest := body[3:]
		if len(rest) < nkeys*8 || (len(rest)-nkeys*8)%8 != 0 {
			return fmt.Errorf("wire: updatemulti body %d bytes does not fit %d keys + args", len(body), nkeys)
		}
		req.Keys = appendWords(req.Keys, rest[:nkeys*8])
		req.Args = appendWords(req.Args, rest[nkeys*8:])
		if len(req.Args)%nkeys != 0 {
			return fmt.Errorf("wire: updatemulti args %d words not a multiple of %d keys", len(req.Args), nkeys)
		}
	default:
		return fmt.Errorf("wire: unknown opcode %d", uint8(req.Op))
	}
	return nil
}

// AppendResponse appends resp's payload (without the frame length) to
// dst. Like AppendRequest it pre-sizes and bulk-encodes: with a recycled
// dst this is the server's per-response cost, and it must not allocate.
func AppendResponse(dst []byte, resp *Response) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, resp.ID)
	dst = append(dst, byte(resp.Status))
	if resp.Status != StatusOK {
		msg := resp.Err
		if len(msg) > 1<<15 {
			msg = msg[:1<<15]
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(msg)))
		return append(dst, msg...)
	}
	size := 12 + 8*len(resp.Data)
	if resp.Traced {
		size += 10 + 8*len(resp.Stages)
	}
	dst = growBytes(dst, size)
	dst = binary.LittleEndian.AppendUint32(dst, resp.Attempts)
	dst = binary.LittleEndian.AppendUint32(dst, resp.Rows)
	dst = binary.LittleEndian.AppendUint32(dst, resp.Words)
	dst = appendUint64s(dst, resp.Data)
	if resp.Traced {
		dst = append(dst, TraceMark)
		dst = binary.LittleEndian.AppendUint64(dst, resp.TraceID)
		dst = append(dst, byte(len(resp.Stages)))
		dst = appendUint64s(dst, resp.Stages)
	}
	return dst
}

// DecodeResponse decodes a response payload into resp, reusing resp's
// Data backing array when it is large enough. Every field is reset
// first, so a payload too short to carry an id leaves id 0.
func DecodeResponse(resp *Response, payload []byte) error {
	*resp = Response{Data: resp.Data[:0], Stages: resp.Stages[:0]}
	if len(payload) < 9 {
		return fmt.Errorf("wire: response payload %d bytes, need >= 9", len(payload))
	}
	resp.ID = binary.LittleEndian.Uint64(payload)
	resp.Status = Status(payload[8])
	body := payload[9:]
	if resp.Status != StatusOK {
		if len(body) < 2 {
			return fmt.Errorf("wire: error response body %d bytes, want >= 2", len(body))
		}
		n := int(binary.LittleEndian.Uint16(body))
		if len(body) != 2+n {
			return fmt.Errorf("wire: error response message %d bytes, frame carries %d", n, len(body)-2)
		}
		resp.Err = string(body[2 : 2+n])
		return nil
	}
	if len(body) < 12 {
		return fmt.Errorf("wire: ok response body %d bytes, want >= 12", len(body))
	}
	resp.Attempts = binary.LittleEndian.Uint32(body)
	resp.Rows = binary.LittleEndian.Uint32(body[4:])
	resp.Words = binary.LittleEndian.Uint32(body[8:])
	data := body[12:]
	want := uint64(resp.Rows) * uint64(resp.Words) * 8
	if uint64(len(data)) > want {
		// Extra bytes past the promised data words: the trailing trace
		// suffix, marker | traceid | nstages | stage words. Anything else
		// is still a shape error.
		extra := data[want:]
		if len(extra) < 10 || extra[0] != TraceMark {
			return fmt.Errorf("wire: response data %d bytes, header promises %d", len(data), want)
		}
		nstages := int(extra[9])
		if nstages > MaxTraceStages || len(extra) != 10+8*nstages {
			return fmt.Errorf("wire: response trace suffix %d bytes does not fit %d stages", len(extra), nstages)
		}
		resp.Traced = true
		resp.TraceID = binary.LittleEndian.Uint64(extra[1:])
		resp.Stages = appendWords(resp.Stages, extra[10:])
		data = data[:want]
	}
	if uint64(len(data)) != want {
		return fmt.Errorf("wire: response data %d bytes, header promises %d", len(data), want)
	}
	resp.Data = appendWords(resp.Data, data)
	return nil
}

// appendWords appends b (a multiple of 8 bytes) to dst as little-endian
// uint64s, growing dst at most once so a pre-sized destination (a reused
// Request/Response backing array) decodes without allocating.
func appendWords(dst []uint64, b []byte) []uint64 {
	n := len(b) / 8
	if need := len(dst) + n; cap(dst) < need {
		grown := make([]uint64, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	for i := 0; i < n; i++ {
		dst = append(dst, binary.LittleEndian.Uint64(b[8*i:]))
	}
	return dst
}

// growBytes returns dst with capacity for at least n more bytes,
// reallocating at most once up front so the appends that follow cannot.
func growBytes(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	grown := make([]byte, len(dst), len(dst)+n)
	copy(grown, dst)
	return grown
}

// appendUint64s bulk-encodes words as little-endian bytes: one capacity
// check, then PutUint64 into pre-sized space instead of per-word appends.
func appendUint64s(dst []byte, words []uint64) []byte {
	n := len(dst)
	dst = growBytes(dst, 8*len(words))[:n+8*len(words)]
	for i, w := range words {
		binary.LittleEndian.PutUint64(dst[n+8*i:], w)
	}
	return dst
}

// WriteFrame writes one length-prefixed frame carrying payload.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame payload %d bytes exceeds MaxFrame %d", len(payload), MaxFrame)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// AppendFrame appends the length prefix and payload to dst — for callers
// that coalesce several frames into one Write.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// FrameBufCap is the soft cap on the reusable buffer ReadFrame hands
// back: a jumbo frame (up to MaxFrame = 8 MiB) may grow the buffer past
// it, but the next small frame releases the oversized backing array
// instead of pinning MaxFrame bytes per connection for its lifetime.
const FrameBufCap = 64 << 10

// ReadFrame reads one frame into buf (growing it as needed) and returns
// the payload (a prefix of the returned buffer). Callers pass the
// returned buffer back in once they are done with the payload; buffers
// left oversized by a rare jumbo frame shrink back to FrameBufCap.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	// The header is read into the reusable buffer itself: a stack array
	// would escape through the io.Reader interface and cost an allocation
	// per frame.
	if cap(buf) < 4 {
		buf = make([]byte, 512)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return buf, err
	}
	// Compare before narrowing: on 32-bit platforms int(u) of an
	// untrusted length of 2^31 or more is negative and would pass.
	u := binary.LittleEndian.Uint32(buf[:4])
	if u > MaxFrame {
		return buf, fmt.Errorf("wire: incoming frame of %d bytes exceeds MaxFrame %d", u, MaxFrame)
	}
	n := int(u)
	switch {
	case cap(buf) < n:
		c := n
		if c < 512 {
			c = 512
		}
		buf = make([]byte, c)
	case cap(buf) > FrameBufCap && n <= FrameBufCap:
		buf = make([]byte, FrameBufCap)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return buf, fmt.Errorf("wire: short frame: %w", err)
	}
	return buf, nil
}

// ServerStats is the counter snapshot a Stats request returns, carried
// on the wire as one row of uint64 words in field order. Decoding
// tolerates a longer row (a newer server may append fields), so old
// clients keep working against new servers.
//
// The row is frozen at its current 22 words (12 fixed, optional words
// 12-21): new server metrics are exported only through the admin plane
// (server.RegisterMetrics → /metrics, /statsz), not appended here.
type ServerStats struct {
	Shards     uint64 // map geometry: K
	Slots      uint64 // map geometry: N (registry slots)
	Words      uint64 // map geometry: W
	ConnsTotal uint64 // connections accepted since start
	ConnsOpen  uint64 // connections currently open
	Reqs       uint64 // requests executed, all ops
	Updates    uint64
	Reads      uint64
	Snapshots  uint64 // Snapshot + SnapshotAtomic
	Multis     uint64 // UpdateMulti
	Batches    uint64 // handle-acquire batches executed
	BadReqs    uint64 // requests rejected with a non-OK status
	// PersistErrs counts persistence failures: append or group-commit
	// fsync rounds that returned an error. Under fsync policy "always"
	// each such round also converts its batch's committed updates into
	// error responses (counted in BadReqs); under the other policies the
	// commit is acked and this counter is the only sign durability is
	// degraded — alert on it.
	PersistErrs uint64
	// LatP50/LatP99/LatP999 are server-side service-latency quantiles in
	// nanoseconds (the batch window from decode end through durability,
	// attributed to every request in the batch), estimated from the
	// server's log-bucketed histogram. Every current server fills them;
	// they are zero only from servers that predate them. Like
	// PersistErrs, they ride as optional trailing words: old clients
	// ignore them, new clients read zeros from old servers.
	LatP50  uint64
	LatP99  uint64
	LatP999 uint64
	// FsyncP99 is the p99 group-commit fsync latency in nanoseconds,
	// zero when the server runs without a durability store.
	FsyncP99 uint64
	// Overload-control counters (optional words 17-21, counted from 0),
	// zero on servers that predate them or run with the limits off:
	//
	// ShedConns counts connections closed at accept because -max-conns
	// was reached; BusyRejects counts requests answered StatusBusy by the
	// admission controller; Evictions counts connections closed because a
	// slow reader stalled the server's response write past the write
	// deadline; IdleCloses counts connections closed by the read-idle
	// deadline; DegradedRejects counts updates answered
	// StatusUnavailable in disk-sick read-only degraded mode.
	ShedConns       uint64
	BusyRejects     uint64
	Evictions       uint64
	IdleCloses      uint64
	DegradedRejects uint64
}

// statsWords is the minimum wire width of ServerStats. Numbering words
// from 0 as docs/WIRE.md does, PersistErrs rides as optional word 12,
// the latency quantiles (LatP50/LatP99/LatP999/FsyncP99) as optional
// words 13-16, and the overload-control counters (ShedConns/
// BusyRejects/Evictions/IdleCloses/DegradedRejects) as optional words
// 17-21, so new clients still decode rows from older servers (and, per
// the tolerant-decode rule above, vice versa). The row is frozen at
// those 22 words; it gains no further optional words.
const statsWords = 12

// Append encodes s in field order.
func (s *ServerStats) Append(dst []uint64) []uint64 {
	return append(dst,
		s.Shards, s.Slots, s.Words,
		s.ConnsTotal, s.ConnsOpen,
		s.Reqs, s.Updates, s.Reads, s.Snapshots, s.Multis,
		s.Batches, s.BadReqs, s.PersistErrs,
		s.LatP50, s.LatP99, s.LatP999, s.FsyncP99,
		s.ShedConns, s.BusyRejects, s.Evictions, s.IdleCloses, s.DegradedRejects)
}

// DecodeStats decodes a stats row previously produced by Append.
func DecodeStats(row []uint64) (ServerStats, error) {
	if len(row) < statsWords {
		return ServerStats{}, fmt.Errorf("wire: stats row has %d words, want >= %d", len(row), statsWords)
	}
	st := ServerStats{
		Shards: row[0], Slots: row[1], Words: row[2],
		ConnsTotal: row[3], ConnsOpen: row[4],
		Reqs: row[5], Updates: row[6], Reads: row[7], Snapshots: row[8], Multis: row[9],
		Batches: row[10], BadReqs: row[11],
	}
	// Optional trailing words, newest-last; a shorter row from an older
	// server leaves them zero.
	opt := []*uint64{&st.PersistErrs, &st.LatP50, &st.LatP99, &st.LatP999, &st.FsyncP99,
		&st.ShedConns, &st.BusyRejects, &st.Evictions, &st.IdleCloses, &st.DegradedRejects}
	for i, p := range opt {
		if len(row) > statsWords+i {
			*p = row[statsWords+i]
		}
	}
	return st, nil
}
