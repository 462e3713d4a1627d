package wire

// Cross-version status compatibility: PR 8 added StatusBusy (3,
// retryable overload rejection) and StatusUnavailable (4, sticky
// degraded-mode rejection). Response status is a raw byte on the wire,
// so the compatibility surface is the value assignments themselves —
// they can never be renumbered — plus the tolerant-decode behavior of
// a client that predates them: it must read the response cleanly,
// treat the unknown status as a failure (it is non-zero), and surface
// the server's message. These tests pin both directions.

import (
	"bytes"
	"testing"
)

// TestStatusValuesPinned pins the wire byte of every status ever
// shipped. A renumbering would make deployed old clients misread new
// servers (and vice versa) while every in-tree test still passed —
// this is the only place the raw numbers are load-bearing in a test.
func TestStatusValuesPinned(t *testing.T) {
	pins := []struct {
		st   Status
		val  uint8
		name string
	}{
		{StatusOK, 0, "ok"},
		{StatusBadRequest, 1, "bad-request"},
		{StatusShutdown, 2, "shutdown"},
		{StatusBusy, 3, "busy"},
		{StatusUnavailable, 4, "unavailable"},
	}
	for _, p := range pins {
		if uint8(p.st) != p.val {
			t.Errorf("%s = %d, pinned wire value is %d", p.name, p.st, p.val)
		}
		if p.st.String() != p.name {
			t.Errorf("Status(%d).String() = %q, want %q", p.val, p.st.String(), p.name)
		}
	}
}

// TestNewStatusesThroughDecoder: a response carrying each new status
// survives the full frame round trip with id, status and message
// intact — the path an old client (whose decoder is byte-identical)
// takes when a new server rejects it.
func TestNewStatusesThroughDecoder(t *testing.T) {
	for _, st := range []Status{StatusBusy, StatusUnavailable} {
		resp := &Response{ID: 42, Status: st, Err: "rejected: " + st.String()}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, AppendResponse(nil, resp)); err != nil {
			t.Fatal(err)
		}
		frame, err := ReadFrame(&buf, nil)
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		var dec Response
		if err := DecodeResponse(&dec, frame); err != nil {
			t.Fatalf("%v: decode: %v", st, err)
		}
		if dec.ID != 42 || dec.Status != st || dec.Err != resp.Err {
			t.Errorf("%v round trip: got id=%d status=%v err=%q", st, dec.ID, dec.Status, dec.Err)
		}
		// The one property an unknowing client relies on: non-OK.
		if dec.Status == StatusOK {
			t.Errorf("%v decoded as OK", st)
		}
	}
}

// TestUnknownFutureStatusTolerated: tomorrow's status 5 through today's
// decoder — decodes cleanly, stringifies without panicking, reads as a
// failure. This is the same promise PR 8 leaned on when it introduced
// 3 and 4 against deployed PR 3 clients.
func TestUnknownFutureStatusTolerated(t *testing.T) {
	resp := &Response{ID: 7, Status: Status(5), Err: "from the future"}
	var dec Response
	if err := DecodeResponse(&dec, AppendResponse(nil, resp)); err != nil {
		t.Fatalf("decode of unknown status: %v", err)
	}
	if dec.Status != Status(5) || dec.Status == StatusOK || dec.Err != "from the future" {
		t.Errorf("unknown status mangled: %+v", dec)
	}
	if s := dec.Status.String(); s == "" {
		t.Error("unknown Status.String() empty")
	}
}

// appendStatsV2 emits the observability-PR row: 17 words, everything
// through FsyncP99, none of the overload counters.
func appendStatsV2(s *ServerStats) []uint64 {
	return append(appendStatsV0(s),
		s.PersistErrs, s.LatP50, s.LatP99, s.LatP999, s.FsyncP99)
}

// decodeStatsV2 reconstructs the observability-PR decoder: reads
// through word 16 when present, ignores the rest.
func decodeStatsV2(row []uint64) (ServerStats, bool) {
	st, ok := decodeStatsV1(row)
	if !ok {
		return ServerStats{}, false
	}
	for i, dst := range []*uint64{&st.LatP50, &st.LatP99, &st.LatP999, &st.FsyncP99} {
		if len(row) > 13+i {
			*dst = row[13+i]
		}
	}
	return st, true
}

var overloadStats = func() ServerStats {
	s := compatStats
	s.ShedConns, s.BusyRejects, s.Evictions, s.IdleCloses, s.DegradedRejects = 5, 900, 2, 11, 44
	return s
}()

// TestNewDecoderReadsPreOverloadRows: a 17-word row (a server without
// the overload counters) through today's decoder — counters land,
// overload words stay zero instead of swallowing garbage.
func TestNewDecoderReadsPreOverloadRows(t *testing.T) {
	got, err := DecodeStats(appendStatsV2(&compatStats))
	if err != nil {
		t.Fatalf("decoding 17-word row: %v", err)
	}
	want := compatStats
	if got != want {
		t.Errorf("17-word row: got %+v want %+v", got, want)
	}
	if got.ShedConns != 0 || got.BusyRejects != 0 || got.DegradedRejects != 0 {
		t.Errorf("17-word row: phantom overload words: %+v", got)
	}

	// Partial overload suffix (19 words): ShedConns and BusyRejects
	// present, the rest absent.
	row19 := overloadStats.Append(nil)[:19]
	got, err = DecodeStats(row19)
	if err != nil {
		t.Fatalf("decoding 19-word row: %v", err)
	}
	if got.ShedConns != 5 || got.BusyRejects != 900 {
		t.Errorf("19-word row dropped present overload words: %+v", got)
	}
	if got.Evictions != 0 || got.IdleCloses != 0 || got.DegradedRejects != 0 {
		t.Errorf("19-word row invented absent overload words: %+v", got)
	}
}

// TestOldDecoderReadsOverloadRows: today's 22-word row through the
// reconstructed older decoders — both must take what they know and
// ignore the overload tail.
func TestOldDecoderReadsOverloadRows(t *testing.T) {
	row := overloadStats.Append(nil)
	if got, ok := decodeStatsV2(row); !ok {
		t.Fatal("observability-era decoder rejected an overload row")
	} else {
		want := compatStats
		if got != want {
			t.Errorf("v2 decode of overload row: got %+v want %+v", got, want)
		}
	}
	if got, ok := decodeStatsV1(row); !ok {
		t.Fatal("PR 4 decoder rejected an overload row")
	} else if got.Reqs != overloadStats.Reqs || got.PersistErrs != overloadStats.PersistErrs {
		t.Errorf("v1 decode of overload row mangled counters: %+v", got)
	}
}

// TestOverloadStatsRoundTrip: the full 22-word row through the wire.
// The row is frozen at 22 words (new server metrics go to the admin
// plane), so its width is pinned too.
func TestOverloadStatsRoundTrip(t *testing.T) {
	row := overloadStats.Append(nil)
	if len(row) != 22 {
		t.Fatalf("stats row is %d words, want the frozen 22", len(row))
	}
	got, err := DecodeStats(row)
	if err != nil {
		t.Fatal(err)
	}
	if got != overloadStats {
		t.Errorf("round trip: got %+v want %+v", got, overloadStats)
	}
}
