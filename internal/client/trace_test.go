package client_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"mwllsc/internal/client"
	"mwllsc/internal/server"
	"mwllsc/internal/trace"
)

func TestWithTraceFillsClientAndServerStages(t *testing.T) {
	tr := trace.New(trace.Config{})
	_, addr := startServer(t, 4, 3, 2, server.WithTracer(tr))
	c := dial(t, addr)

	var ct client.Trace
	got, err := c.Add(client.WithTrace(context.Background(), &ct), 7, []uint64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 4 {
		t.Fatalf("traced add returned %v", got)
	}
	if ct.ID == 0 {
		t.Fatal("client did not generate a trace id")
	}
	if ct.Total <= 0 || ct.RoundTrip <= 0 {
		t.Fatalf("client stages not stamped: %+v", ct)
	}
	if ct.QueueWait < 0 || ct.QueueWait+ct.RoundTrip > ct.Total+time.Millisecond {
		t.Fatalf("client stage decomposition inconsistent: %+v", ct)
	}
	if len(ct.ServerStages) != trace.WireStages {
		t.Fatalf("server echoed %d stages, want %d", len(ct.ServerStages), trace.WireStages)
	}

	// The server retired the span under the client's id.
	deadline := time.Now().Add(5 * time.Second)
	for {
		found := false
		for _, s := range tr.Recent(nil, 0) {
			if s.TraceID == ct.ID {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %x never reached the server's recent ring", ct.ID)
		}
		time.Sleep(time.Millisecond)
	}

	// A caller-chosen id rides through unchanged.
	ct2 := client.Trace{ID: 0xc0ffee}
	if _, err := c.Read(client.WithTrace(context.Background(), &ct2), 7); err != nil {
		t.Fatal(err)
	}
	if ct2.ID != 0xc0ffee {
		t.Fatalf("caller trace id rewritten to %x", ct2.ID)
	}

	// Untraced calls on the same client leave no new span behind. Wait
	// for the two traced spans to retire first (retirement trails the
	// client's read of the response), then hold the count steady.
	deadline = time.Now().Add(5 * time.Second)
	for tr.Stats().Retired < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("retired %d spans, want 2", tr.Stats().Retired)
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.Read(context.Background(), 7); err != nil {
			t.Fatal(err)
		}
	}
	// One more traced call fences the pipeline: by the time its span
	// retires, any span the untraced reads had wrongly produced would
	// have retired too.
	var ct3 client.Trace
	if _, err := c.Read(client.WithTrace(context.Background(), &ct3), 7); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for tr.Stats().Retired < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("retired %d spans, want 3", tr.Stats().Retired)
		}
		time.Sleep(time.Millisecond)
	}
	if got := tr.Stats().Retired; got != 3 {
		t.Fatalf("untraced reads produced spans: retired = %d, want 3", got)
	}
}

// TestWithTraceNonOKNoStageEcho: a traced call the server answers with
// a non-OK status gets no stage echo — the server echoes a breakdown
// only on OK responses — yet the client still stamps its own stages and
// the server still records the span, marked Err, in /tracez.
func TestWithTraceNonOKNoStageEcho(t *testing.T) {
	tr := trace.New(trace.Config{})
	_, addr := startServer(t, 4, 3, 2, server.WithTracer(tr))
	c := dial(t, addr)
	var ct client.Trace
	// Three deltas against a width-2 map: a bad request.
	if _, err := c.Add(client.WithTrace(context.Background(), &ct), 1, []uint64{1, 1, 1}); err == nil {
		t.Fatal("wrong-width add succeeded")
	}
	if len(ct.ServerStages) != 0 {
		t.Fatalf("non-OK response echoed stages: %+v", ct)
	}
	if ct.ID == 0 || ct.Total <= 0 {
		t.Fatalf("client stages not stamped: %+v", ct)
	}

	deadline := time.Now().Add(5 * time.Second)
	for tr.Stats().Retired < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the rejected call's span never retired")
		}
		time.Sleep(time.Millisecond)
	}
	rec := httptest.NewRecorder()
	tr.ServeTracez(rec, httptest.NewRequest("GET", "/tracez", nil))
	var page struct {
		Spans []struct {
			TraceID string `json:"trace_id"`
			Err     bool   `json:"err"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatalf("/tracez JSON: %v\n%s", err, rec.Body)
	}
	want := fmt.Sprintf("%016x", ct.ID)
	if len(page.Spans) != 1 || page.Spans[0].TraceID != want || !page.Spans[0].Err {
		t.Fatalf("/tracez spans = %+v, want one Err span with trace id %s", page.Spans, want)
	}
}

// TestTraceIDsDifferAcrossProcesses: client-generated trace ids come
// from a generator seeded per process, so two processes tracing
// against one server do not collide. The test re-executes its own
// binary twice; each child makes one traced call and prints its id.
func TestTraceIDsDifferAcrossProcesses(t *testing.T) {
	const childEnv = "MWLLSC_TRACE_ID_CHILD"
	if os.Getenv(childEnv) == "1" {
		_, addr := startServer(t, 4, 3, 2)
		c := dial(t, addr)
		var ct client.Trace
		if err := c.Ping(client.WithTrace(context.Background(), &ct)); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("first-trace-id=%016x\n", ct.ID)
		return
	}
	var ids [2]string
	for i := range ids {
		cmd := exec.Command(os.Args[0], "-test.run=^TestTraceIDsDifferAcrossProcesses$", "-test.count=1")
		cmd.Env = append(os.Environ(), childEnv+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("child %d: %v\n%s", i, err, out)
		}
		_, after, ok := strings.Cut(string(out), "first-trace-id=")
		if !ok || len(after) < 16 {
			t.Fatalf("child %d printed no trace id:\n%s", i, out)
		}
		ids[i] = after[:16]
	}
	if ids[0] == ids[1] {
		t.Fatalf("two processes drew the same first trace id %s", ids[0])
	}
}
