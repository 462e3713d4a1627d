package trace

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// marksAt returns a stage clock anchored at base whose stage st closes
// at base+ends[st]; stages past the last end close with it.
func marksAt(base time.Time, ends ...time.Duration) *[WireStages + 1]time.Time {
	var marks [WireStages + 1]time.Time
	marks[0] = base
	for st := 0; st < WireStages; st++ {
		marks[st+1] = base.Add(ends[min(st, len(ends)-1)])
	}
	return &marks
}

// retireOne runs one synthetic span of the given total through t,
// splitting the time over decode, execute and flush so stage
// bookkeeping is visible.
func retireOne(t *Tracer, id uint64, total time.Duration) {
	base := time.Now()
	s := NewSpan(marksAt(base, total/4, total/4, total/4, 3*total/4))
	s.TraceID = id
	s.Op, s.Key, s.Attempts, s.Batch = 3, 42, 1, 4
	s.Flushed(base.Add(total))
	t.Retire(&s)
}

func TestStageSumEqualsTotal(t *testing.T) {
	base := time.Now()
	s := NewSpan(marksAt(base, 10*time.Microsecond, 15*time.Microsecond, 17*time.Microsecond,
		100*time.Microsecond, 130*time.Microsecond, 180*time.Microsecond))
	s.Flushed(base.Add(200 * time.Microsecond))
	var sum uint64
	for _, d := range s.Stages {
		sum += d
	}
	if sum != s.Total {
		t.Fatalf("stage sum %d != total %d", sum, s.Total)
	}
	if s.Total != uint64(200*time.Microsecond) {
		t.Fatalf("total = %d, want 200us", s.Total)
	}
	if got := s.Stages[StageExecute]; got != uint64(83*time.Microsecond) {
		t.Fatalf("execute stage = %v, want 83us", time.Duration(got))
	}
	if got := s.Stages[StageFlush]; got != uint64(20*time.Microsecond) {
		t.Fatalf("flush stage = %v, want 20us", time.Duration(got))
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := Span{
		TraceID:  0xdeadbeefcafe,
		Op:       6,
		Sampled:  true,
		Err:      true,
		Attempts: 123456,
		Batch:    64,
		Key:      987,
		Start:    1700000000123456789,
		Total:    42_000,
	}
	for i := range in.Stages {
		in.Stages[i] = uint64(i * 1000)
	}
	var w [spanWords]uint64
	in.encode(&w)
	var out Span
	out.decode(&w)
	if out != in {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestRecentRingNewestFirstAndOverwrite(t *testing.T) {
	tr := New(Config{})
	const n = recentN + 2
	for i := 1; i <= n; i++ {
		retireOne(tr, uint64(i), time.Duration(i)*time.Microsecond)
	}
	got := tr.Recent(nil, 0)
	if len(got) != recentN {
		t.Fatalf("recent returned %d spans, want %d (ring capacity)", len(got), recentN)
	}
	for i, s := range got { // newest first; 1 and 2 overwritten
		if want := uint64(n - i); s.TraceID != want {
			t.Fatalf("recent[%d].TraceID = %d, want %d", i, s.TraceID, want)
		}
	}
	if got := tr.Recent(nil, 3); len(got) != 3 || got[0].TraceID != n {
		t.Fatalf("recent capped at 3: %+v", got)
	}
}

func TestSlowWindowKeepsSlowest(t *testing.T) {
	tr := New(Config{})
	const n = slowN + 3
	for i := 0; i < n; i++ { // totals 1..n µs in a scrambled order
		id := uint64(i*7%n + 1)
		retireOne(tr, id, time.Duration(id)*time.Microsecond)
	}
	got := tr.Slow(nil)
	if len(got) != slowN {
		t.Fatalf("slow window has %d spans, want %d", len(got), slowN)
	}
	for i, s := range got { // slowest first; the 3 fastest evicted
		if want := uint64(n - i); s.TraceID != want {
			t.Fatalf("slow[%d].TraceID = %d, want %d", i, s.TraceID, want)
		}
	}
}

// TestSlowWindowRefillsAfterExpiry: once a full window's entries age
// out, faster spans must enter it again — the gate that keeps them out
// while the window is full lapses with its oldest entry.
func TestSlowWindowRefillsAfterExpiry(t *testing.T) {
	tr := New(Config{})
	tr.window = 50 * time.Millisecond
	for i := 0; i < slowN; i++ {
		retireOne(tr, uint64(i+1), 10*time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	for i := 0; i < 5; i++ {
		retireOne(tr, uint64(1000+i), time.Millisecond)
	}
	got := tr.Slow(nil)
	if len(got) != 5 {
		t.Fatalf("slow window after expiry has %d spans, want the 5 fresh ones: %+v", len(got), got)
	}
	for _, s := range got {
		if s.TraceID < 1000 {
			t.Fatalf("expired span %d still in the window", s.TraceID)
		}
	}
}

func TestSlowThresholdLogsStructuredLine(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	tr := New(Config{
		SlowThreshold: 2 * time.Millisecond,
		Logf: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, strings.TrimSpace(fmt.Sprintf(format, args...)))
			mu.Unlock()
		},
	})
	retireOne(tr, 0xabc, time.Millisecond)   // under threshold: no line
	retireOne(tr, 0xdef, 5*time.Millisecond) // over: one line
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 {
		t.Fatalf("slow log lines = %d, want 1: %q", len(lines), lines)
	}
	for _, want := range []string{"slow-op", "trace=0000000000000def", "total=5ms", "decode=", "execute=", "flush="} {
		if !strings.Contains(lines[0], want) {
			t.Fatalf("slow-op line missing %q: %s", want, lines[0])
		}
	}
}

func TestConcurrentRetireAndRead(t *testing.T) {
	// Retirement races /tracez + /slowz readers; under -race this pins
	// that the rings are safe to scrape mid-load.
	tr := New(Config{SlowThreshold: time.Microsecond, Logf: func(string, ...any) {}})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				base := time.Now()
				s := NewSpan(marksAt(base, 0, 0, 0, time.Duration(i%7)*time.Microsecond))
				s.TraceID = uint64(g)<<32 | uint64(i)
				s.Flushed(base.Add(time.Duration(i%7+i%11) * time.Microsecond))
				tr.Retire(&s)
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		tr.Recent(nil, 0)
		tr.Slow(nil)
	}
	close(stop)
	wg.Wait()
}

func TestTracezAndSlowzHandlers(t *testing.T) {
	tr := New(Config{SampleN: 64})
	retireOne(tr, 0x1111, 3*time.Millisecond)
	retireOne(tr, 0x2222, time.Millisecond)

	rec := httptest.NewRecorder()
	tr.ServeTracez(rec, httptest.NewRequest("GET", "/tracez", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "json") {
		t.Fatalf("/tracez content type %q", ct)
	}
	var page struct {
		Kind    string `json:"kind"`
		SampleN uint64 `json:"sample_n"`
		Spans   []struct {
			TraceID string            `json:"trace_id"`
			TotalNS uint64            `json:"total_ns"`
			Stages  map[string]uint64 `json:"stages_ns"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatalf("/tracez JSON: %v\n%s", err, rec.Body)
	}
	if page.Kind != "recent" || page.SampleN != 64 || len(page.Spans) != 2 {
		t.Fatalf("/tracez page = %+v", page)
	}
	if page.Spans[0].TraceID != "0000000000002222" {
		t.Fatalf("/tracez newest first: %+v", page.Spans[0])
	}
	var sum uint64
	for _, d := range page.Spans[0].Stages {
		sum += d
	}
	if len(page.Spans[0].Stages) != NumStages || sum != page.Spans[0].TotalNS {
		t.Fatalf("stage decomposition: stages=%v total=%d", page.Spans[0].Stages, page.Spans[0].TotalNS)
	}

	rec = httptest.NewRecorder()
	tr.ServeSlowz(rec, httptest.NewRequest("GET", "/slowz?format=text", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "slow traces") || !strings.Contains(body, "0000000000001111") {
		t.Fatalf("/slowz text body:\n%s", body)
	}
	if strings.Contains(body, "<") {
		t.Fatalf("/slowz text output contains HTML: %s", body)
	}
}

func TestRetireDoesNotAllocate(t *testing.T) {
	tr := New(Config{})
	base := time.Now()
	marks := marksAt(base, 0, 0, 0, time.Microsecond)
	allocs := testing.AllocsPerRun(200, func() {
		s := NewSpan(marks)
		s.TraceID = 7
		s.Flushed(base.Add(2 * time.Microsecond))
		tr.Retire(&s)
	})
	if allocs != 0 {
		t.Fatalf("NewSpan+Retire allocates %.1f/op, want 0", allocs)
	}
}

var tracerSink *Tracer

// TestNewTracerAllocs guards construction cost: every server builds a
// tracer, so New must stay a handful of allocations, not one per span
// slot.
func TestNewTracerAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() { tracerSink = New(Config{}) })
	if allocs > 8 {
		t.Fatalf("New allocates %.0f/op, want <= 8", allocs)
	}
}

// TestNewIDUniqueNonzero draws from the one process-wide generator on
// several goroutines at once, as concurrent connections do.
func TestNewIDUniqueNonzero(t *testing.T) {
	const goroutines, draws = 4, 2500
	var ids [goroutines][draws]uint64
	var wg sync.WaitGroup
	for g := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ids[g] {
				ids[g][i] = NewID()
			}
		}()
	}
	wg.Wait()
	seen := make(map[uint64]bool, goroutines*draws)
	for g := range ids {
		for _, id := range ids[g] {
			if id == 0 || seen[id] {
				t.Fatalf("id %x is zero or repeated", id)
			}
			seen[id] = true
		}
	}
}
