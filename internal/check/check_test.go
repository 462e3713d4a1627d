package check

import (
	"strconv"
	"sync"
	"testing"

	"mwllsc"
	"mwllsc/internal/core"
	"mwllsc/internal/mem"
)

// seqOps builds a strictly sequential history from (proc, kind, ...) steps.
type step struct {
	proc int
	kind Kind
	arg  string
	ret  string
	ok   bool
}

func sequential(steps ...step) History {
	h := make(History, len(steps))
	for i, s := range steps {
		h[i] = Op{
			Proc: s.proc, Kind: s.kind, Arg: s.arg, Ret: s.ret, OK: s.ok,
			Inv: int64(2 * i), Res: int64(2*i + 1),
		}
	}
	return h
}

func TestEmptyHistory(t *testing.T) {
	if err := CheckLLSC(nil, "0"); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialLegal(t *testing.T) {
	h := sequential(
		step{proc: 0, kind: OpLL, ret: "0"},
		step{proc: 0, kind: OpVL, ok: true},
		step{proc: 0, kind: OpSC, arg: "1", ok: true},
		step{proc: 1, kind: OpLL, ret: "1"},
		step{proc: 0, kind: OpSC, arg: "2", ok: false}, // link consumed
		step{proc: 1, kind: OpSC, arg: "3", ok: true},
		step{proc: 1, kind: OpVL, ok: false},
	)
	if err := CheckLLSC(h, "0"); err != nil {
		t.Fatal(err)
	}
}

func TestReadSpec(t *testing.T) {
	legal := sequential(
		step{proc: 0, kind: OpRead, ret: "0"},
		step{proc: 0, kind: OpVL, ok: true},
		step{proc: 0, kind: OpSC, arg: "1", ok: false}, // a Read's link never licenses SC
		step{proc: 1, kind: OpLL, ret: "0"},
		step{proc: 1, kind: OpSC, arg: "2", ok: true},
		step{proc: 0, kind: OpVL, ok: false}, // the Read's link is broken
		step{proc: 0, kind: OpRead, ret: "2"},
		step{proc: 0, kind: OpLL, ret: "2"},
		step{proc: 0, kind: OpSC, arg: "3", ok: true}, // an LL re-licenses SC
	)
	if err := CheckLLSC(legal, "0"); err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]History{
		"SC after Read succeeded": sequential(
			step{proc: 0, kind: OpRead, ret: "0"},
			step{proc: 0, kind: OpSC, arg: "1", ok: true},
		),
		"stale Read": sequential(
			step{proc: 0, kind: OpLL, ret: "0"},
			step{proc: 0, kind: OpSC, arg: "1", ok: true},
			step{proc: 1, kind: OpRead, ret: "0"},
		),
		"VL after Read false with no SC": sequential(
			step{proc: 0, kind: OpRead, ret: "0"},
			step{proc: 0, kind: OpVL, ok: false},
		),
	} {
		if err := CheckLLSC(h, "0"); err == nil {
			t.Errorf("%s: accepted an illegal history", name)
		}
	}
}

func TestLLReturningUnwrittenValueRejected(t *testing.T) {
	h := sequential(
		step{proc: 0, kind: OpLL, ret: "99"},
	)
	if err := CheckLLSC(h, "0"); err == nil {
		t.Fatal("accepted LL of a value never written")
	}
}

func TestStaleLLRejected(t *testing.T) {
	// p1 overwrites 0 with 1 strictly before p0's LL; LL must not see 0.
	h := History{
		{Proc: 1, Kind: OpLL, Ret: "0", Inv: 0, Res: 1},
		{Proc: 1, Kind: OpSC, Arg: "1", OK: true, Inv: 2, Res: 3},
		{Proc: 0, Kind: OpLL, Ret: "0", Inv: 4, Res: 5},
	}
	if err := CheckLLSC(h, "0"); err == nil {
		t.Fatal("accepted stale LL")
	}
}

func TestDoubleSCSuccessWithoutLLRejected(t *testing.T) {
	h := sequential(
		step{proc: 0, kind: OpLL, ret: "0"},
		step{proc: 0, kind: OpSC, arg: "1", ok: true},
		step{proc: 0, kind: OpSC, arg: "2", ok: true}, // must fail: link consumed
	)
	if err := CheckLLSC(h, "0"); err == nil {
		t.Fatal("accepted SC success without fresh LL")
	}
}

func TestBothConcurrentSCsSucceedRejected(t *testing.T) {
	// Two processes LL the same value, then both SCs "succeed" — one must
	// have failed.
	h := History{
		{Proc: 0, Kind: OpLL, Ret: "0", Inv: 0, Res: 1},
		{Proc: 1, Kind: OpLL, Ret: "0", Inv: 2, Res: 3},
		{Proc: 0, Kind: OpSC, Arg: "a", OK: true, Inv: 4, Res: 7},
		{Proc: 1, Kind: OpSC, Arg: "b", OK: true, Inv: 5, Res: 6},
	}
	if err := CheckLLSC(h, "0"); err == nil {
		t.Fatal("accepted two successful SCs on one link generation")
	}
}

func TestSpuriousSCFailureAccepted(t *testing.T) {
	// An SC that fails while overlapping another successful SC is legal
	// (the success linearizes first).
	h := History{
		{Proc: 0, Kind: OpLL, Ret: "0", Inv: 0, Res: 1},
		{Proc: 1, Kind: OpLL, Ret: "0", Inv: 2, Res: 3},
		{Proc: 0, Kind: OpSC, Arg: "a", OK: false, Inv: 4, Res: 7},
		{Proc: 1, Kind: OpSC, Arg: "b", OK: true, Inv: 5, Res: 6},
	}
	if err := CheckLLSC(h, "0"); err != nil {
		t.Fatal(err)
	}
}

func TestUnjustifiedSCFailureRejected(t *testing.T) {
	// p0's SC fails but no successful SC exists anywhere: illegal.
	h := sequential(
		step{proc: 0, kind: OpLL, ret: "0"},
		step{proc: 0, kind: OpSC, arg: "1", ok: false},
	)
	if err := CheckLLSC(h, "0"); err == nil {
		t.Fatal("accepted SC failure with no interfering success")
	}
}

func TestVLSemantics(t *testing.T) {
	legal := History{
		{Proc: 0, Kind: OpLL, Ret: "0", Inv: 0, Res: 1},
		{Proc: 1, Kind: OpLL, Ret: "0", Inv: 2, Res: 3},
		{Proc: 1, Kind: OpSC, Arg: "1", OK: true, Inv: 4, Res: 5},
		{Proc: 0, Kind: OpVL, OK: false, Inv: 6, Res: 7},
	}
	if err := CheckLLSC(legal, "0"); err != nil {
		t.Fatal(err)
	}
	illegal := History{
		{Proc: 0, Kind: OpLL, Ret: "0", Inv: 0, Res: 1},
		{Proc: 1, Kind: OpLL, Ret: "0", Inv: 2, Res: 3},
		{Proc: 1, Kind: OpSC, Arg: "1", OK: true, Inv: 4, Res: 5},
		{Proc: 0, Kind: OpVL, OK: true, Inv: 6, Res: 7},
	}
	if err := CheckLLSC(illegal, "0"); err == nil {
		t.Fatal("accepted VL=true after non-overlapping successful SC")
	}
}

func TestConcurrentLLCanReadEitherSide(t *testing.T) {
	// An LL overlapping a successful SC may return the old or new value;
	// both histories must be accepted.
	for _, ret := range []string{"0", "1"} {
		h := History{
			{Proc: 0, Kind: OpLL, Ret: "0", Inv: 0, Res: 1},
			{Proc: 0, Kind: OpSC, Arg: "1", OK: true, Inv: 2, Res: 5},
			{Proc: 1, Kind: OpLL, Ret: ret, Inv: 3, Res: 4},
		}
		if err := CheckLLSC(h, "0"); err != nil {
			t.Errorf("LL returning %q during overlapping SC rejected: %v", ret, err)
		}
	}
}

func TestRealTimeOrderEnforced(t *testing.T) {
	// The value written by an SC that completes strictly before an LL
	// begins must be visible (monotonicity): LL cannot return the initial
	// value once "1" was installed and then "2" by non-overlapping ops.
	h := History{
		{Proc: 0, Kind: OpLL, Ret: "0", Inv: 0, Res: 1},
		{Proc: 0, Kind: OpSC, Arg: "1", OK: true, Inv: 2, Res: 3},
		{Proc: 0, Kind: OpLL, Ret: "1", Inv: 4, Res: 5},
		{Proc: 0, Kind: OpSC, Arg: "2", OK: true, Inv: 6, Res: 7},
		{Proc: 1, Kind: OpLL, Ret: "1", Inv: 8, Res: 9}, // stale: must reject
	}
	if err := CheckLLSC(h, "0"); err == nil {
		t.Fatal("accepted LL of overwritten value after both SCs completed")
	}
}

func TestOverlappingOpsSameProcessRejected(t *testing.T) {
	h := History{
		{Proc: 0, Kind: OpLL, Ret: "0", Inv: 0, Res: 5},
		{Proc: 0, Kind: OpVL, OK: true, Inv: 1, Res: 2},
	}
	if err := CheckLLSC(h, "0"); err == nil {
		t.Fatal("accepted overlapping operations of one process")
	}
}

func TestTooLargeHistoryRejected(t *testing.T) {
	h := make(History, MaxOps+1)
	for i := range h {
		h[i] = Op{Proc: 0, Kind: OpVL, OK: false, Inv: int64(2 * i), Res: int64(2*i + 1)}
	}
	if err := CheckLLSC(h, "0"); err == nil {
		t.Fatal("accepted oversized history")
	}
}

// TestRecorderAgainstRealObject runs small concurrent workloads on the real
// implementation, records histories, and checks them. Repeated with many
// goroutine interleavings (the scheduler provides the nondeterminism).
func TestRecorderAgainstRealObject(t *testing.T) {
	const (
		n      = 3
		w      = 4
		opsPer = 5
		rounds = 200
	)
	initial := make([]uint64, w)
	for j := range initial {
		initial[j] = uint64(j) // pattern with base 0
	}
	for round := 0; round < rounds; round++ {
		obj, err := mwllsc.New(n, w, initial)
		if err != nil {
			t.Fatal(err)
		}
		rec := NewRecorder(n)
		var wg sync.WaitGroup
		for p := 0; p < n; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				h := obj.Handle(p)
				v := make([]uint64, w)
				for i := 0; i < opsPer; i++ {
					inv := rec.Begin()
					h.LL(v)
					res := rec.End()
					rec.RecordLL(p, PatternValue(v), inv, res)

					id := uint64(1 + p*1000 + i)
					next := make([]uint64, w)
					for j := range next {
						next[j] = id + uint64(j)
					}
					inv = rec.Begin()
					ok := h.SC(next)
					res = rec.End()
					rec.RecordSC(p, strconv.FormatUint(id, 10), ok, inv, res)
				}
			}(p)
		}
		wg.Wait()
		if err := CheckLLSC(rec.History(), "0"); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestRecorderReadsAgainstRealObject is TestRecorderAgainstRealObject with
// a Read, and the VL that follows it, before every LL: each recorded
// history — Reads included — must be linearizable.
func TestRecorderReadsAgainstRealObject(t *testing.T) {
	const (
		n      = 3
		w      = 4
		opsPer = 4
		rounds = 200
	)
	initial := make([]uint64, w)
	for j := range initial {
		initial[j] = uint64(j)
	}
	for round := 0; round < rounds; round++ {
		obj, err := core.New(mem.NewReal(n, mem.SubstrateTagged), n, w, initial, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec := NewRecorder(n)
		var wg sync.WaitGroup
		for p := 0; p < n; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				v := make([]uint64, w)
				next := make([]uint64, w)
				for i := 0; i < opsPer; i++ {
					inv := rec.Begin()
					obj.Read(p, v)
					rec.RecordRead(p, PatternValue(v), inv, rec.End())
					inv = rec.Begin()
					ok := obj.VL(p)
					rec.RecordVL(p, ok, inv, rec.End())

					inv = rec.Begin()
					obj.LL(p, v)
					rec.RecordLL(p, PatternValue(v), inv, rec.End())
					id := uint64(1 + p*1000 + i)
					for j := range next {
						next[j] = id + uint64(j)
					}
					inv = rec.Begin()
					ok = obj.SC(p, next)
					rec.RecordSC(p, strconv.FormatUint(id, 10), ok, inv, rec.End())
				}
			}(p)
		}
		wg.Wait()
		if err := CheckLLSC(rec.History(), "0"); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}
