package check

import (
	"math/rand"
	"strconv"
	"testing"
)

// genLegalHistory produces a history by actually executing random
// operations against the sequential LL/SC spec (so it is linearizable by
// construction), then stretching the intervals so that adjacent operations
// overlap. CheckLLSC must accept every such history.
func genLegalHistory(rng *rand.Rand, nproc, nops int) History {
	return genHistory(rng, nproc, nops, false)
}

// genHistory is genLegalHistory, with Reads among the operations when
// reads is true: a Read returns the value and links for VL, and an SC
// after it fails until the process's next LL.
func genHistory(rng *rand.Rand, nproc, nops int, reads bool) History {
	type state struct {
		value string
		links map[int]bool
		read  map[int]bool
	}
	st := state{value: "0", links: map[int]bool{}, read: map[int]bool{}}
	kinds := 3
	if reads {
		kinds = 4
	}
	var h History
	nextVal := 1
	for i := 0; i < nops; i++ {
		p := rng.Intn(nproc)
		base := int64(i * 4)
		// Stretch: Inv reaches back before the previous op's Res, creating
		// overlap while preserving per-process sequencing.
		inv := base - int64(rng.Intn(5))
		res := base + 2 + int64(rng.Intn(3))
		// Keep per-process ops non-overlapping: bump inv past p's last res.
		for j := len(h) - 1; j >= 0; j-- {
			if h[j].Proc == p {
				if inv <= h[j].Res {
					inv = h[j].Res + 1
				}
				break
			}
		}
		if res <= inv {
			res = inv + 1
		}
		switch rng.Intn(kinds) {
		case 0:
			h = append(h, Op{Proc: p, Kind: OpLL, Ret: st.value, Inv: inv, Res: res})
			st.links[p] = true
			st.read[p] = false
		case 3:
			h = append(h, Op{Proc: p, Kind: OpRead, Ret: st.value, Inv: inv, Res: res})
			st.links[p] = true
			st.read[p] = true
		case 1:
			ok := st.links[p] && !st.read[p]
			arg := strconv.Itoa(nextVal)
			nextVal++
			if ok {
				st.value = arg
				st.links = map[int]bool{}
			}
			h = append(h, Op{Proc: p, Kind: OpSC, Arg: arg, OK: ok, Inv: inv, Res: res})
		default:
			h = append(h, Op{Proc: p, Kind: OpVL, OK: st.links[p], Inv: inv, Res: res})
		}
	}
	return h
}

// TestCheckerAcceptsGeneratedLegalHistories is the checker's soundness
// property test: histories linearizable by construction are never rejected.
func TestCheckerAcceptsGeneratedLegalHistories(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nproc := 1 + rng.Intn(4)
		nops := 1 + rng.Intn(20)
		h := genLegalHistory(rng, nproc, nops)
		if err := CheckLLSC(h, "0"); err != nil {
			t.Fatalf("seed %d: legal history rejected: %v", seed, err)
		}
	}
}

// TestCheckerAcceptsGeneratedReadHistories is the soundness property with
// Reads in the mix.
func TestCheckerAcceptsGeneratedReadHistories(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := genHistory(rng, 1+rng.Intn(4), 1+rng.Intn(20), true)
		if err := CheckLLSC(h, "0"); err != nil {
			t.Fatalf("seed %d: legal history rejected: %v", seed, err)
		}
	}
}

// TestCheckerRejectsValueMutations flips an SC's written value after the
// fact: any LL that observed it now returns a value never written, which
// the checker must reject.
func TestCheckerRejectsValueMutations(t *testing.T) {
	rejected := 0
	tried := 0
	for seed := int64(0); seed < 300 && tried < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := genLegalHistory(rng, 3, 15)
		// Find an SC whose value some later LL returned.
		scIdx := -1
		for i, op := range h {
			if op.Kind != OpSC || !op.OK {
				continue
			}
			for _, later := range h[i+1:] {
				if later.Kind == OpLL && later.Ret == op.Arg {
					scIdx = i
					break
				}
			}
			if scIdx >= 0 {
				break
			}
		}
		if scIdx < 0 {
			continue
		}
		tried++
		mutated := make(History, len(h))
		copy(mutated, h)
		mutated[scIdx].Arg = "mutant-" + strconv.FormatInt(seed, 10)
		if err := CheckLLSC(mutated, "0"); err != nil {
			rejected++
		}
	}
	if tried == 0 {
		t.Fatal("generator never produced an observed SC; test is vacuous")
	}
	if rejected != tried {
		t.Fatalf("only %d/%d mutated histories rejected", rejected, tried)
	}
}

func BenchmarkCheckLLSC(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	h := genLegalHistory(rng, 4, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := CheckLLSC(h, "0"); err != nil {
			b.Fatal(err)
		}
	}
}
