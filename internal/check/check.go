// Package check provides a linearizability checker for concurrent histories
// of LL/SC/VL operations, in the style of Wing & Gong's algorithm with
// memoization. It is the empirical counterpart of the paper's Theorem 1
// ("the implementation is linearizable"): histories recorded from real
// concurrent runs or from the simulator's adversarial schedules are searched
// for a legal sequential witness.
package check

import (
	"fmt"
	"sort"
	"strings"
)

// Kind is the operation type in a history.
type Kind uint8

// Operation kinds.
const (
	// OpLL is a load-linked; Ret holds the value it returned.
	OpLL Kind = iota + 1
	// OpSC is a store-conditional; Arg holds the value it tried to write
	// and OK whether it reported success.
	OpSC
	// OpVL is a validate; OK holds its result.
	OpVL
	// OpRead is a store-free read; Ret holds the value it returned. It
	// links like an LL for VL, but SC fails until the next LL.
	OpRead
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case OpLL:
		return "LL"
	case OpSC:
		return "SC"
	case OpVL:
		return "VL"
	case OpRead:
		return "Read"
	default:
		return "?"
	}
}

// Op is one completed operation in a concurrent history. Values are opaque
// strings (callers encode multiword values however they like, e.g. the id
// word); equality is all the checker needs.
type Op struct {
	// Proc is the process id that performed the operation.
	Proc int
	// Kind is LL, SC, VL or Read.
	Kind Kind
	// Arg is the value an SC tried to write (unused otherwise).
	Arg string
	// Ret is the value an LL or Read returned (unused otherwise).
	Ret string
	// OK is the reported result of an SC or VL (unused for LL and Read).
	OK bool
	// Inv and Res are invocation and response timestamps from any
	// monotonic clock shared by all processes; Res must be > Inv, and
	// non-overlap (a.Res < b.Inv) must reflect real-time order.
	Inv, Res int64
}

func (o Op) String() string {
	switch o.Kind {
	case OpLL:
		return fmt.Sprintf("p%d.LL()=%s@[%d,%d]", o.Proc, o.Ret, o.Inv, o.Res)
	case OpRead:
		return fmt.Sprintf("p%d.Read()=%s@[%d,%d]", o.Proc, o.Ret, o.Inv, o.Res)
	case OpSC:
		return fmt.Sprintf("p%d.SC(%s)=%v@[%d,%d]", o.Proc, o.Arg, o.OK, o.Inv, o.Res)
	default:
		return fmt.Sprintf("p%d.VL()=%v@[%d,%d]", o.Proc, o.OK, o.Inv, o.Res)
	}
}

// History is a set of completed operations.
type History []Op

// MaxOps is the largest history CheckLLSC accepts (the search uses a
// 64-bit linearized-set mask).
const MaxOps = 64

// specState is the sequential LL/SC/VL object state: the current value and,
// per process, whether its link is still valid (no successful SC since its
// last LL or Read) and whether that link came from a Read. This compact
// form makes the spec Markovian in (value, links, reads), which the
// memoization key exploits.
type specState struct {
	value string
	links uint64 // bit p set <=> process p's link is valid
	reads uint64 // bit p set <=> process p's latest LL-or-Read was a Read
}

// CheckLLSC reports whether h is linearizable with respect to the LL/SC/VL
// specification starting from the given initial value. It returns nil if a
// legal linearization exists, and an error describing the history otherwise.
//
// Process ids in h must be < 64, and len(h) <= MaxOps. Operations of the
// same process must not overlap (they are sequenced by Inv).
func CheckLLSC(h History, initial string) error {
	if len(h) == 0 {
		return nil
	}
	if len(h) > MaxOps {
		return fmt.Errorf("check: history has %d ops, max %d", len(h), MaxOps)
	}

	// Sort by invocation; per-process program order must follow Inv order.
	ops := make([]Op, len(h))
	copy(ops, h)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Inv < ops[j].Inv })

	// Per-process operation sequences (indices into ops).
	perProc := map[int][]int{}
	for i, op := range ops {
		if op.Proc < 0 || op.Proc >= 64 {
			return fmt.Errorf("check: process id %d out of range", op.Proc)
		}
		if op.Res <= op.Inv {
			return fmt.Errorf("check: op %v has Res <= Inv", op)
		}
		perProc[op.Proc] = append(perProc[op.Proc], i)
	}
	for p, idxs := range perProc {
		for j := 1; j < len(idxs); j++ {
			if ops[idxs[j]].Inv < ops[idxs[j-1]].Res {
				return fmt.Errorf("check: process %d has overlapping ops %v and %v",
					p, ops[idxs[j-1]], ops[idxs[j]])
			}
		}
	}

	c := &checker{ops: ops, perProc: perProc, visited: map[string]bool{}}
	if c.search(0, specState{value: initial}, make(map[int]int, len(perProc))) {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "check: history is NOT linearizable (initial=%s):\n", initial)
	for _, op := range ops {
		fmt.Fprintf(&b, "  %v\n", op)
	}
	return fmt.Errorf("%s", b.String())
}

type checker struct {
	ops     []Op
	perProc map[int][]int
	visited map[string]bool // (mask, state) configurations proven dead
}

// search tries to linearize the remaining operations given the set already
// linearized (mask), the spec state, and each process's progress. next maps
// proc -> count of its ops already linearized.
func (c *checker) search(mask uint64, st specState, next map[int]int) bool {
	if mask == 1<<len(c.ops)-1 {
		return true
	}
	key := stateKey(mask, st)
	if c.visited[key] {
		return false
	}

	// minRes is the earliest response among un-linearized ops: an op may
	// linearize now only if it was invoked before that response (otherwise
	// the completed op must come first).
	minRes := int64(1<<63 - 1)
	for i, op := range c.ops {
		if mask&(1<<i) == 0 && op.Res < minRes {
			minRes = op.Res
		}
	}

	for p, idxs := range c.perProc {
		if next[p] >= len(idxs) {
			continue
		}
		i := idxs[next[p]]
		op := c.ops[i]
		if op.Inv > minRes {
			continue // some completed op must linearize first
		}
		st2, legal := applySpec(st, op)
		if !legal {
			continue
		}
		next[p]++
		ok := c.search(mask|1<<i, st2, next)
		next[p]--
		if ok {
			return true
		}
	}
	c.visited[key] = true
	return false
}

// applySpec runs one operation against the sequential specification,
// reporting the successor state and whether the recorded result is legal.
func applySpec(st specState, op Op) (specState, bool) {
	bit := uint64(1) << op.Proc
	switch op.Kind {
	case OpLL, OpRead:
		if op.Ret != st.value {
			return st, false
		}
		st.links |= bit
		if op.Kind == OpRead {
			st.reads |= bit
		} else {
			st.reads &^= bit
		}
		return st, true
	case OpSC:
		want := st.links&bit != 0 && st.reads&bit == 0
		if op.OK != want {
			return st, false
		}
		if op.OK {
			st.value = op.Arg
			st.links = 0 // a successful SC invalidates every link
		}
		return st, true
	case OpVL:
		want := st.links&bit != 0
		if op.OK != want {
			return st, false
		}
		return st, true
	default:
		return st, false
	}
}

func stateKey(mask uint64, st specState) string {
	return fmt.Sprintf("%x|%x|%x|%s", mask, st.links, st.reads, st.value)
}
