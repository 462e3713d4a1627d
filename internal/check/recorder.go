package check

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
)

// Recorder collects per-process operation records with timestamps from a
// shared atomic clock, for feeding CheckLLSC after a concurrent run. Each
// process records only into its own slot, so recording is race-free without
// locks; call History only after all processes are done.
type Recorder struct {
	clock atomic.Int64
	slots [][]Op
}

// NewRecorder returns a Recorder for nproc processes.
func NewRecorder(nproc int) *Recorder {
	return &Recorder{slots: make([][]Op, nproc)}
}

// Begin returns an invocation timestamp.
func (r *Recorder) Begin() int64 { return r.clock.Add(1) }

// End returns a response timestamp.
func (r *Recorder) End() int64 { return r.clock.Add(1) }

// RecordLL records a completed LL by process p that returned value ret.
func (r *Recorder) RecordLL(p int, ret string, inv, res int64) {
	r.slots[p] = append(r.slots[p], Op{Proc: p, Kind: OpLL, Ret: ret, Inv: inv, Res: res})
}

// RecordRead records a completed Read by process p that returned value ret.
func (r *Recorder) RecordRead(p int, ret string, inv, res int64) {
	r.slots[p] = append(r.slots[p], Op{Proc: p, Kind: OpRead, Ret: ret, Inv: inv, Res: res})
}

// RecordSC records a completed SC by process p that tried to write arg.
func (r *Recorder) RecordSC(p int, arg string, ok bool, inv, res int64) {
	r.slots[p] = append(r.slots[p], Op{Proc: p, Kind: OpSC, Arg: arg, OK: ok, Inv: inv, Res: res})
}

// RecordVL records a completed VL by process p.
func (r *Recorder) RecordVL(p int, ok bool, inv, res int64) {
	r.slots[p] = append(r.slots[p], Op{Proc: p, Kind: OpVL, OK: ok, Inv: inv, Res: res})
}

// History merges all per-process records. Call only after all recording
// goroutines have finished.
func (r *Recorder) History() History {
	var h History
	for _, s := range r.slots {
		h = append(h, s...)
	}
	return h
}

// WordsValue encodes a multiword value as an opaque history value string.
func WordsValue(v []uint64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatUint(x, 16)
	}
	return strings.Join(parts, ",")
}

// PatternValue encodes the test pattern (word j = base+j) by its base,
// returning an error string if v is not a pattern — which CheckLLSC will
// then reject as a value never written.
func PatternValue(v []uint64) string {
	for j := range v {
		if v[j] != v[0]+uint64(j) {
			return fmt.Sprintf("torn(%s)", WordsValue(v))
		}
	}
	return strconv.FormatUint(v[0], 10)
}
