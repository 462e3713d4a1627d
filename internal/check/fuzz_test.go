package check

import (
	"strconv"
	"testing"
)

// FuzzCheckLLSCNeverPanics decodes an arbitrary byte string into a history
// and runs the checker: any input must yield accept or reject, never a
// panic or a hang (the memoized search must stay bounded).
func FuzzCheckLLSCNeverPanics(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var h History
		clock := int64(0)
		for i := 0; i+2 < len(raw) && len(h) < 24; i += 3 {
			proc := int(raw[i] % 4)
			kind := Kind(raw[i+1]%4) + 1
			arg := strconv.Itoa(int(raw[i+2] % 8))
			overlap := raw[i+2]&0x80 != 0
			inv := clock
			clock += 2
			res := clock - 1
			if overlap && inv > 0 {
				inv-- // overlap with the previous op
			}
			op := Op{Proc: proc, Kind: kind, Inv: inv, Res: res, OK: raw[i+2]&1 == 1}
			switch kind {
			case OpLL, OpRead:
				op.Ret = arg
			case OpSC:
				op.Arg = arg
			}
			h = append(h, op)
		}
		_ = CheckLLSC(h, "0") // must not panic; result is input-dependent
	})
}
