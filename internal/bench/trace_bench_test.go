package bench

import (
	"testing"
	"time"
)

func TestE15TraceOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point load run; skipped with -short")
	}
	tab, err := E15TraceOverhead(Options{Dur: 15 * time.Millisecond, Iters: 100, Procs: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "e15" || len(tab.Rows) != 3 || len(tab.Cols) != 6 {
		t.Fatalf("table shape: id=%s rows=%d cols=%d", tab.ID, len(tab.Rows), len(tab.Cols))
	}
	// Rows run idle, 1/64, all. The span rate column must be zero
	// without sampling and nonzero when every request is traced.
	for i, mode := range []string{"idle", "1/64", "all"} {
		if tab.Rows[i][1] != mode {
			t.Fatalf("row %d mode = %s, want %s", i, tab.Rows[i][1], mode)
		}
	}
	if got := tab.Rows[0][5]; got != "0" {
		t.Errorf("idle row spans/s = %s, want 0", got)
	}
	if got := tab.Rows[2][5]; got == "0" {
		t.Errorf("all-on row retired no spans")
	}
}
