package core

import (
	"fmt"
	"sync"
	"testing"

	"mwllsc/internal/mem"
)

// TestStressLargeConfigs runs the counter invariant at scales beyond the
// regular tests (more processes, wider values, both substrates), with two
// extra processes calling Read throughout: every Read must see all words
// equal. Skipped with -short.
func TestStressLargeConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped with -short")
	}
	configs := []struct {
		n, w, ops int
		substrate mem.Substrate
	}{
		{32, 8, 300, mem.SubstrateTagged},
		{16, 64, 300, mem.SubstrateTagged},
		{8, 256, 200, mem.SubstrateTagged},
		{32, 8, 300, mem.SubstratePtr},
		{4, 1024, 100, mem.SubstrateTagged},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(fmt.Sprintf("n%d_w%d_%s", cfg.n, cfg.w, cfg.substrate), func(t *testing.T) {
			t.Parallel()
			const readers = 2
			var stats Stats
			o, err := New(mem.NewReal(cfg.n+readers, cfg.substrate), cfg.n+readers, cfg.w, make([]uint64, cfg.w), &stats)
			if err != nil {
				t.Fatal(err)
			}
			stop := startReaders(t, o, cfg.n, readers, func(v []uint64) bool {
				for j := 1; j < len(v); j++ {
					if v[j] != v[0] {
						return false
					}
				}
				return true
			})
			var wg sync.WaitGroup
			successes := make([]int64, cfg.n)
			for p := 0; p < cfg.n; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					v := make([]uint64, cfg.w)
					next := make([]uint64, cfg.w)
					for i := 0; i < cfg.ops; i++ {
						o.LL(p, v)
						for j := 1; j < cfg.w; j++ {
							if v[j] != v[0] {
								t.Errorf("p%d: torn read at word %d", p, j)
								return
							}
						}
						for j := range next {
							next[j] = v[0] + 1
						}
						if o.SC(p, next) {
							successes[p]++
						}
					}
				}(p)
			}
			wg.Wait()
			stop()
			var total int64
			for _, s := range successes {
				total += s
			}
			final := make([]uint64, cfg.w)
			o.LL(0, final)
			if int64(final[0]) != total {
				t.Fatalf("final %d != %d successful SCs", final[0], total)
			}
			snap := stats.Snapshot()
			if snap.SCSuccess != total {
				t.Fatalf("stats disagree: %d vs %d", snap.SCSuccess, total)
			}
		})
	}
}
