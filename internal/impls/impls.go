// Package impls is the registry of multiword LL/SC implementations by
// name, shared by applications, benchmarks, and the CLI tools:
//
//	jp       — the paper's algorithm (tagged single-word substrate)
//	jp-ptr   — the paper's algorithm (pointer single-word substrate)
//	amstyle  — wait-free O(N²W)-space baseline (previous best profile)
//	gcptr    — CAS-on-pointer baseline (GC does the buffer management)
//	lockmw   — mutex baseline (blocking)
package impls

import (
	"fmt"
	"sort"

	"mwllsc/internal/baseline"
	"mwllsc/internal/core"
	"mwllsc/internal/mem"
	"mwllsc/internal/mwobj"
	"mwllsc/internal/shard"
)

// JP is the paper's algorithm on the default (tagged) substrate.
const JP = "jp"

// registry maps implementation names to factories.
var registry = map[string]mwobj.Factory{
	JP: shard.DefaultFactory,
	"jp-ptr": func(n, w int, initial []uint64) (mwobj.MW, error) {
		return core.New(mem.NewReal(n, mem.SubstratePtr), n, w, initial, nil)
	},
	"amstyle": func(n, w int, initial []uint64) (mwobj.MW, error) {
		return baseline.NewAMStyle(n, w, initial)
	},
	"gcptr": func(n, w int, initial []uint64) (mwobj.MW, error) {
		return baseline.NewGCPtr(n, w, initial)
	},
	"lockmw": func(n, w int, initial []uint64) (mwobj.MW, error) {
		return baseline.NewLockMW(n, w, initial)
	},
}

// ByName returns the factory registered under name.
func ByName(name string) (mwobj.Factory, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("impls: unknown implementation %q (have %v)", name, Names())
	}
	return f, nil
}

// Names lists all registered implementation names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// JPWithStats returns a factory for the paper's algorithm wired to stats.
func JPWithStats(stats *core.Stats) mwobj.Factory {
	return func(n, w int, initial []uint64) (mwobj.MW, error) {
		return core.New(mem.NewReal(n, mem.SubstrateTagged), n, w, initial, stats)
	}
}

// NewSharded builds a k-shard map whose shards are the named
// implementation, sharing one n-slot goroutine registry — the scaling
// construction from internal/shard over any registered object.
func NewSharded(name string, k, n, w int, opts ...shard.MapOption) (*shard.Map, error) {
	f, err := ByName(name)
	if err != nil {
		return nil, err
	}
	return shard.NewMap(k, n, w, append([]shard.MapOption{shard.WithFactory(f)}, opts...)...)
}
