package mwllsc_test

import (
	"fmt"
	"sync"
	"testing"

	"mwllsc"
)

func TestNewShardedOptions(t *testing.T) {
	m, err := mwllsc.NewSharded(4, 2, 3,
		mwllsc.WithShardedInitial([]uint64{1, 2, 3}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards() != 4 || m.N() != 2 || m.W() != 3 {
		t.Fatalf("geometry = %d/%d/%d, want 4/2/3", m.Shards(), m.N(), m.W())
	}
	v := make([]uint64, 3)
	m.Read(99, v)
	if v[0] != 1 || v[1] != 2 || v[2] != 3 {
		t.Fatalf("initial value %v, want [1 2 3]", v)
	}
	if _, err := mwllsc.NewSharded(0, 2, 3); err == nil {
		t.Fatal("NewSharded(0, ...) succeeded")
	}
}

func TestRegistryWithObjectHandles(t *testing.T) {
	const n = 3
	obj, err := mwllsc.New(n, 1, []uint64{0})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := mwllsc.NewRegistry(n)
	if err != nil {
		t.Fatal(err)
	}
	const (
		goroutines = 12
		perG       = 300
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				p := reg.Acquire()
				obj.Handle(p).Update(func(v []uint64) { v[0]++ })
				reg.Release(p)
			}
		}()
	}
	wg.Wait()
	if got := obj.Handle(0).LLNew()[0]; got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if reg.InUse() != 0 {
		t.Fatalf("registry leaked %d slots", reg.InUse())
	}
}

func TestHashBytesTopLevel(t *testing.T) {
	if mwllsc.HashBytes([]byte("a")) == mwllsc.HashBytes([]byte("b")) {
		t.Fatal("distinct keys collide")
	}
}

func TestHashUint64TopLevel(t *testing.T) {
	if mwllsc.HashUint64(7) == mwllsc.HashUint64(8) {
		t.Fatal("distinct integer keys collide")
	}
}

// TestShardedTransactions drives the public cross-shard transaction API:
// concurrent multi-key transfers against concurrent single-key updates,
// with atomic snapshots that must always balance.
func TestShardedTransactions(t *testing.T) {
	const (
		shards  = 4
		slots   = 4
		initial = 100
		perG    = 250
	)
	m, err := mwllsc.NewSharded(shards, slots, 1, mwllsc.WithShardedInitial([]uint64{initial}))
	if err != nil {
		t.Fatal(err)
	}
	// Representative keys, one per shard.
	keys := make([]uint64, shards)
	for i := range keys {
		keys[i] = m.KeyForShard(i)
	}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := m.Acquire()
			defer h.Release()
			for i := 0; i < perG; i++ {
				from, to := (g+i)%shards, (g+i+1)%shards
				h.UpdateMulti([]uint64{keys[from], keys[to]}, func(vals [][]uint64) {
					vals[0][0]--
					vals[1][0]++
				})
			}
		}(g)
	}
	auditFail := make(chan uint64, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := m.Acquire()
		defer h.Release()
		buf := m.NewSnapshotBuffer()
		for i := 0; i < perG; i++ {
			h.SnapshotAtomic(buf)
			var sum uint64
			for _, row := range buf {
				sum += row[0]
			}
			if sum != shards*initial {
				select {
				case auditFail <- sum:
				default:
				}
				return
			}
		}
	}()
	wg.Wait()
	select {
	case sum := <-auditFail:
		t.Fatalf("atomic snapshot saw total %d, want %d", sum, shards*initial)
	default:
	}

	buf := m.NewSnapshotBuffer()
	m.SnapshotAtomic(buf)
	var sum uint64
	for _, row := range buf {
		sum += row[0]
	}
	if sum != shards*initial {
		t.Fatalf("final total %d, want %d", sum, shards*initial)
	}
}

// ExampleShardedHandle_UpdateMulti transfers between two accounts that
// live in different shards — atomically, in one transaction — and audits
// with a cross-shard linearizable snapshot.
func ExampleShardedHandle_UpdateMulti() {
	m, err := mwllsc.NewSharded(4 /*shards*/, 2 /*slots*/, 1 /*word*/, mwllsc.WithShardedInitial([]uint64{100}))
	if err != nil {
		panic(err)
	}
	h := m.Acquire()
	defer h.Release()

	alice := mwllsc.HashBytes([]byte("acct:alice"))
	bob := mwllsc.HashBytes([]byte("acct:bob"))
	h.UpdateMulti([]uint64{alice, bob}, func(vals [][]uint64) {
		vals[0][0] -= 25 // debit alice
		vals[1][0] += 25 // credit bob, atomically with the debit
	})

	snap := m.NewSnapshotBuffer()
	h.SnapshotAtomic(snap) // all shards from one instant
	var total uint64
	for _, row := range snap {
		total += row[0]
	}
	fmt.Println("total:", total)
	// Output: total: 400
}

// ExampleNewSharded serves a bank of counters from more goroutines than
// the object has process slots: the registry hands out ids, the hash
// spreads keys over shards.
func ExampleNewSharded() {
	m, err := mwllsc.NewSharded(4 /*shards*/, 2 /*slots*/, 1 /*word*/)
	if err != nil {
		panic(err)
	}
	var wg sync.WaitGroup
	for worker := 0; worker < 8; worker++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := m.Acquire() // waits if both slots are busy
			defer h.Release()
			for key := uint64(0); key < 100; key++ {
				h.Update(key, func(v []uint64) { v[0]++ })
			}
		}()
	}
	wg.Wait()

	snap := m.NewSnapshotBuffer()
	m.Snapshot(snap) // each shard's value read atomically
	var total uint64
	for _, row := range snap {
		total += row[0]
	}
	fmt.Println("total increments:", total)
	// Output: total increments: 800
}
