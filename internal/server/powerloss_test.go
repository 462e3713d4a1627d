package server_test

import (
	"context"
	"math/bits"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"mwllsc/internal/client"
	"mwllsc/internal/fault"
	"mwllsc/internal/persist"
	"mwllsc/internal/server"
	"mwllsc/internal/shard"
)

// Power-loss harness geometry: every update adds one distinct bit to a
// shard's value (words 0..plWords-2 hold the bits) and 1 to its last
// word, so the recovered value names exactly which updates survived and
// the last word cross-checks that none was applied twice.
const (
	plShards  = 4
	plWords   = 3
	plBits    = (plWords - 1) * 64 // distinct updates per shard
	plWorkers = 4                  // goroutines per client connection
)

// plSet is a set of update bits on one shard.
type plSet [plWords - 1]uint64

func (s *plSet) add(bit int)          { s[bit/64] |= 1 << (bit % 64) }
func (s plSet) subsetOf(o plSet) bool { return s[0]&^o[0] == 0 && s[1]&^o[1] == 0 }
func (s plSet) count() int            { return bits.OnesCount64(s[0]) + bits.OnesCount64(s[1]) }
func setOf(v []uint64) (s plSet)      { copy(s[:], v); return s }

// deltaFor is the Add arguments of the update owning bit.
func deltaFor(bit int) []uint64 {
	d := make([]uint64, plWords)
	d[bit/64] = 1 << (bit % 64)
	d[plWords-1] = 1
	return d
}

// plAck is one acknowledged update's response: the shard's value right
// after that update committed, i.e. the set of updates committed so far
// and their number.
type plAck struct {
	set plSet
	pos uint64
}

// TestPowerLoss runs a server over fault.Files, cuts the power mid-load
// — every log file falls back to its last successful fsync, or with tear
// keeps a seeded part of its unsynced suffix — and recovers the
// directory. Nothing that was never issued may be present, and under
// SyncAlways every acknowledged update must be.
//
// With one client connection, records reach the log in Seq order, so
// each shard's recovered value must also be the value it held after some
// prefix of its commits. Acknowledged responses sample that commit
// chain. Under SyncAlways the samples stop at the last fsync, so the
// check cannot see how the unsynced tail was ordered; the SyncNone run
// acknowledges every record it writes, so there every surviving commit
// is sampled and the check is exact. The prefix property is deliberately
// not asserted for several connections: there, a committed but
// unacknowledged update can miss the log while a later one on its shard
// is present.
func TestPowerLoss(t *testing.T) {
	for _, tc := range []struct {
		name   string
		conns  int
		tear   bool
		policy persist.Policy
	}{
		{"conns=3", 3, false, persist.SyncAlways},
		{"conns=3/torn", 3, true, persist.SyncAlways},
		{"conns=1/torn", 1, true, persist.SyncAlways},
		{"conns=1/torn/none", 1, true, persist.SyncNone},
	} {
		t.Run(tc.name, func(t *testing.T) { runPowerLoss(t, tc.conns, tc.tear, tc.policy) })
	}
}

func runPowerLoss(t *testing.T, conns int, tear bool, policy persist.Policy) {
	dir := filepath.Join(t.TempDir(), "data")
	m, err := shard.NewMap(plShards, conns+2, plWords)
	if err != nil {
		t.Fatal(err)
	}
	ff := fault.NewFiles(fault.FilesConfig{Seed: uint64(7 + conns)})
	st, _, err := persist.Open(dir, m, persist.Options{
		Policy:  policy,
		OpenLog: func(path string) (persist.LogFile, error) { return ff.Open(path) },
	})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(m, server.WithMaxBatch(16), server.WithPersist(st))
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve()

	keys := make([]uint64, plShards)
	for i := range keys {
		keys[i] = m.KeyForShard(i)
	}
	var (
		mu             sync.Mutex
		issued, acked  [plShards]plSet
		history        [plShards][]plAck
		nAcked         atomic.Int64
		cut            sync.Once
		cutErr         error
		total          = plShards * plBits
		ctx            = context.Background()
		wg             sync.WaitGroup
		span           = plBits / conns // bits per shard owned by each client
		clients        []*client.Client
		powerLossAfter = int64(total / 2)
	)
	for c := 0; c < conns; c++ {
		cl, err := client.Dial(addr.String(), client.WithConns(1))
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cl)
		// The client's updates, in a seeded order: bit c*span+j of every
		// shard, so every client's deltas are distinct.
		type op struct{ sh, bit int }
		var ops []op
		for sh := 0; sh < plShards; sh++ {
			for j := 0; j < span; j++ {
				ops = append(ops, op{sh, c*span + j})
			}
		}
		rng := rand.New(rand.NewPCG(uint64(c), 1))
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		queue := make(chan op, len(ops))
		for _, o := range ops {
			queue <- o
		}
		close(queue)
		for w := 0; w < plWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for o := range queue {
					mu.Lock()
					issued[o.sh].add(o.bit)
					mu.Unlock()
					v, err := cl.Add(ctx, keys[o.sh], deltaFor(o.bit))
					if err != nil {
						continue // not acknowledged: may or may not survive
					}
					mu.Lock()
					acked[o.sh].add(o.bit)
					history[o.sh] = append(history[o.sh], plAck{setOf(v), v[plWords-1]})
					mu.Unlock()
					if nAcked.Add(1) == powerLossAfter {
						cut.Do(func() { cutErr = ff.PowerLoss(tear) })
					}
				}
			}()
		}
	}
	wg.Wait()
	for _, cl := range clients {
		cl.Close()
	}
	s.Close()
	st.Close() // reports the power loss as its sticky failure
	if cutErr != nil {
		t.Fatal(cutErr)
	}

	m2, err := shard.NewMap(plShards, 2, plWords)
	if err != nil {
		t.Fatal(err)
	}
	st2, rec, err := persist.Open(dir, m2, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	t.Logf("acked %d of %d updates; recovery %+v", nAcked.Load(), total, rec)
	if rec.Replayed >= total {
		t.Fatalf("all %d updates recovered: the power loss did not land mid-load", total)
	}
	v := make([]uint64, plWords)
	for sh := 0; sh < plShards; sh++ {
		m2.Read(keys[sh], v)
		got := setOf(v)
		if policy == persist.SyncAlways && !acked[sh].subsetOf(got) {
			t.Errorf("shard %d: acknowledged updates %x lost (recovered %x)", sh, acked[sh], got)
		}
		if !got.subsetOf(issued[sh]) {
			t.Errorf("shard %d: recovered %x holds updates never issued (issued %x)", sh, got, issued[sh])
		}
		if uint64(got.count()) != v[plWords-1] {
			t.Errorf("shard %d: %d updates present but count word is %d", sh, got.count(), v[plWords-1])
		}
		if conns > 1 {
			continue
		}
		// One connection: got must be a point on the shard's commit
		// chain, which every acknowledged response samples.
		for _, a := range history[sh] {
			if (a.pos <= v[plWords-1] && !a.set.subsetOf(got)) || (a.pos >= v[plWords-1] && !got.subsetOf(a.set)) {
				t.Errorf("shard %d: recovered %x (%d commits) is not a prefix of the commit chain: after commit %d the value was %x",
					sh, got, v[plWords-1], a.pos, a.set)
				break
			}
		}
	}
}
