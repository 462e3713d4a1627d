package server

import (
	"testing"

	"mwllsc/internal/shard"
	"mwllsc/internal/wire"
)

// TestBatchExecutesInArrivalOrder pins the executor's ordering: a batch
// of reads whose keys map to descending shards is answered in batch
// order, response base+i for batch[i], with no regrouping by shard.
func TestBatchExecutesInArrivalOrder(t *testing.T) {
	const k = 8
	m, err := shard.NewMap(k, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := New(m)
	cs := s.newConnState()
	// The reader's path: take a unit, decode the frames into the batch,
	// execute; then take the unit off the writer channel to inspect it.
	cs.unit = <-cs.free
	for i := 0; i < k; i++ {
		req := wire.Request{ID: uint64(100 + i), Op: wire.OpRead, Key: m.KeyForShard(k - 1 - i)}
		s.appendDecoded(cs, wire.AppendRequest(nil, &req))
	}
	s.executeBatch(cs)
	u := <-cs.out
	defer cs.recycle(u)
	if len(u.resps) != k {
		t.Fatalf("unit carries %d responses, want %d", len(u.resps), k)
	}
	for i, resp := range u.resps {
		if want := uint64(100 + i); resp.ID != want || resp.Status != wire.StatusOK {
			t.Errorf("response %d: id %d status %v, want id %d ok (batch order)", i, resp.ID, resp.Status, want)
		}
	}
}
