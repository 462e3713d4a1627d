package persist

import (
	"errors"
	"reflect"
	"testing"

	"mwllsc/internal/fault"
	"mwllsc/internal/shard"
	"mwllsc/internal/wire"
)

// TestFaultInjectedTornWriteNoAckedLoss drives the store through
// internal/fault's disk layer until a torn write poisons it, then
// recovers the directory and checks the durability contract under
// injected failure: every Append that returned nil is recovered, the
// failure is sticky (no append is accepted afterwards, so nothing can
// be acked and then lost), and Sick()/Err() report it.
func TestFaultInjectedTornWriteNoAckedLoss(t *testing.T) {
	dir := t.TempDir()
	m := newMap(t)
	ff := fault.NewFiles(fault.FilesConfig{Seed: 1, FailWriteAfterBytes: 900})
	st, _ := openStore(t, dir, m, Options{
		OpenLog: func(path string) (LogFile, error) { return ff.Open(path) },
	})

	// The map holds one value per shard, so track the last *acked* Set
	// per shard: that is exactly what recovery must reproduce —
	// in-memory commits whose Append failed were never acked and may
	// vanish.
	acked := map[uint64][]uint64{} // sample key per shard -> last acked args
	ackedCount := 0
	failures := 0
	for i := uint64(0); i < 200; i++ {
		args := []uint64{i + 1, 2*i + 1}
		var seq uint64
		m.Update(i, func(v []uint64) {
			wire.Merge(v, args, wire.ModeSet)
			seq = st.NextSeq()
		})
		err := st.Append([]Record{{
			Seq: seq, Op: wire.OpUpdate, Mode: wire.ModeSet, Key: i, Args: args,
		}})
		if err != nil {
			failures++
			if !st.Sick() || st.Err() == nil {
				t.Fatalf("Append failed (%v) but Sick=%v Err=%v", err, st.Sick(), st.Err())
			}
		} else {
			if failures > 0 {
				t.Fatalf("Append %d accepted after a sticky failure — could be acked then lost", i)
			}
			acked[uint64(m.ShardIndex(i))] = args
			ackedCount++
		}
	}
	if failures == 0 || ff.Injected() == 0 {
		t.Fatalf("fault never fired: failures=%d injected=%d", failures, ff.Injected())
	}
	if !errors.Is(st.Err(), fault.ErrInjected) {
		t.Fatalf("Err() = %v, want the injected failure", st.Err())
	}
	st.Close()

	m2, st2, rec := reopen(t, dir, Options{})
	defer st2.Close()
	if rec.Replayed < ackedCount {
		t.Fatalf("recovered %d records, want >= %d acked", rec.Replayed, ackedCount)
	}
	got := make([]uint64, tW)
	for sh, want := range acked {
		m2.Read(m2.KeyForShard(int(sh)), got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("acked write to shard %d lost: got %v want %v", sh, got, want)
		}
	}
}

// writeCounter counts the writes a store issues to its log.
type writeCounter struct {
	LogFile
	n *int
}

func (w writeCounter) Write(b []byte) (int, error) { *w.n++; return w.LogFile.Write(b) }

// TestOneWriteAndOneFsyncPerRound pins the single log's cost: on a
// K=16 map, an Append carrying one record on every shard is one write,
// and the group-commit round that follows is exactly one fsync.
func TestOneWriteAndOneFsyncPerRound(t *testing.T) {
	const k, rounds = 16, 20
	m, err := shard.NewMap(k, 4, tW)
	if err != nil {
		t.Fatal(err)
	}
	ff := fault.NewFiles(fault.FilesConfig{})
	writes := 0
	st, _ := openStore(t, t.TempDir(), m, Options{
		Policy: SyncAlways,
		OpenLog: func(path string) (LogFile, error) {
			f, err := ff.Open(path)
			return writeCounter{f, &writes}, err
		},
	})
	defer st.Close()
	recs := make([]Record, k)
	for r := 0; r < rounds; r++ {
		for i := range recs {
			recs[i] = Record{Seq: st.NextSeq(), Op: wire.OpUpdate, Mode: wire.ModeAdd,
				Key: m.KeyForShard(i), Args: []uint64{1, 0}}
		}
		if err := st.Append(recs); err != nil {
			t.Fatal(err)
		}
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if writes != rounds {
		t.Errorf("%d Appends issued %d writes, want one each", rounds, writes)
	}
	if got := ff.Syncs(); got != rounds {
		t.Errorf("%d rounds issued %d fsyncs, want one each", rounds, got)
	}
	if got := st.Stats().Syncs; got != rounds {
		t.Errorf("Stats().Syncs = %d after %d rounds, want %d", got, rounds, rounds)
	}
}

// TestFailedAppendCountsNoRecords: Stats().Records counts only records
// that reached the log, while Bytes counts what was actually written —
// the torn prefix of a failed append included — so the records total and
// the bytes-per-record ratio stay honest after a disk error.
func TestFailedAppendCountsNoRecords(t *testing.T) {
	m := newMap(t)
	mk := func() []Record {
		recs := make([]Record, 2)
		for i := range recs {
			recs[i] = Record{Seq: uint64(i + 1), Op: wire.OpUpdate, Mode: wire.ModeAdd,
				Key: m.KeyForShard(i), Args: []uint64{1, 0}}
		}
		return recs
	}
	var good int
	for _, r := range mk() {
		good += len(appendRecord(nil, &r))
	}
	const torn = 10 // bytes of the second append that reach the disk
	ff := fault.NewFiles(fault.FilesConfig{FailWriteAfterBytes: int64(good + torn)})
	st, _ := openStore(t, t.TempDir(), m, Options{
		OpenLog: func(path string) (LogFile, error) { return ff.Open(path) },
	})
	defer st.Close()
	if err := st.Append(mk()); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.Records != 2 || got.Bytes != uint64(good) {
		t.Fatalf("after a good append: records %d bytes %d, want 2 and %d", got.Records, got.Bytes, good)
	}
	if err := st.Append(mk()); err == nil {
		t.Fatal("append past the byte budget succeeded")
	}
	if got := st.Stats(); got.Records != 2 || got.Bytes != uint64(good+torn) {
		t.Errorf("after a torn append: records %d bytes %d, want 2 (unchanged) and %d (torn prefix)", got.Records, got.Bytes, good+torn)
	}
}
