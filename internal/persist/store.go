package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mwllsc/internal/obs"
	"mwllsc/internal/shard"
	"mwllsc/internal/wire"
)

// ErrClosed is returned by operations on a closed Store.
var ErrClosed = errors.New("persist: store closed")

// Store is the open durability state of one map: the log file of the
// current segment generation, the commit sequence counter, and the
// group-commit syncer. Append, Sync and NextSeq are safe for concurrent
// use; Checkpoint serializes with itself.
type Store struct {
	dir      string
	k, w     int
	policy   Policy
	interval time.Duration

	seq atomic.Uint64

	mu    sync.Mutex // guards f, buf and dirty; held across each write
	f     LogFile
	buf   []byte
	dirty bool // written since the last fsync began
	// syncMu is held across each fsync and each swap of f, so appends
	// proceed during an fsync while a retired file is never closed
	// under one.
	syncMu sync.Mutex

	ckptMu sync.Mutex // serializes Checkpoint; guards gen
	gen    uint64

	kick chan struct{}
	stop chan struct{}
	done chan struct{}

	// Group-commit rounds are numbered: a round takes the next number
	// in started when it begins and publishes it in finished when it
	// ends. A Sync caller waits on waitCond for the first round to
	// start after its call to finish.
	waitMu   sync.Mutex
	waitCond sync.Cond
	started  uint64
	finished uint64
	closed   bool // Close has begun: no new Sync callers
	exited   bool // the syncer has stopped: release every waiter
	close1   sync.Once

	failMu  sync.Mutex
	failure error
	sick    atomic.Bool

	openLog func(path string) (LogFile, error)

	records atomic.Uint64
	bytes   atomic.Uint64
	syncs   atomic.Uint64
	ckpts   atomic.Uint64

	// appendHist times Append's log write; syncHist times each
	// group-commit round that fsynced the log — the number that bounds
	// commit acknowledgment latency under SyncAlways. Both record
	// nanoseconds in one stripe: writes serialize on mu, fsyncs on
	// syncMu.
	appendHist *obs.Histogram
	syncHist   *obs.Histogram
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Records     uint64 // records written by successful appends since Open
	Bytes       uint64 // log bytes written since Open, torn prefixes included
	Syncs       uint64 // group-commit fsync rounds completed
	Checkpoints uint64 // checkpoints written since Open
	Seq         uint64 // current commit sequence number
}

// Recovery summarizes what Open reconstructed from dir.
type Recovery struct {
	Checkpoint bool   // a checkpoint file was loaded
	Watermark  uint64 // its sequence watermark (0 without a checkpoint)
	Segments   int    // log segment files read
	Replayed   int    // records applied on top of the checkpoint
	Skipped    int    // records at or below the watermark (already in it)
	Repaired   int    // segments truncated at a torn or corrupt tail
	NextSeq    uint64 // first sequence number new appends will exceed
}

// Open recovers dir's durable state into m — which must be freshly
// created and not yet shared — and returns a Store appending to a new
// segment generation. The map's geometry must match what the directory
// was created with; a mismatch is an error, never a silent
// reinterpretation. An empty or absent dir starts fresh.
func Open(dir string, m *shard.Map, opts Options) (*Store, Recovery, error) {
	opts = opts.withDefaults()
	k, w := m.Shards(), m.W()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovery{}, fmt.Errorf("persist: %w", err)
	}
	if err := checkMeta(dir, k, w); err != nil {
		return nil, Recovery{}, err
	}
	rec, maxGen, maxSeq, err := recoverInto(dir, m)
	if err != nil {
		return nil, Recovery{}, err
	}
	s := &Store{
		dir:        dir,
		k:          k,
		w:          w,
		policy:     opts.Policy,
		interval:   opts.Interval,
		gen:        maxGen + 1,
		kick:       make(chan struct{}, 1),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		appendHist: obs.NewHistogram(1),
		syncHist:   obs.NewHistogram(1),
		openLog:    opts.OpenLog,
	}
	s.waitCond.L = &s.waitMu
	s.seq.Store(maxSeq)
	rec.NextSeq = maxSeq
	if s.f, err = s.openLog(filepath.Join(dir, segName(s.gen))); err != nil {
		return nil, Recovery{}, fmt.Errorf("persist: %w", err)
	}
	if err := syncDir(dir); err != nil {
		s.f.Close()
		return nil, Recovery{}, err
	}
	go s.syncLoop()
	return s, rec, nil
}

// Dir returns the durability directory.
func (s *Store) Dir() string { return s.dir }

// Policy returns the fsync policy.
func (s *Store) Policy() Policy { return s.policy }

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Records:     s.records.Load(),
		Bytes:       s.bytes.Load(),
		Syncs:       s.syncs.Load(),
		Checkpoints: s.ckpts.Load(),
		Seq:         s.seq.Load(),
	}
}

// AppendHist returns the log-append latency histogram (nanoseconds,
// one write per Append).
func (s *Store) AppendHist() *obs.Histogram { return s.appendHist }

// SyncHist returns the group-commit fsync-round latency histogram
// (nanoseconds; a round fsyncs the one log when it is dirty).
func (s *Store) SyncHist() *obs.Histogram { return s.syncHist }

// Err returns the store's sticky failure, if any: the first disk error
// seen. A failed store keeps accepting calls but every durability
// guarantee is void until the operator intervenes; under SyncAlways the
// server surfaces the failure to clients instead of acknowledging.
func (s *Store) Err() error {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	return s.failure
}

// Sick reports whether the store has a sticky failure — the lock-free
// form of Err() != nil, cheap enough for the server to consult on every
// batch when disk-sick degraded mode is enabled.
func (s *Store) Sick() bool { return s.sick.Load() }

func (s *Store) fail(err error) {
	s.failMu.Lock()
	if s.failure == nil {
		s.failure = err
	}
	s.failMu.Unlock()
	s.sick.Store(true)
}

// NextSeq allocates the next commit sequence number. The server calls
// it inside every update merge callback; the callback's final run — the
// one whose store-conditional lands — leaves the number that orders the
// record against every other committed update on its shards.
func (s *Store) NextSeq() uint64 { return s.seq.Add(1) }

// Append writes recs to the log in one write. It does not wait for
// fsync — callers needing durability-before-ack follow with Sync (group
// commit). Records must already carry their Seq.
func (s *Store) Append(recs []Record) error {
	if err := s.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	s.buf = s.buf[:0]
	for i := range recs {
		s.buf = appendRecord(s.buf, &recs[i])
	}
	t0 := time.Now()
	n, err := s.f.Write(s.buf)
	s.appendHist.Observe(0, uint64(time.Since(t0)))
	s.dirty = true
	s.mu.Unlock()
	s.bytes.Add(uint64(n))
	if err != nil {
		err = fmt.Errorf("persist: appending to log: %w", err)
		s.fail(err)
		return err
	}
	s.records.Add(uint64(len(recs)))
	return nil
}

// Sync waits for a group-commit round that covers every write issued
// before the call: the first round to start after it. It kicks the
// syncer and returns when that round's fsync is done. Concurrent
// callers share one round — this is what makes SyncAlways affordable
// under pipelined load — and waiting allocates nothing.
func (s *Store) Sync() error {
	s.waitMu.Lock()
	if s.closed {
		s.waitMu.Unlock()
		return ErrClosed
	}
	round := s.started + 1
	s.waitMu.Unlock()
	select {
	case s.kick <- struct{}{}:
	default: // a kick is already pending; its round starts after our read of started
	}
	s.waitMu.Lock()
	for s.finished < round && !s.exited {
		s.waitCond.Wait()
	}
	s.waitMu.Unlock()
	return s.Err()
}

// syncLoop is the group-commit goroutine: it runs a round per kick
// (SyncAlways callers), per tick (SyncEverySec), and a final one at
// Close.
func (s *Store) syncLoop() {
	defer func() {
		s.waitMu.Lock()
		s.exited = true
		s.waitMu.Unlock()
		s.waitCond.Broadcast()
		close(s.done)
	}()
	var tick <-chan time.Time
	if s.policy == SyncEverySec {
		t := time.NewTicker(s.interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-s.stop:
			s.syncRound()
			return
		case <-s.kick:
		case <-tick:
		}
		s.syncRound()
	}
}

// syncRound numbers itself, fsyncs the log if it is dirty, and releases
// the callers waiting for its number. Callers that read started before
// the round took its number have their writes already issued, so the
// fsync that follows covers them.
func (s *Store) syncRound() {
	s.waitMu.Lock()
	s.started++
	round := s.started
	s.waitMu.Unlock()
	s.syncMu.Lock()
	s.mu.Lock()
	dirty := s.dirty
	s.dirty = false
	s.mu.Unlock()
	if dirty {
		t0 := time.Now()
		if err := s.f.Sync(); err != nil {
			s.fail(fmt.Errorf("persist: fsync: %w", err))
		}
		s.syncs.Add(1)
		s.syncHist.Observe(0, uint64(time.Since(t0)))
	}
	s.syncMu.Unlock()
	s.waitMu.Lock()
	s.finished = round
	s.waitMu.Unlock()
	s.waitCond.Broadcast()
}

// Checkpoint rewrites the snapshot file and truncates the log. capture
// must return a cross-shard-atomic K×W snapshot of the map together with
// a sequence watermark S such that, on every shard, exactly the updates
// with Seq < S are reflected in the snapshot — the server implements it
// as an identity transaction over all shards that calls NextSeq inside
// its callback. The store rotates the log to a new segment generation
// first, so records racing the checkpoint keep accumulating in a file
// that survives; the old segments are deleted only after the new
// checkpoint is durably in place. Crash-safe at every step.
func (s *Store) Checkpoint(capture func() (rows [][]uint64, watermark uint64, err error)) error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if err := s.Err(); err != nil {
		return err
	}
	oldGen := s.gen
	if err := s.rotate(); err != nil {
		s.fail(err)
		return err
	}
	rows, watermark, err := capture()
	if err != nil {
		// The rotation stands — harmless — but the old checkpoint and
		// old segments remain authoritative.
		return err
	}
	if len(rows) != s.k {
		return fmt.Errorf("persist: checkpoint capture returned %d rows, map has %d shards", len(rows), s.k)
	}
	if err := writeCheckpoint(s.dir, s.k, s.w, rows, watermark); err != nil {
		s.fail(err)
		return err
	}
	if err := removeSegments(s.dir, oldGen); err != nil {
		// The new checkpoint is in place; stale segments only cost disk
		// and replay-time filtering, so this is not a durability failure.
		return err
	}
	s.ckpts.Add(1)
	return nil
}

// rotate moves the log to the next segment generation. It holds syncMu
// until the retired file is fsynced and the new file's directory entry
// is durable, so a group-commit round that runs after the swap never
// releases a caller whose records are still unsynced in the old file,
// or sit in a new file that could vanish with its directory entry.
func (s *Store) rotate() error {
	s.gen++
	f, err := s.openLog(filepath.Join(s.dir, segName(s.gen)))
	if err != nil {
		return fmt.Errorf("persist: rotating log: %w", err)
	}
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	old := s.f
	s.f, s.dirty = f, false
	s.mu.Unlock()
	if err := old.Sync(); err != nil {
		old.Close()
		err = fmt.Errorf("persist: syncing retired log: %w", err)
		s.fail(err)
		return err
	}
	if err := old.Close(); err != nil {
		return fmt.Errorf("persist: closing retired log: %w", err)
	}
	return syncDir(s.dir)
}

// Close runs a final group-commit round, stops the syncer, and fsyncs
// and closes the log. The caller must have stopped appending (the
// server's Close drains every connection first).
func (s *Store) Close() error {
	s.close1.Do(func() {
		s.waitMu.Lock()
		s.closed = true
		s.waitMu.Unlock()
		close(s.stop)
		<-s.done
		s.mu.Lock()
		defer s.mu.Unlock()
		if err := s.f.Sync(); err != nil {
			s.fail(fmt.Errorf("persist: closing log: %w", err))
		}
		if err := s.f.Close(); err != nil {
			s.fail(fmt.Errorf("persist: closing log: %w", err))
		}
	})
	return s.Err()
}

// segName is the log filename for one segment generation.
func segName(gen uint64) string { return fmt.Sprintf("log-%08d.log", gen) }

// segRE matches log segment names: log-GGGGGGGG.log, and the per-shard
// shard-SSSS-GGGGGGGG.log names of directories written before the store
// kept one log. Both hold the same record frames, so legacy segments
// join the same Seq sort at recovery and go at the next checkpoint.
var segRE = regexp.MustCompile(`^(?:log|shard-\d+)-(\d+)\.log$`)

type segment struct {
	path string
	gen  uint64
}

// listSegments returns dir's log segment files in directory order.
func listSegments(dir string) ([]segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var segs []segment
	for _, ent := range ents {
		m := segRE.FindStringSubmatch(ent.Name())
		if m == nil {
			continue
		}
		gen, err := strconv.ParseUint(m[1], 10, 64)
		if err != nil {
			continue
		}
		segs = append(segs, segment{path: filepath.Join(dir, ent.Name()), gen: gen})
	}
	return segs, nil
}

// removeSegments deletes every segment at or below gen.
func removeSegments(dir string, gen uint64) error {
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	var firstErr error
	for _, sg := range segs {
		if sg.gen > gen {
			continue
		}
		if err := os.Remove(sg.path); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("persist: %w", err)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	return syncDir(dir)
}

// Checkpoint file layout (little-endian):
//
//	[8]byte magic "MWLLSCP1" | uint32 version | uint32 k | uint32 w |
//	uint64 watermark | k·w × uint64 values | uint32 crc32c(everything above)
const (
	ckptMagic   = "MWLLSCP1"
	ckptVersion = 1
	ckptFile    = "checkpoint"
)

// writeCheckpoint durably replaces dir's checkpoint file: build, write
// to a temp file, fsync, rename into place, fsync the directory.
func writeCheckpoint(dir string, k, w int, rows [][]uint64, watermark uint64) error {
	buf := make([]byte, 0, 28+k*w*8+4)
	buf = append(buf, ckptMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, ckptVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(k))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(w))
	buf = binary.LittleEndian.AppendUint64(buf, watermark)
	for _, row := range rows {
		if len(row) != w {
			return fmt.Errorf("persist: checkpoint row has %d words, want %d", len(row), w)
		}
		for _, v := range row {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))

	tmp := filepath.Join(dir, ckptFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("persist: writing checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("persist: syncing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, ckptFile)); err != nil {
		return fmt.Errorf("persist: installing checkpoint: %w", err)
	}
	return syncDir(dir)
}

// readCheckpoint loads and validates dir's checkpoint. ok is false when
// no checkpoint exists; any present-but-invalid checkpoint is an error
// (it was written atomically, so damage means something is deeply wrong
// — better to stop than to serve silently wrong data).
func readCheckpoint(dir string, k, w int) (rows [][]uint64, watermark uint64, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, ckptFile))
	if os.IsNotExist(err) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("persist: %w", err)
	}
	want := 28 + k*w*8 + 4
	if len(data) < 28 || string(data[:8]) != ckptMagic {
		return nil, 0, false, fmt.Errorf("persist: %s is not a checkpoint file", ckptFile)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != ckptVersion {
		return nil, 0, false, fmt.Errorf("persist: checkpoint version %d, this build reads %d", v, ckptVersion)
	}
	ck, cw := binary.LittleEndian.Uint32(data[12:]), binary.LittleEndian.Uint32(data[16:])
	if int(ck) != k || int(cw) != w {
		return nil, 0, false, fmt.Errorf("persist: checkpoint is for K=%d W=%d, map is K=%d W=%d", ck, cw, k, w)
	}
	if len(data) != want {
		return nil, 0, false, fmt.Errorf("persist: checkpoint is %d bytes, want %d", len(data), want)
	}
	sum := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(data[:len(data)-4], castagnoli) != sum {
		return nil, 0, false, fmt.Errorf("persist: checkpoint CRC mismatch")
	}
	watermark = binary.LittleEndian.Uint64(data[20:])
	body := data[28 : len(data)-4]
	rows = make([][]uint64, k)
	for i := range rows {
		rows[i] = make([]uint64, w)
		for t := range rows[i] {
			rows[i][t] = binary.LittleEndian.Uint64(body[(i*w+t)*8:])
		}
	}
	return rows, watermark, true, nil
}

// recoverInto loads the checkpoint and replays the logs into m,
// repairing torn tails in place. It returns the recovery summary, the
// highest segment generation seen, and the highest sequence number seen.
func recoverInto(dir string, m *shard.Map) (Recovery, uint64, uint64, error) {
	k, w := m.Shards(), m.W()
	var rec Recovery

	rows, watermark, haveCkpt, err := readCheckpoint(dir, k, w)
	if err != nil {
		return rec, 0, 0, err
	}
	rec.Checkpoint, rec.Watermark = haveCkpt, watermark

	segs, err := listSegments(dir)
	if err != nil {
		return rec, 0, 0, err
	}
	var maxGen, maxSeq uint64
	maxSeq = watermark
	var all []Record
	for _, sg := range segs {
		if sg.gen > maxGen {
			maxGen = sg.gen
		}
		data, err := os.ReadFile(sg.path)
		if err != nil {
			return rec, 0, 0, fmt.Errorf("persist: %w", err)
		}
		recs, good, err := parseRecords(data, w)
		if err != nil {
			return rec, 0, 0, fmt.Errorf("%w (%s)", err, sg.path)
		}
		if good < len(data) {
			if err := os.Truncate(sg.path, int64(good)); err != nil {
				return rec, 0, 0, fmt.Errorf("persist: repairing %s: %w", sg.path, err)
			}
			rec.Repaired++
		}
		all = append(all, recs...)
		rec.Segments++
	}
	// Same-shard commit order is Seq order (see the package comment);
	// a global Seq sort therefore replays every shard correctly.
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })

	h := m.Acquire()
	defer h.Release()
	if haveCkpt {
		for i, row := range rows {
			row := row
			h.Update(m.KeyForShard(i), func(v []uint64) { copy(v, row) })
		}
	}
	for i := range all {
		r := &all[i]
		if r.Seq > maxSeq {
			maxSeq = r.Seq
		}
		if r.Seq <= watermark {
			rec.Skipped++
			continue
		}
		switch r.Op {
		case wire.OpUpdate:
			args, mode := r.Args, r.Mode
			h.Update(r.Key, func(v []uint64) { wire.Merge(v, args, mode) })
		case wire.OpUpdateMulti:
			args, mode := r.Args, r.Mode
			h.UpdateMulti(r.Keys, func(vals [][]uint64) {
				for j, v := range vals {
					wire.Merge(v, args[j*w:(j+1)*w], mode)
				}
			})
		}
		rec.Replayed++
	}
	return rec, maxGen, maxSeq, nil
}

// metaFile pins the directory to one map geometry so a daemon restarted
// with different -shards/-words fails loudly even before the first
// checkpoint exists.
const metaFile = "meta"

// checkMeta validates dir's geometry stamp, writing it on first use.
func checkMeta(dir string, k, w int) error {
	path := filepath.Join(dir, metaFile)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		tmp := path + ".tmp"
		body := fmt.Sprintf("mwllsc persist v1\nk=%d\nw=%d\n", k, w)
		if err := os.WriteFile(tmp, []byte(body), 0o644); err != nil {
			return fmt.Errorf("persist: %w", err)
		}
		if err := os.Rename(tmp, path); err != nil {
			return fmt.Errorf("persist: %w", err)
		}
		return syncDir(dir)
	}
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	var mk, mw int
	if _, err := fmt.Sscanf(string(data), "mwllsc persist v1\nk=%d\nw=%d\n", &mk, &mw); err != nil {
		return fmt.Errorf("persist: %s is not a durability directory (bad meta file)", dir)
	}
	if mk != k || mw != w {
		return fmt.Errorf("persist: %s was created for K=%d W=%d, map is K=%d W=%d", dir, mk, mw, k, w)
	}
	return nil
}

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("persist: syncing %s: %w", dir, err)
	}
	return nil
}
