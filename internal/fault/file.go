package fault

import (
	"fmt"
	"os"
	"sync"
	"time"
)

// FilesConfig configures an error-injecting file layer for the
// persistence log. Counters are shared across every file opened by the
// same Files, so "fail after N bytes" means N bytes across every log
// segment together — matching how a sick disk fails the whole store,
// not one file. The zero value injects nothing.
type FilesConfig struct {
	// Seed drives the short-write truncation points.
	Seed uint64
	// WriteLatency is added to every Write — a slow disk.
	WriteLatency time.Duration
	// WriteBytesPerSec throttles Writes to this many bytes per second,
	// serialized across every file sharing the Files — a disk with
	// bounded bandwidth. Unlike WriteLatency (a per-call seek cost, which
	// batching amortizes), a byte-rate cost is the same per record no
	// matter how records coalesce into writes, so it pins an operation
	// throughput ceiling that concurrency cannot lift — what E16 uses to
	// make overload reproducible across machines. 0 disables.
	WriteBytesPerSec int64
	// SyncLatency is added to every Sync that is not failed by
	// FailFsyncAfter — a slow disk's flush, and the knob that pins a
	// deterministic IO cost regardless of what the host's filesystem
	// actually does (E16 uses it to make fsync-bound capacity
	// reproducible across machines).
	SyncLatency time.Duration
	// ShortWriteEvery makes every Nth Write persist only a seeded prefix
	// of its buffer and return an error wrapping ErrInjected — a torn
	// append the recovery path must truncate. 0 disables.
	ShortWriteEvery int
	// FailWriteAfterBytes fails every Write once this many bytes have
	// been written across all files; the write that crosses the
	// threshold persists exactly up to it (a torn record at a known
	// offset). 0 disables.
	FailWriteAfterBytes int64
	// FailFsyncAfter makes every Sync fail (without syncing) after this
	// many Syncs have succeeded across all files. 0 disables.
	FailFsyncAfter int
}

// Files opens real files whose Write/Sync inject the configured
// failures deterministically. A *File satisfies the persist.LogFile
// interface; wire it in with
//
//	ff := fault.NewFiles(cfg)
//	opts.OpenLog = func(path string) (persist.LogFile, error) { return ff.Open(path) }
type Files struct {
	mu       sync.Mutex
	cfg      FilesConfig
	rng      rng
	bytes    int64
	writes   int64
	syncs    int64
	injected int64
	diskFree time.Time // WriteBytesPerSec pacing: when the modeled disk next idles
	files    []*File   // every file opened, for PowerLoss
	lost     bool      // PowerLoss has run: every later Write and Sync fails
}

// NewFiles builds the shared injection state for one store.
func NewFiles(cfg FilesConfig) *Files {
	return &Files{cfg: cfg, rng: rng{s: cfg.Seed}}
}

// Injected returns how many failures have been injected so far — a
// test's proof the fault actually fired.
func (fs *Files) Injected() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.injected
}

// Syncs returns how many Syncs reached the disk across all files (those
// failed by FailFsyncAfter or a power loss before they started are not
// counted).
func (fs *Files) Syncs() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.syncs
}

// PowerLoss simulates a machine crash. Every file this Files opened is
// cut back to its length at its last successful Sync — or, with tear,
// to a seeded point inside its unsynced suffix, as if the disk had
// persisted only part of it — and every later Write and Sync fails. A
// Sync that is still in flight when the power goes fails too, so no
// caller ever sees success for bytes the cut removed.
func (fs *Files) PowerLoss(tear bool) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.lost = true
	for _, f := range fs.files {
		keep := f.synced
		if tear && f.size > f.synced {
			keep += int64(fs.rng.next() % uint64(f.size-f.synced+1))
		}
		if err := os.Truncate(f.path, keep); err != nil {
			return err
		}
	}
	return nil
}

// errPowerLost is returned by every Write and Sync after PowerLoss.
var errPowerLost = fmt.Errorf("power lost: %w", ErrInjected)

// Open opens path for appending (creating it if needed) behind the
// injection layer. Whatever the file already holds counts as synced.
func (fs *Files) Open(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	file := &File{fs: fs, f: f, path: path, size: fi.Size(), synced: fi.Size()}
	fs.mu.Lock()
	fs.files = append(fs.files, file)
	fs.mu.Unlock()
	return file, nil
}

// File is one log file behind the injection layer.
type File struct {
	fs     *Files
	f      *os.File
	path   string
	size   int64 // current length: the length at Open plus every byte written
	synced int64 // length when the last successful Sync began
}

// Write appends b, injecting configured torn or refused writes.
func (f *File) Write(b []byte) (int, error) {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.lost {
		fs.injected++
		return 0, errPowerLost
	}
	if fs.cfg.WriteLatency > 0 {
		time.Sleep(fs.cfg.WriteLatency)
	}
	if r := fs.cfg.WriteBytesPerSec; r > 0 {
		// Virtual-time pacing: advance the disk-free clock by this
		// write's transfer time and sleep until it. Sleeping under the
		// mutex serializes writers like one device; charging a clock
		// instead of sleeping a fixed amount keeps the long-run byte rate
		// exact even when the scheduler overshoots short sleeps — the
		// overshoot leaves the clock in the past and later writes pass
		// without sleeping until the debt is repaid.
		now := time.Now()
		if fs.diskFree.Before(now) {
			fs.diskFree = now
		}
		fs.diskFree = fs.diskFree.Add(time.Duration(int64(len(b)) * int64(time.Second) / r))
		if wait := fs.diskFree.Sub(now); wait > 0 {
			time.Sleep(wait)
		}
	}
	fs.writes++
	n, injErr := len(b), error(nil)
	if budget := fs.cfg.FailWriteAfterBytes; budget > 0 {
		if fs.bytes >= budget {
			fs.injected++
			return 0, fmt.Errorf("write refused after %d bytes: %w", budget, ErrInjected)
		}
		if fs.bytes+int64(len(b)) > budget {
			n = int(budget - fs.bytes)
			injErr = fmt.Errorf("torn write at byte budget %d: %w", budget, ErrInjected)
		}
	}
	if e := fs.cfg.ShortWriteEvery; injErr == nil && e > 0 && fs.writes%int64(e) == 0 && len(b) > 1 {
		n = 1 + int(fs.rng.next()%uint64(len(b)-1))
		injErr = fmt.Errorf("short write (%d of %d bytes): %w", n, len(b), ErrInjected)
	}
	k, err := f.f.Write(b[:n])
	fs.bytes += int64(k)
	f.size += int64(k)
	if injErr != nil {
		fs.injected++
		return k, injErr
	}
	return k, err
}

// Sync fsyncs, or fails without syncing once the budget is spent or the
// power is lost.
func (f *File) Sync() error {
	fs := f.fs
	fs.mu.Lock()
	if fs.lost {
		fs.injected++
		fs.mu.Unlock()
		return errPowerLost
	}
	if n := fs.cfg.FailFsyncAfter; n > 0 && fs.syncs >= int64(n) {
		fs.injected++
		fs.mu.Unlock()
		return fmt.Errorf("fsync failed after %d rounds: %w", n, ErrInjected)
	}
	fs.syncs++
	size := f.size
	fs.mu.Unlock()
	// Sleep outside the lock: concurrent syncs of different files
	// overlap, like independent flushes in a device queue.
	if d := fs.cfg.SyncLatency; d > 0 {
		time.Sleep(d)
	}
	if err := f.f.Sync(); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.lost { // the power went out before the flush completed
		fs.injected++
		return errPowerLost
	}
	f.synced = max(f.synced, size)
	return nil
}

// Close closes the underlying file.
func (f *File) Close() error { return f.f.Close() }
