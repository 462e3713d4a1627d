package main

import (
	"context"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"mwllsc/internal/client"
	"mwllsc/internal/persist"
	"mwllsc/internal/shard"
)

// The crash harness re-execs the test binary as a real llscd process so
// it can be SIGKILLed mid-load. With LLSCD_CRASH_CHILD=1 the binary is
// not a test run at all: TestMain becomes the daemon's main().
func TestMain(m *testing.M) {
	if os.Getenv("LLSCD_CRASH_CHILD") == "1" {
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
		args := []string{
			"-addr", "127.0.0.1:0",
			"-shards", "8", "-slots", "8", "-words", "2",
			"-dir", os.Getenv("LLSCD_CRASH_DIR"),
			"-fsync", "always",
			"-checkpoint-interval", "25ms", // let checkpoints race the kill
		}
		if os.Getenv("LLSCD_CRASH_DEGRADE") == "1" {
			args = append(args, "-degrade-on-disk-error")
		}
		// The LLSCD_FAULT_* knobs (disk fault injection) are read by
		// run() itself; the harness just leaves them in the environment.
		os.Exit(run(args, stop, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestCrashRecovery is the durability acceptance test: a real daemon
// process under -fsync always is killed with SIGKILL mid-load (with
// checkpoints racing the kill), then the data directory is recovered
// in-process and checked for two properties:
//
//   - no acknowledged write is lost, and nothing is double-applied:
//     acked <= recovered op count <= issued;
//   - conservation: every op added {1, 3}, so the recovered word-1 sum
//     is exactly three times the word-0 sum, whatever tail of
//     unacknowledged ops survived.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary; skipped in -short")
	}
	dir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^$")
	cmd.Env = append(os.Environ(), "LLSCD_CRASH_CHILD=1", "LLSCD_CRASH_DIR="+dir)
	out := &syncBuf{}
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	defer func() {
		if !killed {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := addrRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("child never reported an address:\n%s", out)
		}
		time.Sleep(time.Millisecond)
	}

	const (
		workers = 6
		target  = 1500 // acks to collect before pulling the plug
	)
	var issued, acked atomic.Uint64
	stopLoad := make(chan struct{})
	loadDone := make(chan struct{}, workers)
	for wkr := 0; wkr < workers; wkr++ {
		go func(wkr int) {
			defer func() { loadDone <- struct{}{} }()
			c, err := client.Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			ctx := context.Background()
			for i := 0; ; i++ {
				select {
				case <-stopLoad:
					return
				default:
				}
				key := uint64(wkr*100003 + i) // spread across shards
				issued.Add(1)
				if _, err := c.Add(ctx, key, []uint64{1, 3}); err != nil {
					return // the kill severed the connection
				}
				acked.Add(1)
			}
		}(wkr)
	}

	deadline = time.Now().Add(30 * time.Second)
	for acked.Load() < target {
		if time.Now().After(deadline) {
			t.Fatalf("only %d acks before deadline:\n%s", acked.Load(), out)
		}
		time.Sleep(time.Millisecond)
	}
	// Pull the plug mid-flight: SIGKILL, no shutdown path runs.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	killed = true
	cmd.Wait()
	close(stopLoad)
	for i := 0; i < workers; i++ {
		<-loadDone
	}
	nIssued, nAcked := issued.Load(), acked.Load()

	// Recover the directory the way a restarted daemon would.
	m, err := shard.NewMap(8, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, rec, err := persist.Open(dir, m, persist.Options{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer st.Close()
	t.Logf("issued=%d acked=%d recovery=%+v", nIssued, nAcked, rec)

	snap := m.NewSnapshotBuffer()
	m.SnapshotAtomic(snap)
	var sum0, sum1 uint64
	for _, row := range snap {
		sum0 += row[0]
		sum1 += row[1]
	}
	if sum0 < nAcked {
		t.Errorf("acknowledged-write loss: recovered %d ops, %d were acked", sum0, nAcked)
	}
	if sum0 > nIssued {
		t.Errorf("phantom writes: recovered %d ops, only %d were issued", sum0, nIssued)
	}
	if sum1 != 3*sum0 {
		t.Errorf("conservation broken: word sums (%d, %d), want word1 == 3×word0", sum0, sum1)
	}
}

// TestCrashRecoveryUnderDiskFault is the hostile variant: the child
// daemon runs with fault injection armed (the fsync budget runs dry
// mid-load) and -degrade-on-disk-error, so partway through the run the
// durability layer goes sick, in-flight acks start failing, and the
// server drops to read-only. The harness keeps driving load through
// the failures, verifies reads still serve while updates are refused,
// then SIGKILLs the child and checks the same two recovery invariants
// as TestCrashRecovery: the acks that landed before the disk went bad
// are never lost (acked <= recovered <= issued), and conservation
// holds across whatever unacknowledged tail survived.
func TestCrashRecoveryUnderDiskFault(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary; skipped in -short")
	}
	dir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^$")
	cmd.Env = append(os.Environ(),
		"LLSCD_CRASH_CHILD=1",
		"LLSCD_CRASH_DIR="+dir,
		"LLSCD_CRASH_DEGRADE=1",
		// Let ~300 group-commit fsync rounds succeed, then fail them
		// all: enough runway for a real acked prefix under -fsync
		// always, with the fault guaranteed to fire mid-load.
		"LLSCD_FAULT_FSYNC_AFTER=300",
	)
	out := &syncBuf{}
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	defer func() {
		if !killed {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := addrRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("child never reported an address:\n%s", out)
		}
		time.Sleep(time.Millisecond)
	}
	if !strings.Contains(out.String(), "FAULT INJECTION ACTIVE") {
		t.Fatalf("child did not announce fault injection:\n%s", out)
	}

	// Unlike TestCrashRecovery's workers, these continue through
	// errors: once the disk goes sick every update fails its ack, and
	// the point is to keep offering load across that transition.
	const workers = 6
	var issued, acked, failed atomic.Uint64
	stopLoad := make(chan struct{})
	loadDone := make(chan struct{}, workers)
	for wkr := 0; wkr < workers; wkr++ {
		go func(wkr int) {
			defer func() { loadDone <- struct{}{} }()
			c, err := client.Dial(addr, client.WithRetries(0))
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			ctx := context.Background()
			for i := 0; ; i++ {
				select {
				case <-stopLoad:
					return
				default:
				}
				key := uint64(wkr*100003 + i) // spread across shards
				issued.Add(1)
				if _, err := c.Add(ctx, key, []uint64{1, 3}); err != nil {
					failed.Add(1)
					time.Sleep(time.Millisecond) // don't spin hot on a dead daemon
					continue
				}
				acked.Add(1)
			}
		}(wkr)
	}

	// Wait for a healthy acked prefix AND for the fault to have fired
	// (a burst of failed acks proves it).
	deadline = time.Now().Add(45 * time.Second)
	for acked.Load() < 50 || failed.Load() < 100 {
		if time.Now().After(deadline) {
			t.Fatalf("fault never surfaced: acked=%d failed=%d\n%s",
				acked.Load(), failed.Load(), out)
		}
		time.Sleep(time.Millisecond)
	}

	// Degraded mode is read-only, not down: a fresh client must still
	// be admitted and served reads while every update is being refused.
	probe, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("dial during degraded mode: %v", err)
	}
	probeCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if _, err := probe.Read(probeCtx, 0); err != nil {
		t.Errorf("read during degraded mode: %v", err)
	}
	cancel()
	probe.Close()

	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	killed = true
	cmd.Wait()
	close(stopLoad)
	for i := 0; i < workers; i++ {
		<-loadDone
	}
	nIssued, nAcked, nFailed := issued.Load(), acked.Load(), failed.Load()
	if nFailed == 0 {
		t.Fatal("no failed acks observed; the injected fault never fired")
	}

	// Recover with a clean (fault-free) persistence layer, the way a
	// restarted daemon on a healed disk would.
	m, err := shard.NewMap(8, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, rec, err := persist.Open(dir, m, persist.Options{})
	if err != nil {
		t.Fatalf("recovery after disk fault failed: %v", err)
	}
	defer st.Close()
	t.Logf("issued=%d acked=%d failed=%d recovery=%+v", nIssued, nAcked, nFailed, rec)

	snap := m.NewSnapshotBuffer()
	m.SnapshotAtomic(snap)
	var sum0, sum1 uint64
	for _, row := range snap {
		sum0 += row[0]
		sum1 += row[1]
	}
	if sum0 < nAcked {
		t.Errorf("acknowledged-write loss: recovered %d ops, %d were acked", sum0, nAcked)
	}
	if sum0 > nIssued {
		t.Errorf("phantom writes: recovered %d ops, only %d were issued", sum0, nIssued)
	}
	if sum1 != 3*sum0 {
		t.Errorf("conservation broken: word sums (%d, %d), want word1 == 3×word0", sum0, sum1)
	}
}
