package sim

import (
	"fmt"

	"mwllsc/internal/core"
	"mwllsc/internal/mem"
)

// InvariantChecker validates, after every simulated step, the key safety
// properties established in §3 of the paper:
//
//   - (I1): the buffers owned by processes (m_p) and the buffers holding
//     the 2N most recent values (b_0..b_2N-1, with b_{X.seq} = X.buf) are
//     pairwise distinct — the heart of why buffer handoff never races.
//   - (I2): between consecutive writes of X, exactly one Bank location is
//     written — Bank[s] = b where (b, s) was X's value in that interval —
//     and no other Bank location changes.
//   - Lemma 2 (S1)-(S3): between a process's help announcement (Line 1)
//     and its withdrawal (Line 10), exactly one write lands in Help[p],
//     it has the form (0, _), and nothing further is written until the
//     next announcement.
//   - Lemma 3: a buffer published by a successful SC is not written again
//     until X changes at least 2N more times.
//   - Read: a Read that returns its own copy (no fallback LL) does so
//     only if X did not change since its LL of X — the zero-change case
//     of Lemma 4 that makes the copy valid and current.
//   - Exclusive buffer writers: no two processes are ever concurrently
//     inside a WriteBuf of the same buffer (consequence of I1 the
//     simulator's safe-register adversary relies on).
//
// Violations are collected, not panicked, so a failing schedule reports
// all its findings with the seed that reproduces it.
type InvariantChecker struct {
	m *Memory
	g core.Geometry
	n int

	// Per-process views maintained from trace events.
	mybuf    []int
	inRegion []bool // paper's "PC in (2..10)": between Lines 1 and 10

	// Lemma 2 accounting.
	announced  []bool
	helpWrites []int

	// Lemma 4 accounting: xWrites count at each process's Line 2 (-1 when
	// no LL is between Lines 2 and 4).
	readXAt []int

	// I2 accounting.
	xWrites       int // number of X mutations observed
	bankWrites    []bankWrite
	lastXOld      uint64 // X value during the current epoch
	checkedEpochs int

	// Lemma 3 accounting.
	guards []bufGuard

	// Exclusive-writer accounting.
	bufWriters map[int]int

	violations []error
}

type bankWrite struct {
	idx int
	val uint64
}

type bufGuard struct {
	buf    int
	expiry int // xWrites count at which writes become legal again
}

// NewInvariantChecker returns a checker for an n-process object whose
// words live in m. Register it with m.Observe and s.AfterStep(c.CheckStep).
func NewInvariantChecker(m *Memory, n int) *InvariantChecker {
	c := &InvariantChecker{
		m:          m,
		g:          core.Geom(n),
		n:          n,
		mybuf:      make([]int, n),
		inRegion:   make([]bool, n),
		announced:  make([]bool, n),
		helpWrites: make([]int, n),
		readXAt:    make([]int, n),
		lastXOld:   core.Geom(n).PackX(0, 0),
		bufWriters: make(map[int]int),
	}
	for p := 0; p < n; p++ {
		c.mybuf[p] = 2*n + p // initialization: mybuf_p = 2N + p
		c.readXAt[p] = -1
	}
	// Lemma 3 guard for the initial value: BUF[0] is "published" by the
	// initialization and must survive the first 2N changes of X.
	c.guards = append(c.guards, bufGuard{buf: 0, expiry: 2 * n})
	return c
}

// Violations returns all violations found so far.
func (c *InvariantChecker) Violations() []error { return c.violations }

func (c *InvariantChecker) failf(format string, args ...any) {
	c.violations = append(c.violations, fmt.Errorf(format, args...))
}

// OnTrace implements Observer: it tracks each process's region and buffer
// ownership exactly as the paper's m_p definition requires.
func (c *InvariantChecker) OnTrace(p int, ev mem.Event) {
	switch ev.Kind {
	case mem.EvLLAnnounced:
		c.inRegion[p] = true
	case mem.EvLLReadX:
		c.readXAt[p] = c.xWrites
	case mem.EvLLCheckedHelp:
		// Lemma 4: an LL that was NOT helped by its Line 4 check saw at
		// most 2N-1 changes of X between Lines 2 and 4.
		if ev.Arg == 0 && c.readXAt[p] >= 0 {
			if d := c.xWrites - c.readXAt[p]; d > 2*c.n-1 {
				c.failf("lemma4: process %d unhelped after %d X-changes between Lines 2 and 4 (max %d)",
					p, d, 2*c.n-1)
			}
		}
		c.readXAt[p] = -1
	case mem.EvLLWithdrawn:
		c.inRegion[p] = false
		c.mybuf[p] = ev.Arg
		// Lemma 2 (S1): exactly one Help[p] write must have landed
		// between the announcement and the withdrawal.
		if c.announced[p] && c.helpWrites[p] != 1 {
			c.failf("lemma2(S1): process %d withdrew with %d Help writes, want 1",
				p, c.helpWrites[p])
		}
	case mem.EvSCHandoff, mem.EvSCPublished:
		c.mybuf[p] = ev.Arg
	case mem.EvReadDone:
		if ev.Arg == 1 && !c.m.linked(mem.WordX, 0, p) {
			c.failf("read: process %d returned its copy after X changed since its LL of X", p)
		}
	}
}

// OnMutate implements Observer.
func (c *InvariantChecker) OnMutate(w *Word, p int, old, new uint64, isWrite bool) {
	switch w.Kind() {
	case mem.WordHelp:
		q := w.Idx()
		if isWrite {
			// Line 1 announcement: only the owner writes its own Help
			// word, and always with helpme = 1.
			if p != q {
				c.failf("help discipline: process %d plain-wrote Help[%d]", p, q)
			}
			if c.g.HelpFlag(new) != 1 {
				c.failf("help discipline: announcement with flag 0: %#x", new)
			}
			c.announced[q] = true
			c.helpWrites[q] = 0
			return
		}
		// SC mutation: Line 9 (owner withdrawing) or Line 15 (helper).
		if c.g.HelpFlag(new) != 0 {
			c.failf("lemma2(S2): SC wrote (1,_) into Help[%d]: %#x", q, new)
		}
		c.helpWrites[q]++
		if c.helpWrites[q] > 1 {
			c.failf("lemma2(S1/S3): %d-th write into Help[%d] within one announcement window",
				c.helpWrites[q], q)
		}
		if !c.announced[q] {
			c.failf("lemma2(S3): write into Help[%d] outside any announcement window", q)
		}

	case mem.WordBank:
		c.bankWrites = append(c.bankWrites, bankWrite{idx: w.Idx(), val: new})

	case mem.WordX:
		c.xWrites++
		// I2: validate the epoch that just ended, during which X held
		// lastXOld = (b, s).
		b, s := c.g.XBuf(c.lastXOld), c.g.XSeq(c.lastXOld)
		if c.xWrites == 1 {
			// First epoch: Bank[0] = 0 is pre-initialized; Claim 1 shows
			// no runtime write happens.
			if len(c.bankWrites) != 0 {
				c.failf("I2(claim1): %d Bank writes during the initial epoch, want 0",
					len(c.bankWrites))
			}
		} else {
			if len(c.bankWrites) != 1 {
				c.failf("I2: %d Bank writes during epoch (X=(%d,%d)), want exactly 1",
					len(c.bankWrites), b, s)
			}
			for _, bw := range c.bankWrites {
				if bw.idx != s || bw.val != uint64(b) {
					c.failf("I2: Bank[%d] <- %d during epoch (X=(%d,%d)), want Bank[%d] <- %d",
						bw.idx, bw.val, b, s, s, b)
				}
			}
		}
		c.checkedEpochs++
		c.bankWrites = c.bankWrites[:0]
		c.lastXOld = new

		// Lemma 3: the newly published buffer must stay untouched for the
		// next 2N changes of X.
		c.guards = append(c.guards, bufGuard{
			buf:    c.g.XBuf(new),
			expiry: c.xWrites + 2*c.n,
		})
	}
}

// OnBufWrite implements Observer: Lemma 3 and writer exclusivity. Setup
// phase writes (object initialization, before the scheduler starts) are
// exempt — the Lemma 3 guard on BUF[0] covers the run itself.
func (c *InvariantChecker) OnBufWrite(buf, p int) {
	if !c.m.sched.started {
		return
	}
	live := c.guards[:0]
	for _, g := range c.guards {
		if c.xWrites >= g.expiry {
			continue // expired
		}
		live = append(live, g)
		if g.buf == buf {
			c.failf("lemma3: process %d wrote BUF[%d] only %d X-changes after it was published (need >= %d)",
				p, buf, c.xWrites-(g.expiry-2*c.n), 2*c.n)
		}
	}
	c.guards = live
}

// CheckStep runs the per-step global invariant (I1); register with
// Sched.AfterStep.
func (c *InvariantChecker) CheckStep() {
	x := c.m.WordValue(mem.WordX, 0)
	xb, xs := c.g.XBuf(x), c.g.XSeq(x)

	owner := make(map[int]string, 3*c.n)
	record := func(buf int, who string) {
		if prev, dup := owner[buf]; dup {
			c.failf("I1: buffer %d claimed by both %s and %s (X=(%d,%d))",
				buf, prev, who, xb, xs)
			return
		}
		owner[buf] = who
	}

	// m_p for every process.
	for p := 0; p < c.n; p++ {
		m := c.mybuf[p]
		if c.inRegion[p] {
			if h := c.m.WordValue(mem.WordHelp, p); c.g.HelpFlag(h) == 0 {
				m = c.g.HelpBuf(h)
			}
		}
		record(m, fmt.Sprintf("m_%d", p))
	}
	// b_i for every sequence number: Bank[i], except b_{X.seq} = X.buf.
	for i := 0; i < 2*c.n; i++ {
		b := int(c.m.WordValue(mem.WordBank, i))
		if i == xs {
			b = xb
		}
		record(b, fmt.Sprintf("b_%d", i))
	}

	// Exclusive buffer writers (uses the live writers counters).
	for _, bufs := range c.m.buffers {
		for buf, n := range bufs.writers {
			if n > 1 {
				c.failf("exclusive-writer: %d concurrent writers inside BUF[%d]", n, buf)
			}
		}
	}
}

// CheckFinal validates the trailing (incomplete) I2 epoch; call after the
// run completes.
func (c *InvariantChecker) CheckFinal() {
	b, s := c.g.XBuf(c.lastXOld), c.g.XSeq(c.lastXOld)
	if len(c.bankWrites) > 1 {
		c.failf("I2(final): %d Bank writes in trailing epoch, want <= 1", len(c.bankWrites))
	}
	for _, bw := range c.bankWrites {
		if c.xWrites == 0 {
			c.failf("I2(claim1,final): Bank write before any X change")
			continue
		}
		if bw.idx != s || bw.val != uint64(b) {
			c.failf("I2(final): Bank[%d] <- %d in trailing epoch (X=(%d,%d))", bw.idx, bw.val, b, s)
		}
	}
}

var _ Observer = (*InvariantChecker)(nil)
