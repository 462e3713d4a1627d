package main

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"mwllsc/internal/shard"
)

// workload is one named traffic mix. Every workload is a closed loop:
// each caller issues its next operation only after the previous one
// returned, because the client's calls are synchronous.
type workload struct {
	name string
	why  string

	served  bool // over loopback TCP to an in-process server
	durable bool // server backed by internal/persist at fsync "always"

	k, n, w int // map geometry: shards, process slots, words per value

	conns   int // served: TCP connections (capped at nproc)
	perConn int // served: closed-loop callers per connection
	procs   int // in-process: goroutines, each holding one handle

	readPct, addPct, multiPct int // op mix, summing to 100

	preload int // served-durable: log records recovered at set-up

	// sampleEvery times one op in this many per caller (1 = every op);
	// spanEvery keeps the spans of one traced op in this many, and at
	// most maxSpanOps ops are kept in all. They bound the memory a run
	// holds without changing what it measures.
	sampleEvery int
	spanEvery   int

	setupReps int // set-ups per run; setup_s is their median
}

var workloads = []*workload{
	{
		name: "served-mem",
		why: "in-memory server on loopback: client, wire, socket and the server executor do the work " +
			"while persist is idle; reads beside writes show update-path gains that cost reads",
		served: true, k: 16, n: 16, w: 4, conns: 2, perConn: 16,
		readPct: 60, addPct: 35, multiPct: 5,
		sampleEvery: 1, spanEvery: 16, setupReps: 101,
	},
	{
		name: "served-durable",
		why: "the same server with the log at fsync always: the group-commit fsync dominates, " +
			"and 20% reads show whether reads wait behind fsync rounds",
		served: true, durable: true, k: 16, n: 16, w: 4, conns: 2, perConn: 32,
		readPct: 20, addPct: 75, multiPct: 5, preload: recoveryRecords,
		sampleEvery: 1, spanEvery: 4, setupReps: 5,
	},
	{
		name: "inproc-contended",
		why: "no network: two goroutines on a 4-shard map, so all time goes into LL/SC, " +
			"the shard registry and map, and cross-shard transactions",
		k: 4, n: 2, w: 8, procs: 2,
		readPct: 20, addPct: 70, multiPct: 10,
		sampleEvery: 16, spanEvery: 256, setupReps: 201,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	sort.Strings(names)
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// callers is the number of closed-loop callers: connections × callers
// per connection when served, goroutines otherwise.
func (wl *workload) callers(nproc int) int {
	if wl.served {
		return wl.connCount(nproc) * wl.perConn
	}
	return wl.procs
}

// connCount caps the connection count at nproc.
func (wl *workload) connCount(nproc int) int {
	return min(wl.conns, nproc)
}

type opKind uint8

const (
	opRead opKind = iota
	opAdd
	opMulti
	numKinds
)

var kindNames = [numKinds]string{"read", "update", "multi"}

// op is one generated operation. Add adds d+j to word j of the value
// owning key; AddMulti does the same for key (with d) and key2 (with d2)
// in one transaction. key and key2 always lie in different shards.
type op struct {
	kind      opKind
	key, key2 uint64
	d, d2     uint64
}

// ringLen is the length of each caller's op ring; a caller replays its
// ring from the start when it runs out.
const ringLen = 4096

// preloadStream is the stream id of the durable preload, kept apart from
// the caller streams 0, 1, 2, ...
const preloadStream = 1 << 32

// fillDelta writes the delta a generated op adds: d+j to word j.
func fillDelta(dst []uint64, d uint64) {
	for j := range dst {
		dst[j] = d + uint64(j)
	}
}

// shardIndexer returns the key-to-shard function of a k-shard map.
func shardIndexer(k int) (func(uint64) int, error) {
	m, err := shard.NewMap(k, 1, 1)
	if err != nil {
		return nil, err
	}
	return m.ShardIndex, nil
}

// genOps returns n ops of stream id `stream` for seed. The ops depend
// only on (seed, stream, n, the workload's mix and K).
func genOps(wl *workload, seed, stream uint64, n int, shardOf func(uint64) int) []op {
	r := rand.New(rand.NewPCG(seed, stream))
	ops := make([]op, n)
	for i := range ops {
		o := &ops[i]
		switch x := r.IntN(100); {
		case x < wl.readPct:
			o.kind = opRead
		case x < wl.readPct+wl.addPct:
			o.kind = opAdd
		default:
			o.kind = opMulti
		}
		o.key = r.Uint64()
		o.d = 1 + r.Uint64N(1<<16)
		if o.kind == opMulti {
			o.key2 = r.Uint64()
			for shardOf(o.key2) == shardOf(o.key) {
				o.key2 = r.Uint64()
			}
			o.d2 = 1 + r.Uint64N(1<<16)
		}
	}
	return ops
}

// genStreams returns one op ring per caller.
func genStreams(wl *workload, seed uint64, callers int, shardOf func(uint64) int) [][]op {
	streams := make([][]op, callers)
	for c := range streams {
		streams[c] = genOps(wl, seed, uint64(c), ringLen, shardOf)
	}
	return streams
}

// recoveryRecords is the size of the logs recovery is timed on: the
// durable workload's preload and the persist rung's recovery log.
const recoveryRecords = 100000

// genAdds returns n Add ops on seeded uniform keys, the records of a
// preloaded log.
func genAdds(wl *workload, seed uint64, n int, shardOf func(uint64) int) []op {
	adds := *wl
	adds.readPct, adds.addPct, adds.multiPct = 0, 100, 0
	return genOps(&adds, seed, preloadStream, n, shardOf)
}

// sums is the expected K×W state: per shard, the wrapping sum of every
// delta applied to it.
type sums struct {
	w    int
	vals []uint64
}

func newSums(k, w int) *sums { return &sums{w: w, vals: make([]uint64, k*w)} }

// add applies o's deltas (an Add or AddMulti) to the sums.
func (s *sums) add(o *op, shardOf func(uint64) int) {
	s.addOne(shardOf(o.key), o.d)
	if o.kind == opMulti {
		s.addOne(shardOf(o.key2), o.d2)
	}
}

func (s *sums) addOne(shardI int, d uint64) {
	row := s.vals[shardI*s.w : (shardI+1)*s.w]
	for j := range row {
		row[j] += d + uint64(j)
	}
}

// merge adds o's sums into s.
func (s *sums) merge(o *sums) {
	for i, v := range o.vals {
		s.vals[i] += v
	}
}

// diff compares a K×W state with the sums and describes the first
// mismatch, or returns "" when they agree.
func (s *sums) diff(state [][]uint64) string {
	for i, row := range state {
		for j, v := range row {
			if want := s.vals[i*s.w+j]; v != want {
				return fmt.Sprintf("shard %d word %d: got %d, want %d", i, j, v, want)
			}
		}
	}
	return ""
}
