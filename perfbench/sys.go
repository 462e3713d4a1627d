package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// envStamp describes the host a result was measured on.
type envStamp struct {
	nproc      int
	gomaxprocs int
	goVersion  string
	arch       string
	cpuModel   string
	fs         string // filesystem of the benchmark's work directory
}

func (e envStamp) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s arch=%s cpu=%q fs=%s",
		e.nproc, e.gomaxprocs, e.goVersion, e.arch, e.cpuModel, e.fs)
}

// stampEnv stamps the host, refusing GOMAXPROCS above the CPU count: a
// run with more Ps than CPUs measures an oversubscribed host.
func stampEnv(workDir string) (envStamp, error) {
	e := envStamp{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		arch:       runtime.GOOS + "/" + runtime.GOARCH,
		cpuModel:   cpuModel(),
		fs:         fsName(workDir),
	}
	if e.gomaxprocs > e.nproc {
		return e, fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs available; unset GOMAXPROCS or lower it", e.gomaxprocs, e.nproc)
	}
	return e, nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsNames maps statfs magic numbers to filesystem names.
var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2FC12FC1: "zfs",
}

func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	at     time.Time
	user   time.Duration
	sys    time.Duration
	maxRSS int64 // KiB
	gcCPU  float64
	allCPU float64
	allocs uint64
}

var usageSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:objects"},
}

func takeUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(usageSamples))
	copy(s, usageSamples)
	metrics.Read(s)
	return usage{
		at:     time.Now(),
		user:   time.Duration(ru.Utime.Nano()),
		sys:    time.Duration(ru.Stime.Nano()),
		maxRSS: ru.Maxrss,
		gcCPU:  s[0].Value.Float64(),
		allCPU: s[1].Value.Float64(),
		allocs: s[2].Value.Uint64(),
	}
}

// usageDelta is what happened between two snapshots.
type usageDelta struct {
	wall, cpu, sys time.Duration
	gcCPUFrac      float64
	allocs         uint64
}

func (b usage) to(a usage) usageDelta {
	d := usageDelta{
		wall:   a.at.Sub(b.at),
		cpu:    (a.user - b.user) + (a.sys - b.sys),
		sys:    a.sys - b.sys,
		allocs: a.allocs - b.allocs,
	}
	if all := a.allCPU - b.allCPU; all > 0 {
		d.gcCPUFrac = (a.gcCPU - b.gcCPU) / all
	}
	return d
}
