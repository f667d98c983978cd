package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"opaquebench/internal/suite"
)

// hostRecord is the fingerprint written beside every run, so a later
// "too noisy" verdict can be traced to host drift or ruled out.
type hostRecord struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	// Commit is the VCS revision stamped into the binary when there is
	// one, else "source:" and a hash of the checkout's Go sources.
	Commit string `json:"commit"`
	// Build is the module build identity the suite cache keys use.
	Build string `json:"build"`
}

func fingerprint(root string) hostRecord {
	h := hostRecord{
		CPUModel: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, GoVersion: runtime.Version(),
		Build: suite.ModuleVersion(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if h.Commit == "" {
		h.Commit = "source:" + sourceHash(root)
	}
	return h
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

// sourceHash hashes go.mod and every .go file under root (skipping dot
// directories), in path order: the identity of the code under test when
// the checkout carries no VCS metadata.
func sourceHash(root string) string {
	var paths []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel + "\x00"))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// probeSink keeps the speed probe's result live.
var probeSink uint64

// speedProbe times a fixed integer loop that never changes with the code
// under test: the median of three timings, in milliseconds. It is recorded
// before and after each run and never gated on.
func speedProbe() float64 {
	var ms []float64
	for range 3 {
		start := time.Now()
		x := uint64(1)
		for i := 0; i < 30_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			x ^= x >> 29
		}
		probeSink += x
		ms = append(ms, float64(time.Since(start).Microseconds())/1000)
	}
	return median(ms)
}

// sampleRSS samples the process's resident set size, in MiB, every 10 ms
// until stop is closed, then sends the samples on the returned channel.
// Where /proc/self/statm is unreadable it sends the lifetime peak from
// getrusage as the only sample.
func sampleRSS() (stop chan struct{}, samples <-chan []float64) {
	stop = make(chan struct{})
	out := make(chan []float64, 1)
	go func() {
		var mb []float64
		take := func() {
			if b := residentBytes(); b > 0 {
				mb = append(mb, float64(b)/mib)
			}
		}
		take()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				take()
			case <-stop:
				take()
				if len(mb) == 0 {
					mb = append(mb, float64(sampleUsage().maxRSS)/mib)
				}
				out <- mb
				return
			}
		}
	}()
	return stop, out
}

// residentBytes reads the current resident set size, or -1.
func residentBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return -1
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return -1
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return -1
	}
	return pages * int64(os.Getpagesize())
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	at       time.Time
	cpu      time.Duration // user + system
	maxRSS   int64         // bytes, process lifetime peak
	alloc    uint64        // cumulative heap bytes allocated
	gcCPU    float64       // cumulative GC CPU seconds
	gcCycles uint64
	// wall is set on differences of snapshots: the time between them.
	wall time.Duration
}

// minus is the usage between snapshot b and the later snapshot u.
func (u usage) minus(b usage) usage {
	return usage{cpu: u.cpu - b.cpu, alloc: u.alloc - b.alloc, gcCPU: u.gcCPU - b.gcCPU,
		gcCycles: u.gcCycles - b.gcCycles, wall: u.at.Sub(b.at)}
}

// plus adds two differences.
func (u usage) plus(d usage) usage {
	return usage{cpu: u.cpu + d.cpu, alloc: u.alloc + d.alloc, gcCPU: u.gcCPU + d.gcCPU,
		gcCycles: u.gcCycles + d.gcCycles, wall: u.wall + d.wall}
}

func sampleUsage() usage {
	u := usage{at: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		u.maxRSS = ru.Maxrss * 1024 // kilobytes on Linux
	}
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindUint64 {
		u.alloc = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = samples[1].Value.Float64()
	}
	if samples[2].Value.Kind() == metrics.KindUint64 {
		u.gcCycles = samples[2].Value.Uint64()
	}
	return u
}
