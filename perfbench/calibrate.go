package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The shared hosts this benchmark runs on change speed by up to 2x within
// minutes, and the whole process slows with them, CPU time included: the
// same membench campaign took 4.0 to 7.0 s back to back while a fixed loop
// timed beside it moved with it. To keep that drift out of the reported
// timings, a run interleaves its jobs with a calibration: fixed kernels in
// the benchmark's own code, which never change with the program under
// test. Every end-to-end timing is reported at the reference speed, that
// is multiplied by calRefMs over the mean CPU time of the two
// calibrations on either side of it. A change to the program moves its
// jobs but not the calibration, so it shows in full. The raw figures and
// every calibration are kept in the run record.

// calRefMs is about the calibration's CPU time, summed over 2 workers, on
// the 2-vCPU Xeon VM the bounds were set on. It only fixes the scale of the
// reported timings.
const calRefMs = 160.0

// calibration is one timed run of the calibration kernels.
type calibration struct {
	// CPUMs is the kernels' thread CPU time summed over the workers; it
	// sets the scale. WallMs is the calibration's wall time, recorded only.
	CPUMs  float64 `json:"cpu_ms"`
	WallMs float64 `json:"wall_ms"`
	// PartMs is each kernel's thread CPU time summed over the workers.
	PartMs map[string]float64 `json:"part_ms"`
}

// calSink keeps the kernels' results live.
var calSink uint64

// calWords sizes each worker's scratch buffer, 1 MiB: it fits the core's
// own L2 cache, which a busy neighbour on the same core shares. The
// buffers are mapped outside the Go heap and their pages are released
// after each calibration, so they never show in the resident set during
// the timed slices or in the program's heap figures.
const calWords = 1 << 17

// speed is a run's calibrator: the workers' buffers, and the calibrations
// in run order.
type speed struct {
	bufs [][]uint64
	cals []calibration
}

func newSpeed(workers int) (*speed, error) {
	s := &speed{}
	for range workers {
		mem, err := syscall.Mmap(-1, 0, calWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("calibration buffer: %w", err)
		}
		s.bufs = append(s.bufs, unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(mem))), calWords))
	}
	return s, nil
}

func (s *speed) close() {
	for _, b := range s.bufs {
		syscall.Munmap(wordBytes(b))
	}
}

// calibrate runs the same fixed work on each worker's goroutine at once,
// each locked to its thread, appends the calibration and returns its
// index. Every kernel is timed by its thread's CPU clock: time-sharing of
// the CPUs between threads does not reach the figures, while whatever
// slows the CPU's own work does.
func (s *speed) calibrate() int {
	parts := make([]map[string]float64, len(s.bufs))
	sinks := make([]uint64, len(s.bufs))
	start := time.Now()
	var wg sync.WaitGroup
	for w, buf := range s.bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			parts[w], sinks[w] = calKernels(buf, uint64(w)+1)
			// Give the pages back; the next calibration starts from
			// fresh zero pages. Advice that fails only keeps them.
			_ = syscall.Madvise(wordBytes(buf), syscall.MADV_DONTNEED)
		}()
	}
	wg.Wait()
	for _, v := range sinks {
		calSink += v
	}
	c := calibration{WallMs: float64(time.Since(start).Microseconds()) / 1000, PartMs: map[string]float64{}}
	for _, p := range parts {
		for k, v := range p {
			c.PartMs[k] += v
			c.CPUMs += v
		}
	}
	s.cals = append(s.cals, c)
	return len(s.cals) - 1
}

// calKernels runs the kernels on one thread: a dependent integer chain
// (scalar latency), eight independent chains (execution ports, which a
// neighbour on the same core shares), unpredictable branches, random
// updates of a table in the core's L2 cache, SHA-256 (throughput code) and
// sorting. Each kernel's data fits in the core's own caches.
func calKernels(buf []uint64, seed uint64) (part map[string]float64, sink uint64) {
	for i := range buf {
		buf[i] = uint64(i)
	}
	part = map[string]float64{}
	timed := func(name string, f func() uint64) {
		start := threadCPU()
		sink += f()
		part[name] = float64((threadCPU() - start).Microseconds()) / 1000
	}
	const mul, inc = 6364136223846793005, 1442695040888963407
	lcg := func(x uint64) uint64 { return x*mul + inc }
	timed("chain", func() uint64 {
		x := seed
		for range 8_000_000 {
			x = lcg(x)
			x ^= x >> 29
		}
		return x
	})
	timed("ilp", func() uint64 {
		a, b, c, d, e, f, g, h := seed, seed+1, seed+2, seed+3, seed+4, seed+5, seed+6, seed+7
		for range 2_000_000 {
			a, b, c, d, e, f, g, h = a*mul+inc, b*mul+inc, c*mul+inc, d*mul+inc, e*mul+inc, f*mul+inc, g*mul+inc, h*mul+inc
			a, b, c, d, e, f, g, h = a^a>>29, b^b>>29, c^c>>29, d^d>>29, e^e>>29, f^f>>29, g^g>>29, h^h>>29
		}
		return a + b + c + d + e + f + g + h
	})
	timed("branch", func() uint64 {
		x, n := seed, uint64(0)
		for range 6_000_000 {
			x = lcg(x)
			if x>>63 == 1 {
				n += 3
			} else {
				n ^= 5
			}
		}
		return n
	})
	timed("l2table", func() uint64 {
		mask := uint64(len(buf) - 1)
		x, hits := seed, uint64(0)
		for range 3_000_000 {
			x = lcg(x)
			i := (x >> 33) & mask
			if buf[i] == x>>50 {
				hits++
			} else {
				buf[i] = x >> 50
			}
		}
		return hits
	})
	half := buf[:len(buf)/2]
	timed("sha256", func() uint64 {
		b := wordBytes(half)
		var sum [32]byte
		for range 8 {
			sum = sha256.Sum256(b)
			b[0] = sum[0]
		}
		return uint64(sum[0])
	})
	timed("sort", func() uint64 {
		x := seed
		var acc uint64
		for range 4 {
			for i := range half {
				x = lcg(x)
				half[i] = x >> 16
			}
			slices.Sort(half)
			acc += half[len(half)/2]
		}
		return acc
	})
	return part, sink
}

// threadCPU reads the calling thread's CPU clock, which Linux always has.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

func wordBytes(w []uint64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), len(w)*8)
}

// factor turns a raw timing measured between calibration i and the next one
// into one at the reference speed.
func (s *speed) factor(i int) float64 {
	ms := s.cals[i].CPUMs
	if i+1 < len(s.cals) {
		ms = (ms + s.cals[i+1].CPUMs) / 2
	}
	return calRefMs / ms
}
