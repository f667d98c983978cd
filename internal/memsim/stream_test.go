package memsim

import (
	"math"
	"testing"
)

// streamBufs allocates n contiguous buffers of the given size, padded apart
// by one page each, like real STREAM implementations: power-of-two array
// spacings would otherwise put a[i], b[i] and c[i] in the same cache set and
// thrash a 2-way L1 — itself a nice demonstration of how fragile "simple"
// kernels are.
func streamBufs(t *testing.T, m *Machine, n, size int) []*Buffer {
	t.Helper()
	a := NewContiguousAllocator(m.PageBytes)
	bufs := make([]*Buffer, n)
	for i := range bufs {
		b, err := a.Alloc(size)
		if err != nil {
			t.Fatal(err)
		}
		bufs[i] = b
		if _, err := a.Alloc((i + 1) * m.PageBytes); err != nil { // stagger pad
			t.Fatal(err)
		}
	}
	return bufs
}

func streamBW(t *testing.T, m *Machine, kind StreamKind, size int) float64 {
	t.Helper()
	h, err := m.NewHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	p := KernelParams{SizeBytes: size, Stride: 1, ElemBytes: 4, NLoops: 500}
	res, err := RunStream(m, h, streamBufs(t, m, kind.Buffers(), size), p, kind)
	if err != nil {
		t.Fatal(err)
	}
	return res.BandwidthMBps(p.ElemBytes, res.Seconds(m.FreqTable.Max()))
}

func TestStreamKindBuffers(t *testing.T) {
	if StreamSum.Buffers() != 1 || StreamCopy.Buffers() != 2 || StreamTriad.Buffers() != 3 {
		t.Fatal("buffer counts")
	}
	if !StreamSum.Valid() || StreamKind("saxpy").Valid() {
		t.Fatal("validity")
	}
}

func TestRunStreamValidation(t *testing.T) {
	m := Opteron()
	h, err := m.NewHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	p := KernelParams{SizeBytes: 4096, Stride: 1, ElemBytes: 4, NLoops: 1}
	if _, err := RunStream(m, h, streamBufs(t, m, 1, 4096), p, StreamCopy); err == nil {
		t.Fatal("copy with one buffer accepted")
	}
	if _, err := RunStream(m, h, streamBufs(t, m, 1, 4096), p, "saxpy"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestStreamSumMatchesRunKernel(t *testing.T) {
	m := Opteron()
	size := 32 << 10
	p := KernelParams{SizeBytes: size, Stride: 1, ElemBytes: 4, NLoops: 50}

	h1, err := m.NewHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	bufs := streamBufs(t, m, 1, size)
	viaStream, err := RunStream(m, h1, bufs, p, StreamSum)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := m.NewHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	buf2, err := NewContiguousAllocator(m.PageBytes).Alloc(size)
	if err != nil {
		t.Fatal(err)
	}
	viaKernel, err := RunKernel(m, h2, buf2, p)
	if err != nil {
		t.Fatal(err)
	}
	if viaStream.Accesses != viaKernel.Accesses {
		t.Fatalf("accesses %d vs %d", viaStream.Accesses, viaKernel.Accesses)
	}
	if math.Abs(viaStream.Cycles-viaKernel.Cycles)/viaKernel.Cycles > 1e-9 {
		t.Fatalf("cycles %v vs %v", viaStream.Cycles, viaKernel.Cycles)
	}
}

func TestWriteAllocate(t *testing.T) {
	// A store miss installs the line: the following load hits.
	m := Opteron()
	h, err := m.NewHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	if d := h.AccessRW(0, true); d != len(h.Levels()) {
		t.Fatalf("store depth = %d, want memory", d)
	}
	if d := h.AccessRW(0, false); d != 0 {
		t.Fatalf("load after store depth = %d, want L1", d)
	}
}

func TestDirtyEvictionGeneratesWriteTraffic(t *testing.T) {
	// Write a working set twice the L1, traverse again: dirty evictions
	// must show up as write traffic out of L1.
	m := Opteron()
	h, err := m.NewHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	span := m.L1().SizeBytes * 2
	for pass := 0; pass < 2; pass++ {
		for off := 0; off < span; off += m.L1().LineBytes {
			h.AccessRW(uint64(off), true)
		}
	}
	wt := h.WriteTraffic()
	if wt[0] == 0 {
		t.Fatal("no writeback traffic out of L1")
	}
}

func TestCleanEvictionNoWriteTraffic(t *testing.T) {
	m := Opteron()
	h, err := m.NewHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	span := m.L1().SizeBytes * 2
	for pass := 0; pass < 2; pass++ {
		for off := 0; off < span; off += m.L1().LineBytes {
			h.AccessRW(uint64(off), false)
		}
	}
	for i, w := range h.WriteTraffic() {
		if w != 0 {
			t.Fatalf("read-only traversal produced write traffic at level %d", i)
		}
	}
}

func TestStreamKernelsL1Resident(t *testing.T) {
	// Inside L1 everything is issue-bound: per-element bandwidth identical
	// across kernels (each access costs the same issue slot).
	m := Opteron()
	size := 8 << 10
	sum := streamBW(t, m, StreamSum, size)
	cp := streamBW(t, m, StreamCopy, size)
	tr := streamBW(t, m, StreamTriad, size)
	if math.Abs(sum-cp)/sum > 0.05 || math.Abs(sum-tr)/sum > 0.05 {
		t.Fatalf("L1-resident kernels should match: sum=%v copy=%v triad=%v", sum, cp, tr)
	}
}

func TestStreamCopySlowerThanSumOutOfCache(t *testing.T) {
	// Memory-resident copy moves read + write-allocate + writeback lines:
	// its useful bandwidth must fall below the read-only kernel's.
	m := Opteron()
	size := 4 << 20
	sum := streamBW(t, m, StreamSum, size)
	cp := streamBW(t, m, StreamCopy, size)
	if cp >= sum*0.9 {
		t.Fatalf("memory-resident copy should be slower: sum=%v copy=%v", sum, cp)
	}
}

func TestStreamTriadBetweenSumAndCopy(t *testing.T) {
	// Triad moves 3 useful accesses per 1 writeback; its useful bandwidth
	// sits between copy (1:1) and sum (no writes) out of cache.
	m := Opteron()
	size := 4 << 20
	sum := streamBW(t, m, StreamSum, size)
	cp := streamBW(t, m, StreamCopy, size)
	tr := streamBW(t, m, StreamTriad, size)
	if !(cp < tr && tr < sum) {
		t.Fatalf("ordering violated: sum=%v triad=%v copy=%v", sum, tr, cp)
	}
}

func TestStreamWritebackCounted(t *testing.T) {
	m := Opteron()
	h, err := m.NewHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	size := 1 << 20 // spans L1, fits L2
	p := KernelParams{SizeBytes: size, Stride: 1, ElemBytes: 4, NLoops: 5}
	res, err := RunStream(m, h, streamBufs(t, m, 2, size), p, StreamCopy)
	if err != nil {
		t.Fatal(err)
	}
	// Transfer time across the L1 interface must exceed the pure fill
	// time, because writebacks share it.
	fillsOnly := float64(res.Fills[0]) * float64(m.L1().LineBytes) / m.L1().FillBytesPerCycle
	if res.TransferCycles[0] <= fillsOnly {
		t.Fatalf("writeback traffic missing: transfer=%v fills-only=%v", res.TransferCycles[0], fillsOnly)
	}
}

// BenchmarkStreamSweep times the i7 sum sweep a membench campaign runs:
// buffers from 1 KB to 4x the L3 in powers of two, at strides of 1 and 16
// elements, each kernel on a flushed hierarchy and a rewound contiguous
// allocator as a trial-indexed trial gets them. It reports the kernels'
// modelled accesses (KernelResult.Accesses) per second.
func BenchmarkStreamSweep(b *testing.B) {
	m := CoreI7()
	h, err := m.NewHierarchy()
	if err != nil {
		b.Fatal(err)
	}
	alloc := NewContiguousAllocator(m.PageBytes)
	var buf Buffer
	bufs := []*Buffer{&buf}
	var accesses uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, stride := range []int{1, 16} {
			for size := 1 << 10; size <= 4*m.Levels[len(m.Levels)-1].SizeBytes; size *= 2 {
				h.Flush()
				alloc.Reset()
				if err := alloc.AllocInto(&buf, size); err != nil {
					b.Fatal(err)
				}
				p := KernelParams{SizeBytes: size, Stride: stride, ElemBytes: 4, NLoops: 100}
				res, err := RunStream(m, h, bufs, p, StreamSum)
				if err != nil {
					b.Fatal(err)
				}
				accesses += res.Accesses
			}
		}
	}
	b.ReportMetric(float64(accesses)/b.Elapsed().Seconds(), "accesses/s")
}
