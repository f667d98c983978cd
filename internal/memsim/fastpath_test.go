package memsim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"testing"
)

// referenceStream is the plain kernel loop the fast paths must reproduce:
// every traversal is simulated, and every access goes through the TLB
// (when the machine models one) and Hierarchy.AccessRW, one at a time.
// Timing, extrapolation and the per-traversal roofline are RunStream's.
func referenceStream(m *Machine, h *Hierarchy, bufs []*Buffer, p KernelParams, kind StreamKind) (KernelResult, error) {
	for bi := 0; bi < kind.Buffers(); bi++ {
		if err := p.Validate(bufs[bi]); err != nil {
			return KernelResult{}, err
		}
	}
	iters := p.SizeBytes / p.ElemBytes / p.Stride
	strideBytes := p.Stride * p.ElemBytes
	reads, writes := kind.accessesPerIteration()
	perIter := reads + writes
	simLoops := min(p.NLoops, 3)
	nLevels := len(h.Levels())
	cpa := m.Issue.CyclesPerAccess(p.ElemBytes, p.Unroll)
	tlb := NewTLB(m.TLBEntries)
	access := func(phys uint64, write bool) {
		tlb.Access(phys / uint64(m.PageBytes))
		h.AccessRW(phys, write)
	}

	var repCycles []float64
	var repBound []string
	var repFills, repTraffic [][]uint64
	var repTLB []uint64
	for rep := 0; rep < simLoops; rep++ {
		h.ResetStats()
		tlbBefore := tlb.Misses()
		for i, off := 0, 0; i < iters; i, off = i+1, off+strideBytes {
			switch kind {
			case StreamSum:
				access(bufs[0].Translate(off), false)
			case StreamCopy:
				access(bufs[1].Translate(off), false)
				access(bufs[0].Translate(off), true)
			case StreamTriad:
				access(bufs[1].Translate(off), false)
				access(bufs[2].Translate(off), false)
				access(bufs[0].Translate(off), true)
			}
		}
		fills := h.Fills()
		traffic := make([]uint64, nLevels)
		for i := range traffic {
			traffic[i] = h.fills[i] + h.writeTraffic[i]
		}
		tlbMisses := tlb.Misses() - tlbBefore
		cycles := float64(iters*perIter)*cpa + float64(tlbMisses)*m.TLBMissCycles
		bound := "issue"
		for i, c := range h.Levels() {
			cfg := c.Config()
			if tc := float64(traffic[i]) * float64(cfg.LineBytes) / cfg.FillBytesPerCycle; tc > cycles {
				cycles, bound = tc, cfg.Name
				if i == nLevels-1 {
					bound = "mem"
				}
			}
		}
		repCycles = append(repCycles, cycles)
		repBound = append(repBound, bound)
		repFills = append(repFills, fills)
		repTraffic = append(repTraffic, traffic)
		repTLB = append(repTLB, tlbMisses)
	}

	res := KernelResult{
		Accesses:       uint64(iters*perIter) * uint64(p.NLoops),
		Fills:          make([]uint64, nLevels+1),
		BoundBy:        repBound[simLoops-1],
		IssueCycles:    float64(iters*perIter) * float64(p.NLoops) * cpa,
		TransferCycles: make([]float64, nLevels),
	}
	traffic := make([]uint64, nLevels)
	for rep := 0; rep < simLoops; rep++ {
		for i := range res.Fills {
			res.Fills[i] += repFills[rep][i]
		}
		for i := range traffic {
			traffic[i] += repTraffic[rep][i]
		}
		res.Cycles += repCycles[rep]
		res.TLBMisses += repTLB[rep]
	}
	if extra := p.NLoops - simLoops; extra > 0 {
		last := simLoops - 1
		for i := range res.Fills {
			res.Fills[i] += repFills[last][i] * uint64(extra)
		}
		for i := range traffic {
			traffic[i] += repTraffic[last][i] * uint64(extra)
		}
		res.Cycles += repCycles[last] * float64(extra)
		res.TLBMisses += repTLB[last] * uint64(extra)
	}
	for i, c := range h.Levels() {
		cfg := c.Config()
		res.TransferCycles[i] = float64(traffic[i]) * float64(cfg.LineBytes) / cfg.FillBytesPerCycle
	}
	return res, nil
}

// cacheState is a cache level's full logical state: the ways in place (a
// set a Flush has not reached yet reads as invalid), the tick, the victim
// rng, the MRU entry and the counters.
type cacheState struct {
	Ways                     []way
	Tick, RNG                uint64
	MRU                      bool
	MRULine                  uint64
	MRUIdx                   int
	Hits, Misses, Writebacks uint64
}

type hierarchyState struct {
	Levels                []cacheState
	Fills, WriteTraffic   []uint64
	MemFills, AccessCount uint64
}

func stateOf(h *Hierarchy) hierarchyState {
	s := hierarchyState{
		Fills:        append([]uint64(nil), h.fills...),
		WriteTraffic: append([]uint64(nil), h.writeTraffic...),
		MemFills:     h.memFills,
		AccessCount:  h.accesses,
	}
	for _, c := range h.levels {
		cs := cacheState{
			Ways: append([]way(nil), c.ways...),
			Tick: c.tick, RNG: c.rng,
			Hits: c.hits, Misses: c.misses, Writebacks: c.writebacks,
		}
		for set, e := range c.setEpoch {
			if e != c.epoch {
				clear(cs.Ways[set*c.cfg.Ways : (set+1)*c.cfg.Ways])
			}
		}
		if c.mruEpoch == c.epoch {
			cs.MRU, cs.MRULine, cs.MRUIdx = true, c.mruLine, c.mruIdx
		}
		s.Levels = append(s.Levels, cs)
	}
	return s
}

// stateDiff describes the first difference between two states, or "".
func stateDiff(got, want hierarchyState) string {
	for i := range want.Levels {
		g, w := got.Levels[i], want.Levels[i]
		for j := range w.Ways {
			if g.Ways[j] != w.Ways[j] {
				return fmt.Sprintf("level %d way %d: %+v, want %+v", i, j, g.Ways[j], w.Ways[j])
			}
		}
		g.Ways, w.Ways = nil, nil
		if !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("level %d: %+v, want %+v", i, g, w)
		}
	}
	got.Levels, want.Levels = nil, nil
	if !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("hierarchy counters %+v, want %+v", got, want)
	}
	return ""
}

// diffMachines returns the Figure 5 machines plus three small synthetic
// ones whose lower levels the draws can overflow cheaply: "tiny" has three
// power-of-two levels; "odd" has set counts that are not powers of two, so
// a lower level's set mixes lines of several upper-level sets; "wide" has
// a second level with longer lines.
func diffMachines() []*Machine {
	synthetic := func(name string, levels ...CacheConfig) *Machine {
		m := CoreI7()
		m.Name, m.Levels = name, levels
		return m
	}
	return []*Machine{Opteron(), PentiumIV(), CoreI7(), ARMSnowball(),
		synthetic("tiny",
			CacheConfig{Name: "L1", SizeBytes: 512, Ways: 2, LineBytes: 32, FillBytesPerCycle: 4},
			CacheConfig{Name: "L2", SizeBytes: 2048, Ways: 4, LineBytes: 32, FillBytesPerCycle: 2},
			CacheConfig{Name: "L3", SizeBytes: 8192, Ways: 4, LineBytes: 32, FillBytesPerCycle: 1}),
		synthetic("odd",
			CacheConfig{Name: "L1", SizeBytes: 1024, Ways: 2, LineBytes: 32, FillBytesPerCycle: 4},
			CacheConfig{Name: "L2", SizeBytes: 1152, Ways: 3, LineBytes: 32, FillBytesPerCycle: 2},
			CacheConfig{Name: "L3", SizeBytes: 3840, Ways: 5, LineBytes: 32, FillBytesPerCycle: 1}),
		synthetic("wide",
			CacheConfig{Name: "L1", SizeBytes: 512, Ways: 2, LineBytes: 32, FillBytesPerCycle: 4},
			CacheConfig{Name: "L2", SizeBytes: 4096, Ways: 4, LineBytes: 64, FillBytesPerCycle: 2}),
	}
}

// draw is one randomized differential case.
type draw struct {
	m      *Machine
	kind   StreamKind
	p      KernelParams
	pool   bool
	start  string // "fresh", "flushed" or "warm"
	random []int  // levels switched to random replacement
}

func (d draw) String() string {
	return fmt.Sprintf("%s %s %+v pool=%v start=%s random=%v tlb=%d",
		d.m.Name, d.kind, d.p, d.pool, d.start, d.random, d.m.TLBEntries)
}

func randomDraw(r *rand.Rand) draw {
	ms := diffMachines()
	d := draw{m: ms[r.IntN(len(ms))]}
	d.kind = []StreamKind{StreamSum, StreamCopy, StreamTriad}[r.IntN(3)]
	elem := []int{4, 8, 16}[r.IntN(3)]
	stride := []int{1, 2, 3, 16, 33}[r.IntN(5)]
	// Sizes up to twice the second level (at most 512 KB), log-uniform so
	// every level boundary gets draws; a third of them a power of two.
	maxSize := min(2*d.m.Levels[1].SizeBytes, 512<<10)
	if last := d.m.Levels[len(d.m.Levels)-1].SizeBytes; last < 64<<10 {
		maxSize = 2 * last
	}
	size := int(float64(elem*stride) * math.Pow(float64(maxSize)/float64(elem*stride), r.Float64()))
	if r.IntN(3) == 0 {
		size = 1 << (bits.Len(uint(size)) - 1)
	}
	size = max(size, elem*stride)
	d.p = KernelParams{SizeBytes: size, Stride: stride, ElemBytes: elem,
		NLoops: []int{1, 2, 3, 5, 100}[r.IntN(5)], Unroll: r.IntN(2) == 0}
	d.pool = r.IntN(4) == 0
	d.start = []string{"fresh", "fresh", "flushed", "warm"}[r.IntN(4)]
	if r.IntN(4) == 0 {
		for i := range d.m.Levels {
			if r.IntN(2) == 0 {
				d.m.Levels[i].Replacement = RandomReplacement
				d.random = append(d.random, i)
			}
		}
	}
	if r.IntN(8) == 0 {
		d.m.TLBEntries, d.m.TLBMissCycles = 16, 30
	}
	return d
}

// buffers allocates the kernel's buffers, staggered by one page each on
// the contiguous allocator as membench does.
func (d draw) buffers(t *testing.T, seed uint64) []*Buffer {
	t.Helper()
	pages := 4*(d.p.SizeBytes/d.m.PageBytes+1) + 8
	var alloc Allocator = NewContiguousAllocator(d.m.PageBytes)
	if d.pool {
		pool, err := NewPoolAllocator(d.m.PageBytes, pages, seed)
		if err != nil {
			t.Fatal(err)
		}
		alloc = pool
	}
	bufs := make([]*Buffer, d.kind.Buffers())
	for i := range bufs {
		b, err := alloc.Alloc(d.p.SizeBytes)
		if err != nil {
			t.Fatal(err)
		}
		bufs[i] = b
		if _, err := alloc.Alloc((i + 1) * d.m.PageBytes); err != nil {
			t.Fatal(err)
		}
	}
	return bufs
}

// prepare returns a hierarchy in the draw's starting state: new, flushed
// after a warm-up, or warm (dirty lines included) from a copy kernel over
// other buffers.
func (d draw) prepare(t *testing.T, warm []*Buffer) *Hierarchy {
	t.Helper()
	h, err := d.m.NewHierarchy()
	if err != nil {
		t.Fatal(err)
	}
	if d.start == "fresh" {
		return h
	}
	wp := KernelParams{SizeBytes: warm[0].Size(), Stride: 1, ElemBytes: 4, NLoops: 2}
	if _, err := referenceStream(d.m, h, warm, wp, StreamCopy); err != nil {
		t.Fatal(err)
	}
	if d.start == "flushed" {
		h.Flush()
	}
	return h
}

// checkDraws runs n draws from gen through RunStream and through the plain
// per-access loop on identical hierarchies, demands bit-equal results and
// an equal logical cache state afterwards, and returns how many draws
// derived at least one traversal.
func checkDraws(t *testing.T, n int, gen func(*rand.Rand) draw) (derived int) {
	t.Helper()
	traversals := 0
	derivedHook = func() { traversals++ }
	defer func() { derivedHook = nil }()
	r := rand.New(rand.NewPCG(2017, uint64(n)))
	for i := 0; i < n; i++ {
		d := gen(r)
		bufs := d.buffers(t, uint64(i))
		// The warm-up copy may overlap the kernel's own lines, so the
		// kernel can start with some of them cached, and dirty.
		warmAlloc := NewContiguousAllocator(d.m.PageBytes)
		warmAlloc.SkipPages(r.IntN(8))
		warmBufs := make([]*Buffer, 2)
		for j := range warmBufs {
			var err error
			if warmBufs[j], err = warmAlloc.Alloc(d.m.Levels[0].SizeBytes * 3 / 2); err != nil {
				t.Fatal(err)
			}
		}

		hFast, hRef := d.prepare(t, warmBufs), d.prepare(t, warmBufs)
		before := traversals
		got, err := RunStream(d.m, hFast, bufs, d.p, d.kind)
		if err != nil {
			t.Fatal(err)
		}
		if traversals > before {
			derived++
		}
		want, err := referenceStream(d.m, hRef, bufs, d.p, d.kind)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("draw %d (%v): result\n%+v\nwant\n%+v", i, d, got, want)
		}
		if diff := stateDiff(stateOf(hFast), stateOf(hRef)); diff != "" {
			t.Fatalf("draw %d (%v): cache state differs: %s", i, d, diff)
		}
	}
	return derived
}

// TestFastPathsMatchReference covers every kernel, replacement policy,
// allocator and starting state.
func TestFastPathsMatchReference(t *testing.T) {
	const draws = 300
	derived := checkDraws(t, draws, randomDraw)
	t.Logf("derived traversals in %d of %d draws", derived, draws)
}

// TestDerivedTraversalMatchesReference draws only read-only scans of
// linear buffers, the kernels the derived traversal is for. Most start on
// an empty hierarchy with LRU at every level; the warm starts and the
// random-replacement levels among them must fall back to simulation. The
// derived traversal must be taken in many draws, and every draw must match
// the reference.
func TestDerivedTraversalMatchesReference(t *testing.T) {
	const draws = 400
	derived := checkDraws(t, draws, func(r *rand.Rand) draw {
		d := randomDraw(r)
		d.kind, d.pool, d.m.TLBEntries = StreamSum, false, 0
		d.p.NLoops = []int{2, 3, 5, 100}[r.IntN(4)]
		return d
	})
	if derived < draws/5 {
		t.Fatalf("derived traversals in only %d of %d draws", derived, draws)
	}
	t.Logf("derived traversals in %d of %d draws", derived, draws)
}
