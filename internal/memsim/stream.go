package memsim

import "fmt"

// StreamKind selects one of the STREAM-family kernels. MultiMAPS — the
// benchmark the paper dissects — "is derived from STREAM" (Section IV);
// providing the write-bearing variants completes the ancestry: stores are
// write-allocate and dirty evictions consume interface bandwidth, so copy
// and triad stress the hierarchy roughly twice and three times as hard as
// the read-only sum kernel per element.
type StreamKind string

const (
	// StreamSum is the Figure 6 read-only kernel: s += a[stride*i].
	StreamSum StreamKind = "sum"
	// StreamCopy is a[stride*i] = b[stride*i].
	StreamCopy StreamKind = "copy"
	// StreamTriad is a[stride*i] = b[stride*i] + q*c[stride*i].
	StreamTriad StreamKind = "triad"
)

// Buffers returns the number of distinct arrays the kernel touches.
func (k StreamKind) Buffers() int {
	switch k {
	case StreamCopy:
		return 2
	case StreamTriad:
		return 3
	default:
		return 1
	}
}

// accessesPerIteration returns (reads, writes) per loop iteration.
func (k StreamKind) accessesPerIteration() (reads, writes int) {
	switch k {
	case StreamCopy:
		return 1, 1
	case StreamTriad:
		return 2, 1
	default:
		return 1, 0
	}
}

// Valid reports whether k is a known kernel.
func (k StreamKind) Valid() bool {
	switch k {
	case StreamSum, StreamCopy, StreamTriad:
		return true
	}
	return false
}

// RunStream simulates a STREAM-family kernel over the buffers (destination
// first) on machine m against hierarchy h. The hierarchy's pre-existing
// contents represent whatever the previous measurement left behind,
// exactly like a real benchmark process. Stores are write-allocate and add
// fills and writeback traffic to the interfaces they cross.
//
// The roofline applies per traversal: the cold traversal may be bound by
// the memory interface while steady-state traversals are issue-bound.
// Loop iterations beyond the third traversal are extrapolated from the
// steady-state traversal: the access pattern repeats identically, so with
// LRU replacement the per-traversal miss pattern is periodic after warm-up.
func RunStream(m *Machine, h *Hierarchy, bufs []*Buffer, p KernelParams, kind StreamKind) (KernelResult, error) {
	if !kind.Valid() {
		return KernelResult{}, fmt.Errorf("memsim: unknown stream kernel %q", kind)
	}
	if len(bufs) < kind.Buffers() {
		return KernelResult{}, fmt.Errorf("memsim: %s kernel needs %d buffers, got %d", kind, kind.Buffers(), len(bufs))
	}
	for bi := 0; bi < kind.Buffers(); bi++ {
		if err := p.Validate(bufs[bi]); err != nil {
			return KernelResult{}, err
		}
	}
	iters := p.SizeBytes / p.ElemBytes / p.Stride
	strideBytes := p.Stride * p.ElemBytes
	reads, writes := kind.accessesPerIteration()
	perIter := reads + writes

	simLoops := p.NLoops
	extrapolate := false
	if p.NLoops > 3 {
		simLoops = 3
		extrapolate = true
	}

	nLevels := len(h.Levels())
	cpa := m.Issue.CyclesPerAccess(p.ElemBytes, p.Unroll)
	issuePerLoop := float64(iters*perIter) * cpa
	tlb := NewTLB(m.TLBEntries)
	pageBytes := uint64(m.PageBytes)

	// One flat backing array holds every per-traversal counter; the 2D views
	// just slice it, so a traversal costs no allocations beyond this block.
	repCycles := make([]float64, simLoops)
	repBound := make([]string, simLoops)
	perLoopTraffic := make([][]uint64, simLoops) // fills + writebacks per level
	perLoopFills := make([][]uint64, simLoops)
	perLoopTLBMisses := make([]uint64, simLoops)
	flat := make([]uint64, simLoops*(2*nLevels+1))
	for rep := 0; rep < simLoops; rep++ {
		perLoopFills[rep], flat = flat[:nLevels+1:nLevels+1], flat[nLevels+1:]
		perLoopTraffic[rep], flat = flat[:nLevels:nLevels], flat[nLevels:]
	}

	// The hot path — no TLB model and physically linear buffers, which is
	// every trial-indexed campaign — streams raw physical addresses in
	// same-line runs (streamLinear); the generic path keeps the TLB and
	// scattered-page behaviour. Both issue the identical access sequence,
	// so counters and timing match bit for bit.
	fast := tlb == nil
	for bi := 0; bi < kind.Buffers(); bi++ {
		fast = fast && bufs[bi].linear
	}
	// A read-only scan of a hierarchy that starts empty reaches a steady
	// state after its first traversal, so under the conditions that
	// Hierarchy.repeatScan checks the later traversals are derived instead
	// of simulated; when they fail it changes nothing and the traversal is
	// simulated. A stride of at most one line touches every line of the
	// buffer's span.
	lineBytes := uint64(h.levels[0].cfg.LineBytes)
	derive := fast && kind == StreamSum && uint64(strideBytes) <= lineBytes && h.empty()
	firstLine := bufs[0].base / lineBytes
	scanLines := (bufs[0].base+uint64((iters-1)*strideBytes))/lineBytes - firstLine + 1
	for rep := 0; rep < simLoops; rep++ {
		tlbMissesBefore := tlb.Misses()
		if rep > 0 && derive && h.repeatScan(firstLine, scanLines, uint64(iters)) {
			if derivedHook != nil {
				derivedHook()
			}
		} else if fast {
			h.ResetStats()
			streamLinear(h, bufs, kind, iters, uint64(strideBytes))
		} else {
			h.ResetStats()
			off := 0
			access := func(phys uint64, write bool) {
				tlb.Access(phys / pageBytes)
				h.AccessRW(phys, write)
			}
			if tlb == nil {
				access = func(phys uint64, write bool) { h.AccessRW(phys, write) }
			}
			for i := 0; i < iters; i++ {
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
				off += strideBytes
			}
		}
		perLoopTLBMisses[rep] = tlb.Misses() - tlbMissesBefore
		fills := perLoopFills[rep]
		copy(fills, h.fills)
		fills[nLevels] = h.memFills
		traffic := perLoopTraffic[rep]
		for i := 0; i < nLevels; i++ {
			traffic[i] = h.fills[i] + h.writeTraffic[i]
		}

		repCycles[rep] = issuePerLoop + float64(perLoopTLBMisses[rep])*m.TLBMissCycles
		repBound[rep] = "issue"
		for i := 0; i < nLevels; i++ {
			cfg := h.Levels()[i].Config()
			tc := float64(traffic[i]) * float64(cfg.LineBytes) / cfg.FillBytesPerCycle
			if tc > repCycles[rep] {
				repCycles[rep] = tc
				repBound[rep] = cfg.Name
				if i == nLevels-1 {
					repBound[rep] = "mem"
				}
			}
		}
	}

	totalFills := make([]uint64, nLevels+1)
	totalTraffic := make([]uint64, nLevels)
	var totalCycles float64
	var totalTLBMisses uint64
	for rep := 0; rep < simLoops; rep++ {
		totalTLBMisses += perLoopTLBMisses[rep]
		for i := range perLoopFills[rep] {
			totalFills[i] += perLoopFills[rep][i]
		}
		for i := range perLoopTraffic[rep] {
			totalTraffic[i] += perLoopTraffic[rep][i]
		}
		totalCycles += repCycles[rep]
	}
	if extrapolate {
		extra := uint64(p.NLoops - simLoops)
		for i := range perLoopFills[simLoops-1] {
			totalFills[i] += perLoopFills[simLoops-1][i] * extra
		}
		for i := range perLoopTraffic[simLoops-1] {
			totalTraffic[i] += perLoopTraffic[simLoops-1][i] * extra
		}
		totalCycles += repCycles[simLoops-1] * float64(extra)
		totalTLBMisses += perLoopTLBMisses[simLoops-1] * extra
	}

	res := KernelResult{
		Accesses:    uint64(iters*perIter) * uint64(p.NLoops),
		Fills:       totalFills,
		Cycles:      totalCycles,
		BoundBy:     repBound[simLoops-1],
		IssueCycles: float64(iters*perIter) * float64(p.NLoops) * cpa,
		TLBMisses:   totalTLBMisses,
	}
	res.TransferCycles = make([]float64, nLevels)
	for i := 0; i < nLevels; i++ {
		cfg := h.Levels()[i].Config()
		res.TransferCycles[i] = float64(totalTraffic[i]) * float64(cfg.LineBytes) / cfg.FillBytesPerCycle
	}
	return res, nil
}

// derivedHook, when set, is called each time RunStream derives a traversal
// instead of simulating it.
var derivedHook func()

// streamLinear issues one traversal of kind over physically linear
// buffers. An iteration is the kernel's loads followed by its store, and
// consecutive iterations whose accesses stay in the same L1 lines form a
// run: its first iteration walks the hierarchy, and the rest are L1 hits
// applied in closed form (Hierarchy.AccessRun for the one-access sum
// kernel, Hierarchy.repeatL1 for copy and triad) — or, when the run's own
// lines evicted each other from L1, issued access by access.
func streamLinear(h *Hierarchy, bufs []*Buffer, kind StreamKind, iters int, strideBytes uint64) {
	var addrs [3]uint64
	var writes [3]bool
	switch kind {
	case StreamSum:
		addrs[0] = bufs[0].base
	case StreamCopy:
		addrs[0], addrs[1] = bufs[1].base, bufs[0].base
		writes[1] = true
	case StreamTriad:
		addrs = [3]uint64{bufs[1].base, bufs[2].base, bufs[0].base}
		writes[2] = true
	}
	reads, stores := kind.accessesPerIteration()
	group, groupWrites := addrs[:reads+stores], writes[:reads+stores]
	lineBytes := uint64(h.levels[0].cfg.LineBytes)
	for left := uint64(iters); left > 0; {
		// n = iterations until some access of the group leaves its line.
		n := uint64(1)
		if strideBytes < lineBytes {
			n = left
			for _, a := range group {
				n = min(n, (lineBytes-a%lineBytes+strideBytes-1)/strideBytes)
			}
		}
		if len(group) == 1 {
			h.AccessRun(group[0], groupWrites[0], int(n))
		} else {
			for j, a := range group {
				h.AccessRW(a, groupWrites[j])
			}
			if n > 1 && !h.repeatL1(group, groupWrites, n-1) {
				for r := uint64(1); r < n; r++ {
					for j, a := range group {
						h.AccessRW(a+r*strideBytes, groupWrites[j])
					}
				}
			}
		}
		for j := range group {
			group[j] += n * strideBytes
		}
		left -= n
	}
}
