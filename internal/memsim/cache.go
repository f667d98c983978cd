// Package memsim simulates the memory hierarchies of the paper's Figure 5
// machines: set-associative caches with LRU replacement indexed by physical
// address, a physical-page allocator, a load-issue model capturing
// vectorization and loop unrolling, and an executor for the MultiMAPS-style
// access kernel of Figure 6.
//
// Timing follows a streaming roofline: the cycles for a kernel run are the
// maximum of the load-issue time and the line-transfer time of each cache
// interface. This captures the paper's observation that the L1-size
// performance drop is invisible while the demand rate stays below the
// downstream bandwidth (Section IV.1) while still letting conflict misses —
// e.g. from unlucky physical page placement on ARM (Section IV.4) — emerge
// from genuine set-index collisions.
package memsim

import (
	"fmt"
	"math/bits"
	"slices"
)

// Replacement selects the victim-choice policy of a cache level.
type Replacement int

const (
	// LRU evicts the least-recently-used way (the default; what the
	// Figure 5 machines implement).
	LRU Replacement = iota
	// RandomReplacement evicts a pseudo-random way. Provided for the
	// ablation of Section IV.4: random replacement converts the sharp,
	// placement-dependent thrashing cliff into a gradual miss gradient.
	RandomReplacement
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	// Name is a human label such as "L1" or "L2".
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the set associativity.
	Ways int
	// LineBytes is the cache line size.
	LineBytes int
	// FillBytesPerCycle is the bandwidth of the interface that fills this
	// level from the next one down (or from memory for the last level).
	FillBytesPerCycle float64
	// Replacement selects the victim policy (default LRU).
	Replacement Replacement
}

// Sets returns the number of sets.
func (c CacheConfig) Sets() int {
	return c.SizeBytes / (c.Ways * c.LineBytes)
}

// Validate checks geometric consistency.
func (c CacheConfig) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("memsim: %s: non-positive geometry %+v", c.Name, c)
	}
	if c.SizeBytes%(c.Ways*c.LineBytes) != 0 {
		return fmt.Errorf("memsim: %s: size %d not divisible by ways*line (%d*%d)", c.Name, c.SizeBytes, c.Ways, c.LineBytes)
	}
	if c.FillBytesPerCycle <= 0 {
		return fmt.Errorf("memsim: %s: non-positive fill bandwidth", c.Name)
	}
	return nil
}

// replRNGSeed is the initial xorshift state for RandomReplacement victim
// draws; shared by NewCache and Flush so both start identical streams.
const replRNGSeed = 0x9e3779b97f4a7c15

// way is one cache way. key packs the tag with the way's state bits,
// tag<<2 | dirty<<1 | valid, so a lookup compares one word per way and a
// set's ways are one contiguous run of 16-byte entries. An invalid way
// always has age 0 (NewCache and materialize zero it), so the LRU victim
// search — the first way of minimum age — picks the first invalid way
// without a separate validity test.
type way struct {
	key uint64
	age uint64
}

const (
	wayValid = 1
	wayDirty = 2
)

// Cache is one set-associative cache level with LRU replacement.
type Cache struct {
	cfg  CacheConfig
	sets int
	// ways[set*Ways+w] is way w of set.
	ways []way
	tick uint64
	// rng is a tiny xorshift state for RandomReplacement victims; it is
	// deterministic so experiments stay reproducible.
	rng uint64

	// pow2 marks a geometry whose line size and set count are both powers
	// of two (every Figure 5 machine), letting the address split run as
	// shifts and masks instead of three integer divisions — the single
	// hottest operation of a simulated campaign.
	pow2      bool
	lineShift uint
	setShift  uint
	setMask   uint64

	// epoch/setEpoch implement O(1) Flush: Flush bumps epoch, and a set
	// whose setEpoch lags is cleared lazily on first touch. Indexed-mode
	// campaigns flush the whole hierarchy before every trial, so an eager
	// sweep over all lines (131072 for an 8 MB L3) would dominate small
	// kernels.
	epoch    uint64
	setEpoch []uint64

	// mruLine/mruIdx remember the last line hit or installed, giving
	// strided-sequential kernels — which touch one line several times
	// before moving on — a same-line fast path that skips the set scan.
	// The entry is consistent by construction: evicting the MRU line
	// installs its replacement into the same slot, which updates the MRU
	// to that replacement, and a Flush bumps epoch past mruEpoch.
	mruLine  uint64
	mruIdx   int
	mruEpoch uint64

	hits, misses, writebacks uint64
}

// NewCache builds a cache from a validated config.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Sets()
	n := sets * cfg.Ways
	c := &Cache{
		cfg:      cfg,
		sets:     sets,
		ways:     make([]way, n),
		rng:      replRNGSeed,
		setEpoch: make([]uint64, sets),
		mruEpoch: ^uint64(0), // no MRU entry yet
	}
	if lb, s := uint64(cfg.LineBytes), uint64(sets); lb&(lb-1) == 0 && s&(s-1) == 0 {
		c.pow2 = true
		c.lineShift = uint(bits.TrailingZeros64(lb))
		c.setShift = uint(bits.TrailingZeros64(s))
		c.setMask = s - 1
	}
	return c, nil
}

// locate splits a physical address into its line, set and tag. The pow2
// path is bit-for-bit identical to the division path: line/2^k == line>>k
// and line%2^k == line&(2^k-1) for non-negative integers.
func (c *Cache) locate(phys uint64) (set int, tag uint64) {
	if c.pow2 {
		line := phys >> c.lineShift
		return int(line & c.setMask), line >> c.setShift
	}
	line := phys / uint64(c.cfg.LineBytes)
	return int(line % uint64(c.sets)), line / uint64(c.sets)
}

// materialize lazily applies a pending Flush to one set: if the set was
// last touched in an earlier epoch, its ways are invalidated now.
func (c *Cache) materialize(set int) {
	if c.setEpoch[set] == c.epoch {
		return
	}
	clear(c.ways[set*c.cfg.Ways : (set+1)*c.cfg.Ways])
	c.setEpoch[set] = c.epoch
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Access looks up the line containing physical address phys; on a miss the
// line is installed, evicting the LRU way. It reports whether the access hit.
func (c *Cache) Access(phys uint64) bool {
	hit, _, _ := c.AccessRW(phys, false)
	return hit
}

// AccessRW is Access with store semantics: a write marks the line dirty
// (write-allocate on a miss). When a dirty victim is evicted, the method
// reports it together with the victim's line address so the caller can
// propagate the writeback to the next level.
func (c *Cache) AccessRW(phys uint64, write bool) (hit bool, evictedDirty bool, evictedLine uint64) {
	if c.mruHit(phys, write) {
		return true, false, 0
	}
	set, tag := c.locate(phys)
	c.materialize(set)
	base := set * c.cfg.Ways
	ways := c.ways[base : base+c.cfg.Ways]
	c.tick++
	want := tag<<2 | wayValid
	victim := 0
	victimAge := ^uint64(0)
	for w := range ways {
		if ways[w].key&^wayDirty == want {
			ways[w].age = c.tick
			if write {
				ways[w].key |= wayDirty
			}
			c.hits++
			c.noteMRU(phys, base+w)
			return true, false, 0
		}
		if ways[w].age < victimAge {
			victim = w
			victimAge = ways[w].age
		}
	}
	if victimAge != 0 && c.cfg.Replacement == RandomReplacement {
		c.rng ^= c.rng << 13
		c.rng ^= c.rng >> 7
		c.rng ^= c.rng << 17
		victim = int(c.rng % uint64(c.cfg.Ways))
	}
	v := &ways[victim]
	if v.key&(wayValid|wayDirty) == wayValid|wayDirty {
		evictedDirty = true
		evictedLine = ((v.key>>2)*uint64(c.sets) + uint64(set)) * uint64(c.cfg.LineBytes)
		c.writebacks++
	}
	v.key = want
	if write {
		v.key |= wayDirty
	}
	v.age = c.tick
	c.misses++
	c.noteMRU(phys, base+victim)
	return false, evictedDirty, evictedLine
}

// mruHit services an access to the most recently touched line without the
// set scan. The bookkeeping is the exact hit path of the scan: LRU age
// refresh, dirty marking, hit count.
func (c *Cache) mruHit(phys uint64, write bool) bool {
	if c.mruEpoch != c.epoch || phys>>c.lineShift != c.mruLine || !c.pow2 {
		return false
	}
	c.tick++
	c.ways[c.mruIdx].age = c.tick
	if write {
		c.ways[c.mruIdx].key |= wayDirty
	}
	c.hits++
	return true
}

// noteMRU records the line just hit or installed as the MRU entry.
func (c *Cache) noteMRU(phys uint64, idx int) {
	if c.pow2 {
		c.mruLine = phys >> c.lineShift
		c.mruIdx = idx
		c.mruEpoch = c.epoch
	}
}

// find returns the index into ways of the line holding phys, or -1 when it
// is not cached. It touches no LRU state or counters.
func (c *Cache) find(phys uint64) int {
	if c.mruEpoch == c.epoch && c.pow2 && phys>>c.lineShift == c.mruLine {
		return c.mruIdx
	}
	set, tag := c.locate(phys)
	if c.setEpoch[set] != c.epoch {
		return -1 // set invalidated by a Flush not yet materialized
	}
	base := set * c.cfg.Ways
	want := tag<<2 | wayValid
	for w, e := range c.ways[base : base+c.cfg.Ways] {
		if e.key&^wayDirty == want {
			return base + w
		}
	}
	return -1
}

// Contains reports whether the line holding phys is currently cached,
// without touching LRU state or counters.
func (c *Cache) Contains(phys uint64) bool { return c.find(phys) >= 0 }

// Hits returns the number of hits since the last ResetStats.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the number of misses since the last ResetStats.
func (c *Cache) Misses() uint64 { return c.misses }

// Writebacks returns the number of dirty evictions since the last
// ResetStats.
func (c *Cache) Writebacks() uint64 { return c.writebacks }

// ResetStats clears the hit/miss/writeback counters but keeps contents.
func (c *Cache) ResetStats() { c.hits, c.misses, c.writebacks = 0, 0, 0 }

// Flush invalidates all lines and clears counters, returning the cache to
// its freshly-constructed state (including the victim-choice rng, so a
// flushed cache replays exactly like a new one). It runs in O(1): the
// invalidation is recorded as an epoch bump and applied to each set lazily
// on its next access.
func (c *Cache) Flush() {
	c.epoch++
	c.tick = 0
	c.rng = replRNGSeed
	c.ResetStats()
}

// Hierarchy is an ordered stack of cache levels (L1 first) in front of
// memory. All levels of one hierarchy share the L1 line size for fills.
type Hierarchy struct {
	levels []*Cache
	// fills[i] counts lines installed into level i since ResetStats.
	fills []uint64
	// writeTraffic[i] counts dirty lines written OUT of level i (crossing
	// the same interface the fills use).
	writeTraffic []uint64
	// memFills counts lines fetched from memory.
	memFills uint64
	accesses uint64
}

// NewHierarchy builds a hierarchy from level configs (L1 first).
func NewHierarchy(cfgs []CacheConfig) (*Hierarchy, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("memsim: hierarchy needs at least one level")
	}
	h := &Hierarchy{
		fills:        make([]uint64, len(cfgs)),
		writeTraffic: make([]uint64, len(cfgs)),
	}
	for _, cfg := range cfgs {
		c, err := NewCache(cfg)
		if err != nil {
			return nil, err
		}
		h.levels = append(h.levels, c)
	}
	return h, nil
}

// Levels returns the cache levels, L1 first.
func (h *Hierarchy) Levels() []*Cache { return h.levels }

// Access performs one load at physical address phys and returns the depth at
// which it was satisfied: 0 for L1, 1 for L2, ..., len(levels) for memory.
func (h *Hierarchy) Access(phys uint64) int {
	return h.AccessRW(phys, false)
}

// AccessRW performs one load or store. Stores are write-allocate at L1;
// dirty victims are written back into the next level (possibly cascading),
// and each writeback is charged to the interface it crosses.
func (h *Hierarchy) AccessRW(phys uint64, write bool) int {
	h.accesses++
	// Same-line L1 hits — the bulk of a strided-sequential kernel — skip
	// the level walk entirely.
	if h.levels[0].mruHit(phys, write) {
		return 0
	}
	depth := len(h.levels)
	for i, c := range h.levels {
		hit, evDirty, evLine := c.AccessRW(phys, write && i == 0)
		if evDirty {
			h.writeTraffic[i]++
			h.writeback(i+1, evLine)
		}
		if hit {
			depth = i
			break
		}
		h.fills[i]++
	}
	if depth == len(h.levels) {
		h.memFills++
	}
	return depth
}

// AccessRun performs n >= 1 consecutive accesses to the L1 line holding
// phys, all loads or all stores, and returns the depth of the first. Only
// the first walks the hierarchy; the other n-1 are same-line L1 hits,
// applied in closed form with exactly the bookkeeping n AccessRW calls
// would do (tick, LRU age, dirty bit, hit and access counts).
func (h *Hierarchy) AccessRun(phys uint64, write bool, n int) int {
	depth := h.AccessRW(phys, write)
	if n > 1 {
		// The line was just accessed, so it is in L1 and the repeat applies.
		h.repeatL1([]uint64{phys}, []bool{write}, uint64(n-1))
	}
	return depth
}

// repeatL1 applies k more repetitions of the access group addrs (at most
// three accesses, stores where writes says so), which has just been
// performed once, provided every line of the group is still in L1: each
// repetition is then one L1 hit per access, evicting nothing, so the whole
// run collapses to one tick, age, dirty and counter update per line. It
// reports false, and changes nothing, when some line of the group is no
// longer in L1 (the group's own lines conflicted in a set); the caller
// must then issue the repetitions access by access.
func (h *Hierarchy) repeatL1(addrs []uint64, writes []bool, k uint64) bool {
	c := h.levels[0]
	var idx [3]int
	for j, a := range addrs {
		if idx[j] = c.find(a); idx[j] < 0 {
			return false
		}
	}
	per := uint64(len(addrs))
	// Access j of the last repetition happens at tick start+(k-1)*per+j+1;
	// assigning in group order lets a line accessed twice keep the later
	// tick.
	last := c.tick + (k-1)*per
	for j := range addrs {
		e := &c.ways[idx[j]]
		e.age = last + uint64(j) + 1
		if writes[j] {
			e.key |= wayDirty
		}
	}
	c.tick += k * per
	c.hits += k * per
	h.accesses += k * per
	return true
}

// empty reports whether no level has been accessed since it was built or
// flushed, so every level holds no line.
func (h *Hierarchy) empty() bool {
	for _, c := range h.levels {
		if c.tick != 0 {
			return false
		}
	}
	return true
}

// repeatScan derives a traversal instead of simulating it. It applies to a
// read-only scan that touches every line of [first, first+lines) once per
// traversal, in ascending order (consecutive accesses to one line count as
// one touch), with accesses accesses in all, on a hierarchy that was empty
// before the scan's first traversal and has just finished a traversal of
// it, simulated or derived. When it reports true it has put h, counters
// included, in exactly the state one more traversal would leave. When it
// reports false it has changed nothing and the traversal must be
// simulated.
//
// Why this is exact. Under LRU the lines a set holds after a traversal,
// and their recency order, depend on the state before it only through the
// lines the traversal did not reach in that set; so applying one access
// stream twice leaves the same recency state as applying it once. A set
// that holds m of the scan's lines therefore starts every traversal after
// the first holding min(m, ways) of them, the last ones scanned: with
// m <= ways every touch hits, and with m > ways every first touch of a
// line misses, because the line was evicted since it was last touched.
// L1 sees the scan itself. A lower level sees the miss stream of the level
// above: every line when every set above thrashes, none when none does.
// Starting empty, every level saw every line in the first traversal, so a
// level reached now sees the same stream again and the argument carries
// down. A level above the last whose sets partly thrash passes on only
// some lines, after which a lower level's state no longer follows; that
// case, a random-replacement level (its victim draws advance) and unequal
// line sizes (the line sets differ between levels) report false.
//
// What changes in the traversal. Each reached level's tick advances by the
// accesses it sees; a line touched is touched at the same point of the
// level's stream as in the traversal before, so its age advances by the
// same amount. In a thrashing set each miss moves the least recent way to
// the most recent end, so over one traversal the ways' recency order turns
// by m, which moves the line in way w to way (w+m) mod ways.
func (h *Hierarchy) repeatScan(first, lines, accesses uint64) bool {
	lineBytes := h.levels[0].cfg.LineBytes
	for _, c := range h.levels {
		if c.cfg.Replacement != LRU || c.cfg.LineBytes != lineBytes {
			return false
		}
	}
	reached := 0
	for i, c := range h.levels {
		reached = i + 1
		if m := c.scanMisses(lines); m == 0 || i == len(h.levels)-1 {
			break
		} else if m != lines {
			return false
		}
	}
	h.ResetStats()
	h.accesses = accesses
	seen := accesses
	for i, c := range h.levels[:reached] {
		c.repeatScan(first, lines, seen)
		c.misses = c.scanMisses(lines)
		c.hits = seen - c.misses
		h.fills[i] = c.misses
		seen = c.misses
	}
	if reached == len(h.levels) {
		h.memFills = seen
	}
	return true
}

// scanMisses returns how many of a steady scan's lines miss in one
// traversal: all those of the sets that hold more of the scan's lines
// than the level has ways. A scan of lines consecutive lines puts q+1 of
// them in r = lines mod sets sets and q = lines / sets in the others it
// reaches.
func (c *Cache) scanMisses(lines uint64) uint64 {
	sets, ways := uint64(c.sets), uint64(c.cfg.Ways)
	q, r := lines/sets, lines%sets
	var misses uint64
	if q+1 > ways {
		misses += r * (q + 1)
	}
	if q > ways {
		misses += (min(lines, sets) - r) * q
	}
	return misses
}

// repeatScan is the per-level half of Hierarchy.repeatScan: it moves the
// ways and ages. delta is the number of accesses the level sees in the
// traversal, the same number it saw in the one before.
func (c *Cache) repeatScan(first, lines, delta uint64) {
	sets, ways := uint64(c.sets), uint64(c.cfg.Ways)
	start := c.tick - delta
	q, r := lines/sets, lines%sets
	for d := uint64(0); d < min(lines, sets); d++ {
		set := (first + d) % sets
		base := int(set * ways)
		ws := c.ways[base : base+int(ways)]
		for w := range ws {
			// Invalid ways have age 0, so only lines touched in the last
			// traversal pass.
			if ws[w].age > start {
				ws[w].age += delta
			}
		}
		m := q
		if d < r {
			m++
		}
		if m <= ways {
			continue
		}
		turn := int(m % ways)
		// Rotating right by turn moves way w to (w+turn) mod ways.
		slices.Reverse(ws)
		slices.Reverse(ws[:turn])
		slices.Reverse(ws[turn:])
		if c.mruEpoch == c.epoch && c.mruIdx >= base && c.mruIdx < base+int(ways) {
			c.mruIdx = base + (c.mruIdx-base+turn)%int(ways)
		}
	}
	c.tick += delta
}

// writeback installs a dirty line into level j (or memory when j is past
// the last level), cascading any dirty victim it displaces.
func (h *Hierarchy) writeback(j int, lineAddr uint64) {
	if j >= len(h.levels) {
		return // absorbed by memory
	}
	_, evDirty, evLine := h.levels[j].AccessRW(lineAddr, true)
	if evDirty {
		h.writeTraffic[j]++
		h.writeback(j+1, evLine)
	}
}

// WriteTraffic returns a copy of the per-level dirty-eviction counters.
func (h *Hierarchy) WriteTraffic() []uint64 {
	return append([]uint64(nil), h.writeTraffic...)
}

// Accesses returns the number of accesses since the last ResetStats.
func (h *Hierarchy) Accesses() uint64 { return h.accesses }

// Fills returns a copy of the per-level fill counters; the extra final
// element counts fetches from memory.
func (h *Hierarchy) Fills() []uint64 {
	out := make([]uint64, len(h.fills)+1)
	copy(out, h.fills)
	out[len(h.fills)] = h.memFills
	return out
}

// ResetStats clears all counters but keeps cache contents.
func (h *Hierarchy) ResetStats() {
	h.accesses = 0
	h.memFills = 0
	for i := range h.fills {
		h.fills[i] = 0
		h.writeTraffic[i] = 0
	}
	for _, c := range h.levels {
		c.ResetStats()
	}
}

// Flush invalidates every level.
func (h *Hierarchy) Flush() {
	for _, c := range h.levels {
		c.Flush()
	}
	h.ResetStats()
}
