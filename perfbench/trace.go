package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer keeps spans in memory, one per call the benchmark makes into a
// layer, and writes them out when the run ends. A nil *tracer records
// nothing, so the untraced path pays one nil check per boundary.
//
// Work too fine-grained for a span of its own (an engine's Execute per
// trial, a sink's Write per record) is summed into the enclosing span as
// busy time, keyed by the layer it belongs to, together with the number of
// goroutines that did it in parallel.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root
	Root   int     `json:"root"`
	Job    int     `json:"job"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	// Busy is per-trial or per-record time inside the span by layer name,
	// summed over the Workers[layer] goroutines that spent it in parallel.
	Busy    map[string]float64 `json:"busy_s,omitempty"`
	Workers map[string]int     `json:"workers,omitempty"`
	// Counts are work counters measured at this boundary.
	Counts map[string]float64 `json:"counts,omitempty"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// root opens a root span for job: "job" spans the job as its client sees
// it, "probe" holds the layer calls the benchmark replays beside it.
func (t *tracer) root(job int, name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: -1, Root: id, Job: job, Name: name, Start: t.now()})
	return id
}

// begin opens a child span of parent.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Root: p.Root, Job: p.Job, Name: name, Start: t.now()})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = t.now()
}

// count adds v to the span's counter key.
func (t *tracer) count(id int, key string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	if s.Counts == nil {
		s.Counts = map[string]float64{}
	}
	s.Counts[key] += v
}

// busy records per-trial or per-record time spent inside the span by
// workers goroutines in parallel.
func (t *tracer) busy(id int, layer string, seconds float64, workers int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	if s.Busy == nil {
		s.Busy, s.Workers = map[string]float64{}, map[string]int{}
	}
	s.Busy[layer] += seconds
	s.Workers[layer] = workers
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerOf names the repository layer a span or busy key belongs to: the
// first dotted component ("suite.plan" → "suite"), with the benchmark's own
// roots as "bench".
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "bench"
}

// interval is a closed time range in seconds since the tracer's start.
type interval struct{ lo, hi float64 }

// unionLen is the total length covered by the intervals, each clipped to
// within.
func unionLen(ivs []interval, within interval) float64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		lo, hi := max(iv.lo, within.lo), min(iv.hi, within.hi)
		if hi > lo {
			clipped = append(clipped, interval{lo, hi})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	total, cur := 0.0, interval{-1, -1}
	for _, iv := range clipped {
		if iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
			continue
		}
		cur.hi = max(cur.hi, iv.hi)
	}
	return total + cur.hi - cur.lo
}

// traceSummary is the per-layer accounting of a traced phase.
type traceSummary struct {
	// jobs is the number of "job" roots.
	jobs int
	// spanS sums span durations by span name; busyS sums busy time by
	// layer key divided by its parallelism (wall-equivalent seconds);
	// busyCPU sums it undivided; counts sums counters by key.
	spanS, busyS, busyCPU, counts map[string]float64
	// selfS is each layer's self time: span duration minus the time its
	// child spans cover, minus wall-equivalent busy time of other layers.
	// Spans named "*.wait" (for the worker budget, for the server) are
	// time spent waiting on another party: they cover time but are no
	// layer's self time.
	selfS map[string]float64
	// coveredS is the time within "job" roots that child spans cover;
	// jobS is the total duration of "job" roots.
	coveredS, jobS float64
}

func summarize(spans []span) traceSummary {
	s := traceSummary{spanS: map[string]float64{}, busyS: map[string]float64{}, busyCPU: map[string]float64{},
		counts: map[string]float64{}, selfS: map[string]float64{}}
	children := map[int][]interval{}
	rootDesc := map[int][]interval{}
	for _, sp := range spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], interval{sp.Start, sp.End})
			rootDesc[sp.Root] = append(rootDesc[sp.Root], interval{sp.Start, sp.End})
		}
	}
	for _, sp := range spans {
		dur := sp.End - sp.Start
		s.spanS[sp.Name] += dur
		self := dur - unionLen(children[sp.ID], interval{sp.Start, sp.End})
		for layer, b := range sp.Busy {
			wall := b / float64(max(sp.Workers[layer], 1))
			s.busyS[layer] += wall
			s.busyCPU[layer] += b
			if layerOf(layer) != layerOf(sp.Name) {
				self -= wall
				s.selfS[layerOf(layer)] += wall
			}
		}
		if !strings.HasSuffix(sp.Name, ".wait") {
			s.selfS[layerOf(sp.Name)] += max(self, 0)
		}
		for k, v := range sp.Counts {
			s.counts[k] += v
		}
		if sp.Parent < 0 && sp.Name == "job" {
			s.jobs++
			s.jobS += dur
			s.coveredS += unionLen(rootDesc[sp.ID], interval{sp.Start, sp.End})
		}
	}
	return s
}
