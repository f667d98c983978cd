package main

import (
	"context"
	"math"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// phase is one timed closed loop: its jobs and the process's resource use
// over them. The loop runs in slices with a calibration before each one and
// after the last; the counters and the resident-set samples cover the
// slices only.
type phase struct {
	traced     bool
	jobs       []jobOutcome
	slices     []sliceStat
	used       usage // summed over the slices; used.at is unset
	wallS      float64
	latencyMs  []float64
	records    int
	storeBytes int64
	// rssMB holds the resident set size sampled every 10 ms.
	rssMB []float64
}

// sliceStat is one slice of a phase: its jobs (the next jobs of the
// phase's list), what they used, and the calibration taken before it; the
// next calibration in the run follows it.
type sliceStat struct {
	jobs    int
	records int
	used    usage
	cal     int
}

// sliceDur is the length of the closed loop between two calibrations.
const sliceDur = 3 * time.Second

// measure runs the instance's clients in a closed loop until dur of slices
// has passed; every client finishes at least one job in every slice, and a
// slice ends when its last job does. Before each slice and after the last
// it adds a calibration to sp. Jobs are numbered from firstSeq on.
func measure(ctx context.Context, inst instance, dur time.Duration, tr *tracer, firstSeq int, sp *speed) phase {
	// Return what set-up left behind to the OS, so the phase's resident
	// set is its own.
	debug.FreeOSMemory()
	ph := phase{traced: tr != nil}
	next := firstSeq
	for elapsed := time.Duration(0); elapsed < dur && ctx.Err() == nil; {
		cal := sp.calibrate()
		stop, rss := sampleRSS()
		before := sampleUsage()
		// Spread the clients over the last slice's median job.
		var stagger time.Duration
		if n := len(ph.jobs); n > 0 {
			var last []float64
			for _, o := range ph.jobs[n-ph.slices[len(ph.slices)-1].jobs:] {
				last = append(last, float64(o.latency))
			}
			stagger = time.Duration(median(last)) / time.Duration(inst.clients())
		}
		jobs := slice(ctx, inst, min(sliceDur, dur-elapsed), stagger, tr, &next)
		after := sampleUsage()
		close(stop)
		ph.rssMB = append(ph.rssMB, <-rss...)
		st := sliceStat{jobs: len(jobs), used: after.minus(before), cal: cal}
		for _, o := range jobs {
			st.records += o.records
		}
		ph.jobs = append(ph.jobs, jobs...)
		ph.slices = append(ph.slices, st)
		ph.used = ph.used.plus(st.used)
		elapsed += st.used.wall
	}
	sp.calibrate()
	ph.wallS = ph.used.wall.Seconds()
	for _, o := range ph.jobs {
		ph.latencyMs = append(ph.latencyMs, float64(o.latency.Microseconds())/1000)
		ph.records += o.records
		ph.storeBytes += o.storeBytes
	}
	return ph
}

// slice runs the closed loop for dur, numbering jobs from *next on. Client
// k starts k×stagger after the slice does, so the clients do not all begin
// their jobs in step after each calibration.
func slice(ctx context.Context, inst instance, dur, stagger time.Duration, tr *tracer, next *int) []jobOutcome {
	var mu sync.Mutex
	var jobs []jobOutcome
	start := time.Now()
	var wg sync.WaitGroup
	for k := range inst.clients() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-time.After(time.Duration(k) * stagger):
			case <-ctx.Done():
				return
			}
			for first := true; first || time.Since(start) < dur; first = false {
				if ctx.Err() != nil {
					return
				}
				mu.Lock()
				seq := *next
				*next++
				mu.Unlock()
				o := inst.job(ctx, seq, tr)
				mu.Lock()
				jobs = append(jobs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return jobs
}

func (ph phase) perJob(v float64) float64 { return v / float64(len(ph.jobs)) }

func (ph phase) record() phaseRecord {
	r := phaseRecord{Traced: ph.traced, Jobs: len(ph.jobs), WallS: ph.wallS, Records: ph.records,
		JobP50Ms: quantile(ph.latencyMs, 0.5), JobP90Ms: quantile(ph.latencyMs, 0.9), JobMeanMs: mean(ph.latencyMs),
		RSSSamples: len(ph.rssMB), RSSMaxMB: quantile(ph.rssMB, 1), RSSP99MB: quantile(ph.rssMB, 0.99),
		LatenciesMs: ph.latencyMs}
	for _, o := range ph.jobs {
		if o.err != nil {
			r.Failed++
		}
	}
	for _, st := range ph.slices {
		r.Slices = append(r.Slices, sliceRecord{Jobs: st.jobs, Records: st.records, WallS: st.used.wall.Seconds(),
			CPUS: st.used.cpu.Seconds(), Calibration: st.cal})
	}
	return r
}

const mib = 1 << 20

// endToEnd is what a user of the system sees, measured with tracing off.
// Every timing is taken at the reference speed: multiplied by the factor
// of the calibrations on either side of the interval it was measured in
// (see calibrate.go). Throughput and CPU time are medians over the slices,
// so a stall that hits a few slices does not decide the figure. The peak
// resident set is the 90th percentile of the 10 ms samples, which the short
// spikes of a garbage collection that meets two jobs' largest decodes do
// not move.
// Costs are per job, so a faster host or a faster program that fits more
// jobs into the phase does not read as a regression. With a nil sp,
// endToEnd gives the raw figures.
func endToEnd(ph phase, setupS []float64, sp *speed) map[string]metric {
	factor := func(cal int) float64 {
		if sp == nil {
			return 1
		}
		return sp.factor(cal)
	}
	var rate, cpu, latency, setup []float64
	first := 0
	for _, st := range ph.slices {
		f := factor(st.cal)
		rate = append(rate, float64(st.records)/(st.used.wall.Seconds()*f))
		cpu = append(cpu, st.used.cpu.Seconds()*f/float64(max(st.jobs, 1)))
		for _, ms := range ph.latencyMs[first : first+st.jobs] {
			latency = append(latency, ms*f)
		}
		first += st.jobs
	}
	// Set-up r follows calibration r; the next calibration ends it.
	for r, s := range setupS {
		setup = append(setup, s*factor(r))
	}
	return map[string]metric{
		"records_per_s": {median(rate), "1/s"},
		"cpu_s":         {median(cpu), "s"},
		"alloc_mb":      {ph.perJob(float64(ph.used.alloc) / mib), "MiB"},
		"peak_rss_mb":   {quantile(ph.rssMB, 0.9), "MiB"},
		"store_mb":      {ph.perJob(float64(ph.storeBytes) / mib), "MiB"},
		"setup_s":       {median(setup), "s"},
		"job_p50_ms":    {quantile(latency, 0.5), "ms"},
		"job_p90_ms":    {quantile(latency, 0.9), "ms"},
	}
}

// perLayer is the traced decomposition, per traced job. GC figures come
// from the untraced phase, whose allocation is the program's own.
func perLayer(untraced phase, s traceSummary) map[string]metric {
	jobs := float64(max(s.jobs, 1))
	per := func(v float64) float64 { return v / jobs }
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	accesses := s.counts["memsim.accesses"]
	set("memsim.accesses", per(accesses), "count")
	set("memsim.ns_per_access", ratio(s.busyCPU["engine.membench.execute"]*1e9, accesses), "ns")
	engineWall := 0.0
	for _, e := range []string{"membench", "netbench", "collbench", "numabench", "cpubench"} {
		set("engine."+e+".execute_s", per(s.busyS["engine."+e+".execute"]), "s")
		set("engine."+e+".trials", per(s.counts["engine."+e+".trials"]), "count")
		engineWall += s.busyS["engine."+e+".execute"]
	}
	set("suite.plan_s", per(s.spanS["suite.plan"]), "s")
	run := s.spanS["runner.run"]
	set("runner.run_s", per(run), "s")
	// Cold jobs drive sinks only from the runner, warm probes only from
	// Entry.Replay; overhead is runner time beyond engines and sinks.
	overhead := 0.0
	if run > 0 {
		overhead = max(run-engineWall-s.busyS["runner.sink"], 0)
	}
	set("runner.overhead_s", per(overhead), "s")
	set("runner.sink_s", per(s.busyS["runner.sink"]), "s")
	set("runner.sink_mb", per(s.counts["runner.sink_bytes"])/mib, "MiB")
	set("suite.store_s", per(s.spanS["suite.store"]), "s")
	set("store.put_s", per(s.spanS["store.put"]), "s")
	set("store.log_mb", per(s.counts["store.log_bytes"])/mib, "MiB")
	set("suite.lookups", per(s.counts["suite.lookups"]), "count")
	set("suite.hit_ratio", ratio(s.counts["suite.hits"], s.counts["suite.lookups"]), "ratio")
	set("suite.load_s", per(s.spanS["suite.load"]), "s")
	set("store.get_s", per(s.spanS["store.get"]), "s")
	set("suite.replay_s", per(s.spanS["suite.replay"]), "s")
	set("adapt.rounds", per(s.counts["adapt.rounds"]), "count")
	set("adapt.trials", per(s.counts["adapt.trials"]), "count")
	set("serve.submit_ms", per(s.spanS["serve.submit"])*1000, "ms")
	set("serve.wait_ms", per(s.spanS["serve.wait"])*1000, "ms")
	set("serve.fetch_ms", per(s.spanS["serve.fetch"])*1000, "ms")
	set("serve.fetch_mb", per(s.counts["serve.fetch_bytes"])/mib, "MiB")
	set("serve.polls", per(s.counts["serve.polls"]), "count")
	set("go.gc_cpu_s", untraced.perJob(untraced.used.gcCPU), "s")
	set("go.gc_cycles", untraced.perJob(float64(untraced.used.gcCycles)), "count")
	for _, layer := range []string{"bench", "suite", "runner", "engine", "store", "adapt", "serve"} {
		set("self."+layer+"_s", per(s.selfS[layer]), "s")
	}
	untracedJob := mean(untraced.latencyMs) / 1000
	set("trace.coverage", ratio(per(s.coveredS), untracedJob), "ratio")
	set("trace.overhead_s", per(s.jobS)-untracedJob, "s")
	set("trace.jobs", float64(s.jobs), "count")
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}
