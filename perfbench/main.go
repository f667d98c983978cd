// Command perfbench is the repository benchmark: three closed-loop
// workloads that drive the pipeline through its public entry points, time
// it end to end with tracing off, and, with --trace 1, decompose the same
// jobs layer by layer. Every output byte is checked. NOTES.md records why
// each workload exists, what each metric should move, and the spreads the
// bounds in BENCHMARK.json rest on.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload mem-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics. A run record (host fingerprint, speed probe,
// sample counts, reference digests, failures) and, for traced runs, the
// spans are written under --out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	size     size
	// workers is the worker budget and the warm-served client count:
	// GOMAXPROCS, which is the CPU count unless the environment caps it.
	workers int
	// out holds run records; work is this run's scratch directory.
	out, work string
	faults    faults
}

// setups is how many times a run sets up; setup_s is their median, so work
// moved into set-up shows without one slow set-up deciding the figure.
const setups = 3

// faults injects failures at given job sequence numbers so the tests can
// prove they are counted. The zero value injects nothing.
type faults struct {
	corruptJob, missJob *int
}

func (f faults) corrupt(seq int) bool { return f.corruptJob != nil && *f.corruptJob == seq }
func (f faults) miss(seq int) bool    { return f.missJob != nil && *f.missJob == seq }

// instance is one set-up workload: a closed loop of jobs run by clients()
// clients, each starting its next job when the previous one ends.
type instance interface {
	clients() int
	job(ctx context.Context, seq int, tr *tracer) jobOutcome
	reference() digestSet
	close() error
}

// jobOutcome is one job, the unit of "attempted" and "failed".
type jobOutcome struct {
	latency    time.Duration
	records    int
	storeBytes int64
	digests    digestSet
	err        error
}

// workloads maps each --workload name to its set-up.
var workloads = map[string]func(ctx context.Context, cfg *config, rep int) (instance, error){
	"mem-cold": func(ctx context.Context, cfg *config, rep int) (instance, error) {
		return setupCold(ctx, cfg, memSpec(cfg.seed, cfg.size, cfg.workers), rep)
	},
	"light-cold": func(ctx context.Context, cfg *config, rep int) (instance, error) {
		return setupCold(ctx, cfg, lightPool(cfg.seed, cfg.size, cfg.workers), rep)
	},
	"warm-served": func(ctx context.Context, cfg *config, rep int) (instance, error) {
		return setupWarm(ctx, cfg, lightPool(cfg.seed, cfg.size, cfg.workers), rep)
	},
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: mem-cold, light-cold or warm-served")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced layer decomposition and reports per-layer metrics")
	sizeName := fs.String("size", "full", "input size: full, or tiny for smoke runs")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for run records and scratch data")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sz, ok := sizes[*sizeName]
	if _, known := workloads[*workload]; !known || !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, size %q, seconds %g, trace %d)\n", *workload, *sizeName, *seconds, *trace)
		return 2
	}
	cfg := &config{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, size: sz, workers: runtime.GOMAXPROCS(0), out: *out,
	}
	res, err := execute(ctx, cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is written beside every run.
type runRecord struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	Seconds  float64    `json:"seconds"`
	Trace    bool       `json:"trace"`
	Size     string     `json:"size"`
	Workers  int        `json:"workers"`
	Host     hostRecord `json:"host"`
	ProbeMs  [2]float64 `json:"speed_probe_ms_before_after"`
	// Calibrations lists every calibration in run order: one before each
	// set-up, then one before each slice of the timed phases and one after
	// the last.
	Calibrations []calibration     `json:"calibrations"`
	SetupS       []float64         `json:"setup_s"`
	Phases       []phaseRecord     `json:"phases"`
	Reference    digestSet         `json:"reference"`
	Failures     []string          `json:"failures,omitempty"`
	Metrics      map[string]metric `json:"metrics"`
	// RawMetrics are the end-to-end metrics before scaling.
	RawMetrics map[string]metric `json:"raw_metrics,omitempty"`
	SpansFile  string            `json:"spans_file,omitempty"`
	StartedAt  time.Time         `json:"started_at"`
	FinishedAt time.Time         `json:"finished_at"`
}

type phaseRecord struct {
	Traced    bool    `json:"traced"`
	Jobs      int     `json:"jobs"`
	Failed    int     `json:"failed"`
	WallS     float64 `json:"wall_s"`
	Records   int     `json:"records"`
	JobP50Ms  float64 `json:"job_p50_ms"`
	JobP90Ms  float64 `json:"job_p90_ms"`
	JobMeanMs float64 `json:"job_mean_ms"`
	// RSSP99MB and RSSMaxMB summarize the RSSSamples resident-set samples
	// taken every 10 ms; peak_rss_mb is their 90th percentile.
	RSSSamples int     `json:"rss_samples"`
	RSSP99MB   float64 `json:"rss_p99_mb"`
	RSSMaxMB   float64 `json:"rss_max_mb"`
	// LatenciesMs lists every job's latency in completion order, for
	// telling drift within a run from spread across runs.
	LatenciesMs []float64 `json:"latencies_ms"`
	// Slices lists the phase's slices; their jobs follow each other in
	// LatenciesMs.
	Slices []sliceRecord `json:"slices"`
}

// sliceRecord is one slice of a phase. Calibration indexes the run's
// calibration taken before it; the next one follows it.
type sliceRecord struct {
	Jobs        int     `json:"jobs"`
	Records     int     `json:"records"`
	WallS       float64 `json:"wall_s"`
	CPUS        float64 `json:"cpu_s"`
	Calibration int     `json:"calibration"`
}

func execute(ctx context.Context, cfg *config, stdout io.Writer) (*result, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(cfg.out, "runs"), 0o777); err != nil {
		return nil, err
	}
	if cfg.work, err = os.MkdirTemp(cfg.out, "work-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.work)
	rec := runRecord{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Trace: cfg.trace,
		Size: cfg.size.name, Workers: cfg.workers, StartedAt: time.Now().UTC()}
	rec.Host = fingerprint(root)
	rec.ProbeMs[0] = speedProbe()
	fmt.Fprintf(stdout, "perfbench: %s seed %d, %s, %d CPUs, GOMAXPROCS %d, %s, commit %s, speed probe %.1f ms\n",
		cfg.workload, cfg.seed, rec.Host.CPUModel, rec.Host.NumCPU, rec.Host.GOMAXPROCS, rec.Host.GoVersion, rec.Host.Commit, rec.ProbeMs[0])

	var failures []string
	fail := func(what string, err error) {
		failures = append(failures, fmt.Sprintf("%s: %v", what, err))
	}
	// Set up several times and keep the last instance; setup_s is the
	// median. Every set-up is one checked operation.
	var inst instance
	sp, err := newSpeed(cfg.workers)
	if err != nil {
		return nil, err
	}
	defer sp.close()
	for rep := range setups {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		sp.calibrate()
		start := time.Now()
		inst, err = workloads[cfg.workload](ctx, cfg, rep)
		rec.SetupS = append(rec.SetupS, time.Since(start).Seconds())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if rep == 0 {
			rec.Reference = inst.reference()
			if err := checkPinned(cfg.workload, cfg.seed, cfg.size, rec.Reference); err != nil {
				fail("set-up 0", err)
			}
		} else if err := rec.Reference.mismatch(inst.reference()); err != nil {
			fail(fmt.Sprintf("set-up %d", rep), err)
		}
	}
	attempted := setups

	var phases []phase
	var tr *tracer
	if !cfg.trace {
		phases = append(phases, measure(ctx, inst, cfg.seconds, nil, 0, sp))
	} else {
		tr = newTracer()
		untraced := measure(ctx, inst, cfg.seconds/2, nil, 0, sp)
		phases = append(phases, untraced, measure(ctx, inst, cfg.seconds/2, tr, len(untraced.jobs), sp))
	}
	err = inst.close()
	if err != nil {
		return nil, err
	}
	for _, ph := range phases {
		for i, o := range ph.jobs {
			if o.err != nil {
				fail(fmt.Sprintf("job %d", attempted-setups+i), o.err)
			}
		}
		attempted += len(ph.jobs)
		rec.Phases = append(rec.Phases, ph.record())
	}
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}

	rec.Calibrations = sp.cals
	var metrics map[string]metric
	if !cfg.trace {
		metrics = endToEnd(phases[0], rec.SetupS, sp)
		rec.RawMetrics = endToEnd(phases[0], rec.SetupS, nil)
	} else {
		metrics = perLayer(phases[0], summarize(tr.snapshot()))
	}
	rec.Metrics = metrics
	rec.Failures = failures
	rec.ProbeMs[1] = speedProbe()
	rec.FinishedAt = time.Now().UTC()
	kind := "e2e"
	if cfg.trace {
		kind = "traced"
	}
	stem := filepath.Join(cfg.out, "runs", fmt.Sprintf("%s-seed%d-%s-%d", cfg.workload, cfg.seed, kind, rec.StartedAt.UnixNano()))
	if tr != nil {
		rec.SpansFile = stem + "-spans.json"
		if err := writeJSON(rec.SpansFile, tr.snapshot()); err != nil {
			return nil, err
		}
	}
	if err := writeJSON(stem+".json", rec); err != nil {
		return nil, err
	}
	for i, f := range failures {
		if i == 10 {
			fmt.Fprintf(stdout, "perfbench: ... %d more failures in %s.json\n", len(failures)-i, stem)
			break
		}
		fmt.Fprintln(stdout, "perfbench: FAILED", f)
	}
	last := rec.Phases[len(rec.Phases)-1]
	fmt.Fprintf(stdout, "perfbench: %d jobs in %d slices, %.1f s (raw p50 %.1f ms, p90 %.1f ms), raw set-up %v s, %d calibrations, record %s.json\n",
		last.Jobs, len(last.Slices), last.WallS, last.JobP50Ms, last.JobP90Ms, rec.SetupS, len(rec.Calibrations), stem)
	return &result{Correct: len(failures) == 0, Attempted: attempted, Failed: len(failures), Metrics: metrics}, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o666)
}
