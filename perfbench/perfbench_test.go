package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec reads the metric declarations of the repository's
// BENCHMARK.json.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not have", w.Name)
		}
	}
	return endToEnd, perLayer
}

// TestSmokeEmitsEveryMetric runs every workload at tiny size, untraced and
// traced, through the command line, and checks the last output line: every
// declared metric with its unit, and no failed operation.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	endToEnd, perLayer := benchmarkSpec(t)
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", name, "--seed", "7", "--seconds", "0.3", "--trace", trace, "--size", "tiny", "--out", t.TempDir()}
				if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v, attempted %d, failed %d:\n%s", res.Correct, res.Attempted, res.Failed, stdout.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for m, unit := range want {
					got, ok := res.Metrics[m]
					if !ok {
						t.Errorf("metric %s missing", m)
					} else if got.Unit != unit {
						t.Errorf("metric %s in %s, declared %s", m, got.Unit, unit)
					}
				}
			})
		}
	}
}

// runTiny runs a workload at tiny size with injected faults.
func runTiny(t *testing.T, workload string, f faults) *result {
	t.Helper()
	cfg := &config{workload: workload, seed: 3, seconds: 200 * time.Millisecond, size: sizes["tiny"],
		workers: 2, out: t.TempDir(), faults: f}
	res, err := execute(context.Background(), cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCorruptedRecordIsAFailedOperation(t *testing.T) {
	job := 0
	for _, w := range []string{"warm-served", "mem-cold"} {
		t.Run(w, func(t *testing.T) {
			res := runTiny(t, w, faults{corruptJob: &job})
			if res.Correct || res.Failed != 1 || res.Attempted < setups+1 {
				t.Fatalf("correct %v, attempted %d, failed %d; want exactly the corrupted job failed", res.Correct, res.Attempted, res.Failed)
			}
		})
	}
}

func TestForcedCacheMissIsAFailedOperation(t *testing.T) {
	job := 0
	res := runTiny(t, "warm-served", faults{missJob: &job})
	if res.Correct || res.Failed != 1 || res.Attempted < setups+1 {
		t.Fatalf("correct %v, attempted %d, failed %d; want exactly the missing job failed", res.Correct, res.Attempted, res.Failed)
	}
}

func TestBadArgumentsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "mem-cold", "--trace", "2"},
		{"--workload", "mem-cold", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestSelfTimeAndCoverage checks the span accounting on a hand-built trace:
// a 10 s job whose runner span covers 2–8 s with 8 s of engine time on 2
// workers and 1 s of sink time, and an overlapping store span at 7–9 s.
func TestSelfTimeAndCoverage(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Root: 0, Name: "job", Start: 0, End: 10},
		{ID: 1, Parent: 0, Root: 0, Name: "runner.run", Start: 2, End: 8,
			Busy:    map[string]float64{"engine.membench.execute": 8, "runner.sink": 1},
			Workers: map[string]int{"engine.membench.execute": 2, "runner.sink": 1}},
		{ID: 2, Parent: 0, Root: 0, Name: "suite.store", Start: 7, End: 9},
		{ID: 3, Parent: 2, Root: 0, Name: "store.put", Start: 8, End: 8.5},
	}
	s := summarize(spans)
	for layer, want := range map[string]float64{
		"bench":  10 - 7, // 2–9 is covered
		"engine": 4,      // 8 s over 2 workers
		"runner": 2,      // 6 s minus 4 s of engine wall; sinks are the runner's own
		"suite":  1.5,    // 2 s minus the 0.5 s put
		"store":  0.5,
	} {
		if got := s.selfS[layer]; got != want {
			t.Errorf("self %s = %g, want %g", layer, got, want)
		}
	}
	if s.coveredS != 7 || s.jobS != 10 || s.jobs != 1 {
		t.Errorf("covered %g of %g s in %d jobs, want 7 of 10 in 1", s.coveredS, s.jobS, s.jobs)
	}
	if s.busyS["engine.membench.execute"] != 4 || s.busyCPU["engine.membench.execute"] != 8 || s.busyS["runner.sink"] != 1 {
		t.Errorf("busy %v / cpu %v", s.busyS, s.busyCPU)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 0.9: 4.6, 1: 5} {
		if got := quantile(xs, q); got < want-1e-9 || got > want+1e-9 {
			t.Errorf("quantile(%g) = %g, want %g", q, got, want)
		}
	}
}

// TestTimingsScaleWithTheirCalibrations checks the scaling on a hand-built
// phase: each slice's timings are multiplied by calRefMs over the mean of
// the calibrations on either side of it, and set-up r by those around
// calibration r.
func TestTimingsScaleWithTheirCalibrations(t *testing.T) {
	sp := &speed{}
	for _, ms := range []float64{calRefMs, calRefMs, 2 * calRefMs, 2 * calRefMs} {
		sp.cals = append(sp.cals, calibration{CPUMs: ms})
	}
	// Set-up 0 lies between calibrations 0 and 1 (factor 1); the slices
	// lie between 1 and 2 (factor 2/3) and between 2 and 3 (factor 1/2).
	ph := phase{
		slices: []sliceStat{
			{jobs: 1, records: 300, used: usage{wall: 3 * time.Second, cpu: 3 * time.Second}, cal: 1},
			{jobs: 1, records: 300, used: usage{wall: 3 * time.Second, cpu: 3 * time.Second}, cal: 2},
		},
		latencyMs: []float64{3000, 3000},
		jobs:      make([]jobOutcome, 2),
	}
	got := endToEnd(ph, []float64{1}, sp)
	for name, want := range map[string]float64{
		"records_per_s": (150 + 200) / 2.0, // 300 records in 2 s and in 1.5 s
		"cpu_s":         (2 + 1.5) / 2,
		"job_p50_ms":    (2000 + 1500) / 2,
		"setup_s":       1,
	} {
		if v := got[name].Value; v < want-1e-9 || v > want+1e-9 {
			t.Errorf("%s = %g, want %g", name, v, want)
		}
	}
	raw := endToEnd(ph, []float64{1}, nil)
	if v := raw["records_per_s"].Value; v != 100 {
		t.Errorf("raw records_per_s = %g, want 100", v)
	}
}
