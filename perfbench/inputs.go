package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
)

// suiteSpec is a generated suite spec in the JSON form that suite.Parse and
// the serve API accept. The benchmark hands the layers only these bytes.
type suiteSpec struct {
	Suite     string         `json:"suite"`
	Workers   int            `json:"workers"`
	Campaigns []campaignSpec `json:"campaigns"`
}

// campaignSpec is one campaign of a suiteSpec.
type campaignSpec struct {
	Name     string         `json:"name"`
	Engine   string         `json:"engine"`
	Seed     uint64         `json:"seed"`
	Workers  int            `json:"workers"`
	Config   map[string]any `json:"config"`
	Adaptive map[string]any `json:"adaptive,omitempty"`
	Out      string         `json:"out"`
	JSONL    string         `json:"jsonl"`
}

func (s suiteSpec) bytes() []byte {
	data, err := json.Marshal(s)
	if err != nil {
		panic(err) // only maps of strings, numbers and slices: cannot fail
	}
	return data
}

// size selects the input scale: full for measuring, tiny for the
// benchmark's own tests.
type size struct {
	name string
	// memReps is the replicate count of mem-cold's membench campaigns;
	// memSizes, when non-nil, replaces the engine's default L1→4×LLC ladder.
	memReps  int
	memSizes []int
	// lightN and lightReps scale light-cold's static campaigns: each one's
	// design has about lightN×lightReps×(its own factor levels) trials.
	lightN, lightReps int
	// adaptiveN and adaptiveReps size the adaptive campaign's seed round.
	adaptiveN, adaptiveReps, adaptiveBudget int
}

var sizes = map[string]size{
	"full": {name: "full", memReps: 2, lightN: 750, lightReps: 4, adaptiveN: 60, adaptiveReps: 6, adaptiveBudget: 500},
	"tiny": {name: "tiny", memReps: 1, memSizes: []int{1 << 10, 16 << 10, 256 << 10},
		lightN: 12, lightReps: 1, adaptiveN: 30, adaptiveReps: 2, adaptiveBudget: 90},
}

// campaignSeed derives campaign i's seed from the workload seed
// (splitmix64), so one --seed fixes every input.
func campaignSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) % 1_000_000_007
}

func outputs(name string) (string, string) {
	return "out/" + name + ".csv", "out/" + name + ".jsonl"
}

// memSpec is mem-cold's job: membench on two modelled machines, the
// engine's default buffer-size sweep, one stride at element size (1
// element) and one at line size (16 four-byte elements = 64 bytes).
//
// Each machine's campaign runs on one worker, both at once under the
// budget. A few large buffers dominate the sweep's cost, so sharding one
// campaign over several workers would make the job's length hang on where
// the seed's randomized order puts them; one worker per campaign makes it
// the sum of the campaign's trials, whatever the order.
func memSpec(seed uint64, sz size, workers int) suiteSpec {
	s := suiteSpec{Suite: fmt.Sprintf("mem-cold-%d", seed), Workers: workers}
	for i, machine := range []string{"i7", "opteron"} {
		cfg := map[string]any{"machine": machine, "strides": []int{1, 16}, "reps": sz.memReps}
		if sz.memSizes != nil {
			cfg["sizes"] = sz.memSizes
		}
		out, jsonl := outputs("mem-" + machine)
		s.Campaigns = append(s.Campaigns, campaignSpec{Name: "mem-" + machine, Engine: "membench",
			Seed: campaignSeed(seed, i), Workers: 1, Config: cfg, Out: out, JSONL: jsonl})
	}
	return s
}

// lightPool is light-cold's job and warm-served's campaign pool: netbench,
// collbench, numabench and cpubench campaigns of about 9k trials each at
// full size, plus the adaptive collbench stanza of
// examples/suite/coll-adaptive.json.
func lightPool(seed uint64, sz size, workers int) suiteSpec {
	n, reps := sz.lightN, sz.lightReps
	static := []struct {
		name, engine string
		cfg          map[string]any
	}{
		// netbench: n sizes × 3 point-to-point ops × reps.
		{"net-taurus", "netbench", map[string]any{"profile": "taurus", "n": n, "reps": reps}},
		{"net-myrinet-openmpi", "netbench", map[string]any{"profile": "myrinet-openmpi", "n": n, "reps": reps}},
		{"net-myrinet-gm", "netbench", map[string]any{"profile": "myrinet-gm", "n": n, "reps": reps}},
		// collbench: n sizes × 2 collective ops × reps.
		{"coll-taurus", "collbench", map[string]any{"profile": "taurus", "n": n, "reps": reps * 3 / 2}},
		{"coll-myrinet", "collbench", map[string]any{"profile": "myrinet-openmpi", "ranks": 16, "n": n, "reps": reps * 3 / 2}},
		// numabench: n sizes × 2 placement policies × reps.
		{"numa-dual", "numabench", map[string]any{"topology": "dual", "policies": []string{"firsttouch", "interleave"}, "n": n, "reps": reps * 3 / 2}},
		{"numa-quad", "numabench", map[string]any{"topology": "quad", "policies": []string{"firsttouch", "interleave"}, "n": n, "reps": reps * 3 / 2}},
		// cpubench: 5 busy-loop lengths × reps.
		{"cpu-i7", "cpubench", map[string]any{"nloops": []int{20, 200, 2000, 20000, 200000}, "reps": n * reps * 3 / 5}},
	}
	s := suiteSpec{Suite: fmt.Sprintf("light-%d", seed), Workers: workers}
	for i, c := range static {
		out, jsonl := outputs(c.name)
		s.Campaigns = append(s.Campaigns, campaignSpec{Name: c.name, Engine: c.engine,
			Seed: campaignSeed(seed, i), Workers: workers, Config: c.cfg, Out: out, JSONL: jsonl})
	}
	out, jsonl := outputs("coll-zoom")
	s.Campaigns = append(s.Campaigns, campaignSpec{
		Name: "coll-zoom", Engine: "collbench", Seed: campaignSeed(seed, len(static)), Workers: workers,
		Config: map[string]any{"profile": "taurus", "ranks": 8, "ops": []string{"allreduce"},
			"switch_bytes": 16384, "n": sz.adaptiveN, "min": 256, "max": 1048576, "reps": sz.adaptiveReps},
		Adaptive: map[string]any{"rounds": 2, "budget": sz.adaptiveBudget, "target_rel_ci": 0.02,
			"top_points": 3, "extra_reps": 4, "zoom_per_break": 4, "min_seg": 8},
		Out: out, JSONL: jsonl,
	})
	return s
}

// warmSpec is warm-served job seq: a fresh suite name, so the server's
// spec-hash dedupe never answers it, and a seeded pair of the pool's static
// campaigns plus its adaptive one, all unchanged, so every campaign key is
// already cached. The static campaigns are of equal size, so every job
// replays about the same number of records whichever pair it draws.
func warmSpec(pool suiteSpec, seed uint64, seq int) suiteSpec {
	rng := rand.New(rand.NewPCG(seed, uint64(seq)))
	static := len(pool.Campaigns) - 1 // the adaptive campaign is last
	s := suiteSpec{Suite: fmt.Sprintf("warm-%d-%d", seed, seq), Workers: pool.Workers}
	for _, i := range rng.Perm(static)[:2] {
		s.Campaigns = append(s.Campaigns, pool.Campaigns[i])
	}
	s.Campaigns = append(s.Campaigns, pool.Campaigns[static])
	return s
}
