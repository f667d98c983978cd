package membench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"opaquebench/internal/doe"
	"opaquebench/internal/memsim"
)

// pinnedCSV holds the sha256 of the CSV that pinnedSweep writes for each
// machine and execution mode. They were recorded from the plain
// per-access cache model; any memsim fast path must leave them unchanged.
var pinnedCSV = map[string]string{
	"i7/indexed":        "50e25da26c75183729672135ad64f39b8f1a19ced2c6d472a48cf9de3b4ef256",
	"i7/stateful":       "a50161f83f288a70fd16ee879c73a8df4ebf98a75562def0da5b4a08c15f9e1f",
	"i7/pool":           "b53fed9bf659cc07b7653cbb3ea623c8f9d92298d2bdde12d08f9ad83cc12247",
	"opteron/indexed":   "921e371594f9c59e7d9c6d32b34b9bff5879e03f7b5806d0665e01daddd3b427",
	"opteron/stateful":  "af4437acc1831b0f182dcd9ceebe49ebea9401be4977634868b2bffd00ba0702",
	"opteron/pool":      "af2a4c82948a5523dccdb22477aeb70a6d5f3ee14713ad54e62fa684fc6a39ee",
	"p4/indexed":        "4321ac10b752e06909a2361f2ed1921fccb8adf24cfb3fe062a819783be5b7ac",
	"p4/stateful":       "f5ba758d566446642d652e5175c2ee26a7faf048495a535bf08326b48b60b4e6",
	"p4/pool":           "a6ed14c94288ae4f2e1803ebee456a6cfb755ff6332de64c73aef6a1b17c177f",
	"snowball/indexed":  "31e0e742e9e5246b8b075264973a9e1654429fa9e2dc277c5a314f25acf6c841",
	"snowball/stateful": "caaf38d2474cac3534925c8eb1e2e1f1668a36c9530d666b9df8dba25a3c57b4",
	"snowball/pool":     "6c6ce78466680b62154214d82dff27d6c068c2fb818f46607340091847715a96",
}

// pinnedSweep runs the three stream kernels at strides 1, 3 and 16 over
// sizes that straddle the L1 (one of them, 40000 bytes, not a power of two)
// and returns the campaign's CSV bytes.
func pinnedSweep(t *testing.T, machine, mode string) []byte {
	t.Helper()
	m, err := memsim.MachineByName(machine)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Machine: m, Seed: 77}
	switch mode {
	case "indexed":
		cfg.Indexed = true
	case "pool":
		cfg.Allocation = AllocPool
	}
	factors := append(Factors([]int{4 << 10, 40000, 96 << 10, 384 << 10}, []int{1, 3, 16}, nil, nil, nil),
		doe.NewFactor(FactorKernel, "sum", "copy", "triad"))
	res := runMem(t, cfg, factors, 2)
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRecordBytesPinned pins membench's record bytes on every Figure 5
// machine, in trial-indexed mode (a cold hierarchy per trial), in stateful
// mode (the hierarchy carries over between trials) and with pool
// allocation (scattered physical pages).
func TestRecordBytesPinned(t *testing.T) {
	for _, machine := range []string{"i7", "opteron", "p4", "snowball"} {
		for _, mode := range []string{"indexed", "stateful", "pool"} {
			key := machine + "/" + mode
			sum := sha256.Sum256(pinnedSweep(t, machine, mode))
			if got := hex.EncodeToString(sum[:]); got != pinnedCSV[key] {
				t.Errorf("%s: csv sha256 %s, pinned %s", key, got, pinnedCSV[key])
			}
		}
	}
}
