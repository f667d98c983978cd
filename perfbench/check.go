package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// digest is the sha256 of one campaign's CSV and JSONL output.
type digest struct {
	CSV   string `json:"csv"`
	JSONL string `json:"jsonl"`
}

// digestSet maps campaign name to its output digests.
type digestSet map[string]digest

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// fileDigests hashes every campaign's output files under dir. When
// corrupt is set, one byte in the middle of the first campaign's CSV is
// flipped before hashing, which is how the tests prove that a damaged
// record is counted as a failed operation.
func fileDigests(dir string, spec suiteSpec, corrupt bool) (digestSet, error) {
	got := digestSet{}
	for i, c := range spec.Campaigns {
		csv, err := os.ReadFile(filepath.Join(dir, c.Out))
		if err != nil {
			return nil, err
		}
		jsonl, err := os.ReadFile(filepath.Join(dir, c.JSONL))
		if err != nil {
			return nil, err
		}
		if corrupt && i == 0 {
			flipByte(csv)
		}
		got[c.Name] = digest{CSV: sha(csv), JSONL: sha(jsonl)}
	}
	return got, nil
}

func flipByte(b []byte) {
	if len(b) > 0 {
		b[len(b)/2] ^= 0x01
	}
}

// mismatch compares got against want for every campaign got holds and
// describes the first difference.
func (want digestSet) mismatch(got digestSet) error {
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			return fmt.Errorf("campaign %s: no reference digest", name)
		}
		if g := got[name]; g != w {
			return fmt.Errorf("campaign %s: output digest %.12s/%.12s, want %.12s/%.12s", name, g.CSV, g.JSONL, w.CSV, w.JSONL)
		}
	}
	return nil
}

// pinnedDigests holds, per workload, the digests of every campaign's output
// at the workload's default seed. Refresh an entry from the "reference"
// field of a run record (see NOTES.md) only when a change is meant to
// alter the outputs.
//
//go:embed digests.json
var pinnedJSON []byte

type pinnedEntry struct {
	Seed      uint64    `json:"seed"`
	Campaigns digestSet `json:"campaigns"`
}

// checkPinned compares a set-up reference against the pinned digests when
// the run uses the pinned seed; other seeds have nothing pinned.
func checkPinned(workload string, seed uint64, sz size, ref digestSet) error {
	if sz.name != "full" {
		return nil
	}
	var pinned map[string]pinnedEntry
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		return fmt.Errorf("pinned digests: %w", err)
	}
	p, ok := pinned[workload]
	if !ok || p.Seed != seed {
		return nil
	}
	if len(ref) != len(p.Campaigns) {
		return fmt.Errorf("pinned digests: %d campaigns, reference has %d", len(p.Campaigns), len(ref))
	}
	if err := p.Campaigns.mismatch(ref); err != nil {
		return fmt.Errorf("pinned digests: %w", err)
	}
	return nil
}
