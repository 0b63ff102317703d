package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The output oracle. A program's reference outcome comes from its
// unoptimised module run on the tier-0 interpreter, never from the pipeline
// or the tier a workload measures. For the default seed the references are
// also pinned in testdata/expected_seed1.json, so a change to the front-end
// or to tier 0 itself cannot move the reference unnoticed.

const pinnedSeed = 1

//go:embed testdata/expected_seed1.json
var pinnedJSON []byte

// computeReferences runs every program's unoptimised module on tier 0.
func computeReferences(progs []*program) ([]outcome, error) {
	refs := make([]outcome, len(progs))
	for i, p := range progs {
		m, err := buildLinked(p, false)
		if err != nil {
			return nil, err
		}
		if refs[i], err = runTier0(m); err != nil {
			return nil, fmt.Errorf("%s: reference run: %w", p.name, err)
		}
	}
	return refs, nil
}

// references computes the reference outcome of every program and, on the
// pinned seed, holds it against the pinned file.
func references(seed int64, progs []*program) ([]outcome, error) {
	refs, err := computeReferences(progs)
	if err != nil || seed != pinnedSeed {
		return refs, err
	}
	var pinned map[string]outcome
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		return nil, fmt.Errorf("testdata/expected_seed1.json: %w", err)
	}
	for i, p := range progs {
		if want, ok := pinned[p.name]; ok && want != refs[i] {
			return nil, fmt.Errorf("%s: reference %+v differs from the pinned %+v (regenerate with -update-expected only if tier 0 was meant to change)", p.name, refs[i], want)
		}
	}
	return refs, nil
}

// pinnedPrograms is every program set a workload draws from on the pinned
// seed: the working set, the run_hot suite and the never-seen pool.
func pinnedPrograms() []*program {
	all := append(workingSetPrograms(pinnedSeed), suite(pinnedSeed, 0, runHotIterFactor)...)
	return append(all, coldPool(pinnedSeed, pinnedColdPool)...)
}

// updateExpected regenerates the pinned references.
func updateExpected(dir string) error {
	progs := pinnedPrograms()
	refs, err := computeReferences(progs)
	if err != nil {
		return err
	}
	out := map[string]outcome{}
	for i, p := range progs {
		out[p.name] = refs[i]
	}
	data, err := json.MarshalIndent(out, "", "\t")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "testdata", "expected_seed1.json"), append(data, '\n'), 0o644)
}
