package passes_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/frontend/minic"
	"repro/internal/linker"
	"repro/internal/passes"
	"repro/internal/workload"
)

const changesGolden = "testdata/changes.golden"

var updateChanges = flag.Bool("update", false, "rewrite "+changesGolden)

// passCounts renders a pipeline run as "pass=changed" fields in run order.
func passCounts(pm *passes.PassManager) string {
	fields := make([]string, len(pm.Results))
	for i, r := range pm.Results {
		fields[i] = fmt.Sprintf("%s=%d", r.Pass, r.Changed)
	}
	return strings.Join(fields, " ")
}

// changeListing compiles every workload program the way the benchmark
// does: the standard pipeline per unit, then internalize and the link-time
// pipeline on the linked module. It returns one line per unit and one for
// the link-time run, each listing PassResult.Changed per pass, and one
// line with the sha256 of the final module's bytecode.
func changeListing(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, p := range workload.Suite() {
		prog := workload.Generate(p)
		var mods []*core.Module
		for i, src := range prog.Units {
			m, err := minic.Compile(fmt.Sprintf("%s.u%d", p.Name, i), src)
			if err != nil {
				t.Fatalf("%s unit %d: %v", p.Name, i, err)
			}
			pm := passes.NewPassManager().AddStandardPipeline()
			if _, err := pm.Run(m); err != nil {
				t.Fatalf("%s unit %d: %v", p.Name, i, err)
			}
			lines = append(lines, fmt.Sprintf("%s u%d %s", p.Name, i, passCounts(pm)))
			mods = append(mods, m)
		}
		linked, err := linker.Link(p.Name, mods...)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		passes.NewInternalize().RunOnModule(linked)
		pm := passes.NewPassManager().AddLinkTimePipeline()
		if _, err := pm.Run(linked); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		lines = append(lines, fmt.Sprintf("%s lto %s", p.Name, passCounts(pm)))
		data, err := bytecode.Encode(linked)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		sum := sha256.Sum256(data)
		lines = append(lines, p.Name+" sha256 "+hex.EncodeToString(sum[:]))
	}
	return lines
}

// TestChangeCountsGolden holds every pass to the exact number of changes
// it made on the workload suite when testdata/changes.golden was pinned,
// and the suite's final modules to their bytes. A change to how the pass
// manager schedules passes or caches analyses must leave both alone.
// Re-pin with -update only when a pass is meant to do different work.
func TestChangeCountsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the whole workload suite")
	}
	got := changeListing(t)
	if *updateChanges {
		if err := os.WriteFile(changesGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(changesGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		g, w := "<none>", "<none>"
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}
