package codegen_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/passes"
	"repro/internal/workload"
)

// linkTimeListing returns one "name sha256" line per module: the bytecode
// of every workload program after the per-unit standard pipeline,
// internalize and the link-time pipeline, then every .ll module under
// examples/ run through the same three steps.
func linkTimeListing(t *testing.T) []string {
	t.Helper()
	var lines []string
	add := func(name string, m *core.Module) {
		data, err := bytecode.Encode(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(data)
		lines = append(lines, name+" "+hex.EncodeToString(sum[:]))
	}
	for _, p := range workload.Suite() {
		add(p.Name, buildSuite(t, p, true))
	}
	for _, em := range exampleModules(t) {
		name, m := em.name, em.m
		if _, err := passes.NewPassManager().AddStandardPipeline().Run(m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		passes.NewInternalize().RunOnModule(m)
		if _, err := passes.NewPassManager().AddLinkTimePipeline().Run(m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := core.Verify(m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		add(name, m)
	}
	return lines
}

// TestLinkTimeGolden holds the link-time optimizer to the exact modules
// it produced when testdata/linktime.golden was pinned: changing how an
// interprocedural pass works without changing what it produces must
// leave every digest alone.
func TestLinkTimeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the whole workload suite")
	}
	got := linkTimeListing(t)
	data, err := os.ReadFile("testdata/linktime.golden")
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
	if t.Failed() {
		t.Logf("current listing:\n%s", strings.Join(got, "\n"))
	}
}
