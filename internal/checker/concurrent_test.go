package checker_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/workload"
)

// readOnlyDigest runs the read-only analyses over m — dominator trees,
// frontiers and loop nests per function, the verifier and the checker —
// and summarizes their answers.
func readOnlyDigest(t *testing.T, m *core.Module) string {
	out := ""
	for _, f := range m.Funcs {
		if f.IsDeclaration() {
			continue
		}
		dt := analysis.NewDomTree(f)
		li := analysis.NewLoopInfo(f, dt)
		df := analysis.NewDomFrontier(dt)
		idoms := 0
		for _, b := range dt.RPO() {
			if dt.Idom(b) != nil {
				idoms += dt.Idom(b).ID()
			}
		}
		out += fmt.Sprintf("%s %d %d %d %d\n", f.Name(), len(dt.RPO()), idoms, len(li.All()), len(df))
	}
	if err := core.Verify(m); err != nil {
		t.Errorf("verify: %v", err)
	}
	rep, err := checker.New().Check(m)
	if err != nil {
		t.Errorf("check: %v", err)
		return out
	}
	return out + fmt.Sprint(rep.Diags)
}

// TestConcurrentReadOnlyAnalyses runs the analyses that only read the IR
// from eight goroutines on one shared module, the way the daemon shares a
// stored module between requests. Under -race it proves they write
// nothing to the IR (block and instruction IDs are assigned only when IR
// is mutated); every goroutine must also see the serial answers.
func TestConcurrentReadOnlyAnalyses(t *testing.T) {
	var m *core.Module
	for _, p := range workload.Suite() {
		if p.Name == "176.gcc" {
			var err error
			if m, err = corpus.Suite(p, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := readOnlyDigest(t, m)
	var wg sync.WaitGroup
	got := make([]string, 8)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = readOnlyDigest(t, m)
		}()
	}
	wg.Wait()
	for g, d := range got {
		if d != want {
			t.Errorf("goroutine %d saw different answers", g)
		}
	}
}
