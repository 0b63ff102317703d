package analysis_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dsa"
	"repro/internal/frontend/minic"
	"repro/internal/linker"
	"repro/internal/passes"
	"repro/internal/tooling"
	"repro/internal/workload"
)

// TestCachedAnalysesMatchFresh is the oracle for the analysis cache. It
// runs the standard pipeline per unit and the link-time pipeline on the
// linked module, for every workload program and every .ll example, one
// pass at a time on one shared Manager. After every pass each analysis
// the Manager serves must equal a fresh computation, and the dominator
// tree, frontier and loop nest must also match the naive model of
// TestDominatorsMatchReference. Both scheduler paths run: -j1 and -j8.
func TestCachedAnalysesMatchFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both pipelines over the whole corpus")
	}
	std := passes.NewPassManager().AddStandardPipeline().Spec()
	lto := passes.NewPassManager().AddLinkTimePipeline().Spec()
	for _, j := range []int{1, 8} {
		t.Run(fmt.Sprintf("j%d", j), func(t *testing.T) {
			for _, p := range workload.Suite() {
				prog := workload.Generate(p)
				var mods []*core.Module
				for i, src := range prog.Units {
					name := fmt.Sprintf("%s.u%d", p.Name, i)
					m, err := minic.Compile(name, src)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					runChecked(t, name, m, std, j)
					mods = append(mods, m)
				}
				linked, err := linker.Link(p.Name, mods...)
				if err != nil {
					t.Fatalf("%s: %v", p.Name, err)
				}
				passes.NewInternalize().RunOnModule(linked)
				runChecked(t, p.Name, linked, lto, j)
			}
			examples, err := corpus.Examples("../..")
			if err != nil {
				t.Fatal(err)
			}
			for _, em := range examples {
				runChecked(t, em.Name, em.M, std, j)
				passes.NewInternalize().RunOnModule(em.M)
				runChecked(t, em.Name, em.M, lto, j)
			}
		})
	}
}

// runChecked runs the passes of spec over m one at a time, all sharing
// one Manager, and checks the cache after each.
func runChecked(t *testing.T, where string, m *core.Module, spec string, j int) {
	t.Helper()
	am := analysis.NewManager()
	modeled := map[*core.Function]uint64{}
	for _, name := range strings.Split(spec, ",") {
		p, ok := tooling.PassByName(name)
		if !ok {
			t.Fatalf("unknown pass %q", name)
		}
		pm := passes.NewPassManager()
		pm.AM, pm.Parallelism = am, j
		pm.Add(p)
		if _, err := pm.Run(m); err != nil {
			t.Fatalf("%s: %s: %v", where, name, err)
		}
		checkCache(t, where+" after "+name, am, m, modeled)
	}
}

// checkCache holds every analysis am serves for m to a fresh computation,
// and each function's CFG analyses to the naive model once per CFG stamp
// (modeled records the stamps already checked; the naive model is slow).
func checkCache(t *testing.T, where string, am *analysis.Manager, m *core.Module, modeled map[*core.Function]uint64) {
	t.Helper()
	for _, f := range m.Funcs {
		if f.IsDeclaration() {
			continue
		}
		dt, li := am.DomTree(f), am.LoopInfo(f)
		fresh := analysis.NewDomTree(f)
		if !reflect.DeepEqual(dt, fresh) {
			t.Fatalf("%s: cached DomTree of %%%s differs from a fresh one", where, f.Name())
		}
		if !reflect.DeepEqual(li, analysis.NewLoopInfo(f, fresh)) {
			t.Fatalf("%s: cached LoopInfo of %%%s differs from a fresh one", where, f.Name())
		}
		if !reflect.DeepEqual(am.DomFrontier(f), analysis.NewDomFrontier(fresh)) {
			t.Fatalf("%s: cached DomFrontier of %%%s differs from a fresh one", where, f.Name())
		}
		if s, ok := modeled[f]; !ok || s != f.CFGStamp() {
			checkAgainstModel(t, where+": "+f.Name(), f, dt, am.DomFrontier(f), li)
			modeled[f] = f.CFGStamp()
		}
	}
	cg := analysis.NewCallGraph(m)
	if !reflect.DeepEqual(am.CallGraph(m), cg) {
		t.Fatalf("%s: cached CallGraph differs from a fresh one", where)
	}
	if !reflect.DeepEqual(am.ModRef(m), analysis.ModRef(m, cg)) {
		t.Fatalf("%s: cached ModRef differs from a fresh one", where)
	}
	if !bytes.Equal(dsa.Of(am, m).Encode(m), dsa.Analyze(m).Encode(m)) {
		t.Fatalf("%s: cached points-to result differs from dsa.Analyze", where)
	}
}
