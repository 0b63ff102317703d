package experiments

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/dsa"
	"repro/internal/obs"
	"repro/internal/passes"
	"repro/internal/tooling"
	"repro/internal/workload"
)

// determinismModules collects every example module plus two linked workload
// programs (one pool-allocator-heavy, to exercise the untyped paths), as
// (name, loader) pairs. Loaders return a fresh module each call so the two
// sides of a comparison never share IR objects.
func determinismModules(t *testing.T) map[string]func(t *testing.T) *core.Module {
	t.Helper()
	mods := map[string]func(t *testing.T) *core.Module{}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.ll"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no example modules found")
	}
	for _, path := range paths {
		path := path
		mods[filepath.Base(filepath.Dir(path))+"/"+filepath.Base(path)] = func(t *testing.T) *core.Module {
			m, err := tooling.LoadModule(path)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			return m
		}
	}
	for _, name := range []string{"164.gzip", "197.parser"} {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		mods["workload/"+name] = func(t *testing.T) *core.Module {
			m, err := Build(p, true)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
	}
	return mods
}

func renderDiags(ds []diag.Diagnostic) string {
	var b strings.Builder
	for _, d := range ds {
		fmt.Fprintln(&b, d)
	}
	return b.String()
}

func renderRemarks(t *testing.T, r *obs.Remarks) string {
	t.Helper()
	var b bytes.Buffer
	if err := obs.WriteRemarksText(&b, r.Sorted()); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestAliasDeterminismAcrossParallelism is the satellite-3 golden: over
// every example module and two linked workload programs, diagnostics,
// optimization remarks, and serialized points-to summaries must be
// byte-identical at -j1 and -j8.
func TestAliasDeterminismAcrossParallelism(t *testing.T) {
	for name, load := range determinismModules(t) {
		name, load := name, load
		t.Run(name, func(t *testing.T) {
			// Checker diagnostics: worker count must not reorder or change
			// a single byte.
			var diags [2]string
			for i, jobs := range []int{1, 8} {
				c := checker.New()
				c.Parallelism = jobs
				rep, err := c.Check(load(t))
				if err != nil {
					t.Fatalf("check -j%d: %v", jobs, err)
				}
				diags[i] = renderDiags(rep.Diags)
			}
			if diags[0] != diags[1] {
				t.Errorf("diagnostics differ between -j1 and -j8:\n<<<<\n%s====\n%s>>>>", diags[0], diags[1])
			}

			// Standard pipeline: remark stream and transformed module must
			// be byte-identical at any worker count.
			var remarks, printed [2]string
			for i, jobs := range []int{1, 8} {
				m := load(t)
				pm := passes.NewPassManager()
				pm.Parallelism = jobs
				pm.Remarks = obs.NewRemarks()
				pm.AddStandardPipeline()
				if _, err := pm.Run(m); err != nil {
					t.Fatalf("pipeline -j%d: %v", jobs, err)
				}
				remarks[i] = renderRemarks(t, pm.Remarks)
				printed[i] = m.String()
			}
			if remarks[0] != remarks[1] {
				t.Errorf("remarks differ between -j1 and -j8:\n<<<<\n%s====\n%s>>>>", remarks[0], remarks[1])
			}
			if printed[0] != printed[1] {
				t.Error("transformed module differs between -j1 and -j8")
			}

			// Summary encoding: two independent analyses of fresh parses
			// serialize to the same bytes (the store's reuse contract).
			ma, mb := load(t), load(t)
			ea := dsa.Analyze(ma).Encode(ma)
			eb := dsa.Analyze(mb).Encode(mb)
			if !bytes.Equal(ea, eb) {
				t.Errorf("summary encodings differ across fresh analyses (%d vs %d bytes)", len(ea), len(eb))
			}
		})
	}
}

// TestUseAfterFreeSitesMayAliasFreeSites cross-validates the checker
// against the alias analysis: every use-after-free site the checker
// reports must be May- (or Must-) alias with at least one free site in the
// same function — a checker claim the alias analysis calls No-alias would
// mean one of the two is wrong.
func TestUseAfterFreeSitesMayAliasFreeSites(t *testing.T) {
	checked := 0
	for name, load := range determinismModules(t) {
		m := load(t)
		rep, err := checker.New().Check(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pt := dsa.Analyze(m)
		for _, d := range rep.Diags {
			if d.Kind != checker.KindUseAfterFree {
				continue
			}
			inst := findInst(m, d.Pos)
			if inst == nil {
				t.Errorf("%s: diagnostic position %v matches no instruction", name, d.Pos)
				continue
			}
			ptr := accessedPointer(inst)
			if ptr == nil {
				t.Errorf("%s: use-after-free at non-memory instruction %v", name, d.Pos)
				continue
			}
			f := m.Func(d.Pos.Fn)
			frees := collectFrees(f)
			if len(frees) == 0 {
				t.Errorf("%s: use-after-free in %%%s but the function has no free", name, d.Pos.Fn)
				continue
			}
			aliased := false
			for _, fr := range frees {
				if pt.Alias(ptr, fr.Ptr()) != dsa.NoAlias {
					aliased = true
					break
				}
			}
			if !aliased {
				t.Errorf("%s: %v: checker says use-after-free but alias analysis says No-alias with every free site", name, d.Pos)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no use-after-free diagnostics found; cross-validation exercised nothing")
	}
}

// findInst locates the instruction a diagnostic position names.
func findInst(m *core.Module, pos diag.Pos) core.Instruction {
	f := m.Func(pos.Fn)
	if f == nil {
		return nil
	}
	for _, b := range f.Blocks {
		if pos.Block != "" && b.Name() != pos.Block {
			continue
		}
		for _, inst := range b.Instrs {
			if core.InstDebugString(inst) == pos.Inst {
				return inst
			}
		}
	}
	return nil
}

// accessedPointer returns the pointer operand a memory diagnostic is about.
func accessedPointer(inst core.Instruction) core.Value {
	switch x := inst.(type) {
	case *core.LoadInst:
		return x.Ptr()
	case *core.StoreInst:
		return x.Ptr()
	case *core.FreeInst:
		return x.Ptr()
	case *core.VAArgInst:
		return x.List()
	}
	return nil
}

func collectFrees(f *core.Function) []*core.FreeInst {
	var out []*core.FreeInst
	for _, b := range f.Blocks {
		for _, inst := range b.Instrs {
			if fr, ok := inst.(*core.FreeInst); ok {
				out = append(out, fr)
			}
		}
	}
	return out
}
