package checker

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/dsa"
	"repro/internal/frontend/minic"
	"repro/internal/linker"
	"repro/internal/passes"
	"repro/internal/workload"
)

// suiteModules builds every workload.Suite() program as clients post it
// to the daemon: compiled, linked and internalized, but not optimized.
func suiteModules(tb testing.TB) []*core.Module {
	tb.Helper()
	var out []*core.Module
	for _, p := range workload.Suite() {
		var units []*core.Module
		for i, src := range workload.Generate(p).Units {
			m, err := minic.Compile(fmt.Sprintf("%s.u%d", p.Name, i), src)
			if err != nil {
				tb.Fatalf("%s unit %d: %v", p.Name, i, err)
			}
			units = append(units, m)
		}
		linked, err := linker.Link(p.Name, units...)
		if err != nil {
			tb.Fatalf("%s: %v", p.Name, err)
		}
		passes.NewInternalize().RunOnModule(linked)
		if err := core.Verify(linked); err != nil {
			tb.Fatalf("%s: %v", p.Name, err)
		}
		out = append(out, linked)
	}
	return out
}

// TestFuncPrinterMatchesInstDebugString: the checker's per-function printer
// spells every instruction exactly as core.InstDebugString does, over the
// example corpora and the workload suite both as posted and after the
// standard pipeline (which leaves many values unnamed, so slot numbering
// is exercised).
func TestFuncPrinterMatchesInstDebugString(t *testing.T) {
	var mods []*core.Module
	for _, dir := range []string{"checker", "validate"} {
		files, err := filepath.Glob(filepath.Join("..", "..", "examples", dir, "*.ll"))
		if err != nil || len(files) == 0 {
			t.Fatalf("examples/%s: %v (files=%d)", dir, err, len(files))
		}
		for _, path := range files {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			m, err := asm.ParseModule(filepath.Base(path), string(src))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			mods = append(mods, m)
		}
	}
	for _, m := range suiteModules(t) {
		mods = append(mods, m)
		opt := core.CloneModule(m)
		pm := passes.NewPassManager()
		pm.AddStandardPipeline()
		if _, err := pm.Run(opt); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		mods = append(mods, opt)
	}
	n := 0
	for _, m := range mods {
		for _, f := range m.Funcs {
			pr := core.NewFuncPrinter(f)
			for _, b := range f.Blocks {
				for _, inst := range b.Instrs {
					if got, want := pr.InstString(inst), core.InstDebugString(inst); got != want {
						t.Fatalf("%s %%%s: printer says %q, InstDebugString %q", m.Name, f.Name(), got, want)
					}
					n++
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("no instructions compared")
	}
}

// BenchmarkCheck times one /check's checker run per op over the workload
// suite, with the module's points-to summaries seeded into the analysis
// manager as the daemon seeds its persisted ones.
func BenchmarkCheck(b *testing.B) {
	mods := suiteModules(b)
	pts := make([]*dsa.Result, len(mods))
	for i, m := range mods {
		pts[i] = dsa.Analyze(m)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, pt := mods[i%len(mods)], pts[i%len(mods)]
		am := analysis.NewManager()
		am.ModuleExt(dsa.Key, m, func(*core.Module) interface{} { return pt })
		ck := New()
		ck.AM = am
		if _, err := ck.Check(m); err != nil {
			b.Fatal(err)
		}
	}
}
