package passes_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/frontend/minic"
	"repro/internal/linker"
	"repro/internal/passes"
	"repro/internal/workload"
)

// rawUnits compiles the units of one workload program without optimizing.
func rawUnits(tb testing.TB, p workload.Profile) []*core.Module {
	tb.Helper()
	var units []*core.Module
	for i, src := range workload.Generate(p).Units {
		m, err := minic.Compile(fmt.Sprintf("%s.u%d", p.Name, i), src)
		if err != nil {
			tb.Fatal(err)
		}
		units = append(units, m)
	}
	return units
}

// runPipelines runs the standard pipeline on a copy of each unit, links
// them, internalizes, and runs the link-time pipeline, as the compile
// path does. It returns the bytes the two pipelines allocated.
func runPipelines(tb testing.TB, name string, units []*core.Module) uint64 {
	tb.Helper()
	var before, after runtime.MemStats
	var piped uint64
	var mods []*core.Module
	for _, u := range units {
		m := core.CloneModule(u)
		runtime.ReadMemStats(&before)
		if _, err := passes.NewPassManager().AddStandardPipeline().Run(m); err != nil {
			tb.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		piped += after.TotalAlloc - before.TotalAlloc
		mods = append(mods, m)
	}
	linked, err := linker.Link(name, mods...)
	if err != nil {
		tb.Fatal(err)
	}
	passes.NewInternalize().RunOnModule(linked)
	runtime.ReadMemStats(&before)
	if _, err := passes.NewPassManager().AddLinkTimePipeline().Run(linked); err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return piped + after.TotalAlloc - before.TotalAlloc
}

// pipelineAllocBound caps the bytes the standard and link-time pipelines
// allocate compiling 176.gcc (about 4.8-5.6 MiB on linux/amd64, race
// detector included; 7.2 MiB when the hot kernels kept their facts in
// pointer-keyed maps).
const pipelineAllocBound = 6.5 * (1 << 20)

// TestStandardPipelineAllocs bounds the garbage the optimizer makes on the
// largest suite program: the per-unit standard pipeline plus the
// link-time pipeline on the linked module.
func TestStandardPipelineAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles 176.gcc")
	}
	for _, p := range workload.Suite() {
		if p.Name != "176.gcc" {
			continue
		}
		units := rawUnits(t, p)
		runPipelines(t, p.Name, units) // fill the pass pools
		if got := runPipelines(t, p.Name, units); got > pipelineAllocBound {
			t.Errorf("%s: pipelines allocated %.2f MiB, bound %.2f MiB",
				p.Name, float64(got)/(1<<20), float64(pipelineAllocBound)/(1<<20))
		}
		return
	}
	t.Fatal("176.gcc is not in the suite")
}

// BenchmarkStandardPipeline runs the standard pipeline per unit and the
// link-time pipeline on the linked module for each suite program.
func BenchmarkStandardPipeline(b *testing.B) {
	for _, p := range workload.Suite() {
		units := rawUnits(b, p)
		b.Run(p.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runPipelines(b, p.Name, units)
			}
		})
	}
}
