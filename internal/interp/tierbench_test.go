package interp_test

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/frontend/minic"
	"repro/internal/interp"
	"repro/internal/linker"
	"repro/internal/passes"
	"repro/internal/workload"
)

// benchModule compiles and links one mid-sized suite benchmark for the
// tier microbenchmarks.
func benchModule(b *testing.B) *core.Module {
	b.Helper()
	var p workload.Profile
	for _, q := range workload.Suite() {
		if q.Name == "254.gap" {
			p = q
		}
	}
	prog := workload.Generate(p)
	var mods []*core.Module
	for i, src := range prog.Units {
		m, err := minic.Compile(fmt.Sprintf("%s.u%d", p.Name, i), src)
		if err != nil {
			b.Fatal(err)
		}
		mods = append(mods, m)
	}
	m, err := linker.Link(p.Name, mods...)
	if err != nil {
		b.Fatal(err)
	}
	// Optimize like the evaluation does, so the loop measures the tiers
	// on the code shape they actually execute in the reported numbers.
	pm := passes.NewPassManager()
	pm.Add(passes.NewInternalize())
	pm.AddLinkTimePipeline()
	if _, err := pm.Run(m); err != nil {
		b.Fatal(err)
	}
	return m
}

// benchTier runs main to completion once per iteration at the given
// policy, on a fresh machine over one warm shared Program (one untimed run
// has translated and, under TierAuto, folded its heat in), so the loop
// measures what a resident module's next request costs.
func benchTier(b *testing.B, policy interp.TierPolicy) {
	m := benchModule(b)
	prog := interp.NewProgram(m)
	run := func() {
		mc, err := interp.NewMachine(m, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		mc.SetTier(policy)
		mc.MaxSteps = 1 << 40
		if err := mc.AttachProgram(prog); err != nil {
			b.Fatal(err)
		}
		if _, err := mc.RunMain(); err != nil {
			b.Fatal(err)
		}
	}
	run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func BenchmarkTierInterp(b *testing.B)   { benchTier(b, interp.TierInterp) }
func BenchmarkTierBaseline(b *testing.B) { benchTier(b, interp.TierBaseline) }
func BenchmarkTierOpt(b *testing.B)      { benchTier(b, interp.TierOpt) }
func BenchmarkTierAuto(b *testing.B)     { benchTier(b, interp.TierAuto) }
