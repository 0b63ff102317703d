package passes_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/passes"
	"repro/internal/workload"
)

// buildLinked returns a workload program as Table 2 times it: per-unit
// standard pipeline, linked and internalized.
func buildLinked(tb testing.TB, p workload.Profile) *core.Module {
	tb.Helper()
	m, err := experiments.Build(p, true)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestInlineAllocs bounds the allocations of one inline run over 176.gcc,
// the largest workload. Integrating a dead callee moves its blocks, so the
// run allocates little beyond the copies of callees that stay alive.
func TestInlineAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a whole workload program")
	}
	p, ok := workload.ByName("176.gcc")
	if !ok {
		t.Fatal("workload 176.gcc missing")
	}
	// AllocsPerRun calls the function once to warm up and once measured;
	// each call needs a module nothing has inlined into yet.
	mods := []*core.Module{buildLinked(t, p), buildLinked(t, p)}
	var inl *passes.Inline
	allocs := testing.AllocsPerRun(1, func() {
		inl = passes.NewInline(passes.DefaultInlineThreshold)
		inl.RunOnModule(mods[0])
		mods = mods[1:]
	})
	t.Logf("%.0f allocations; inlined %d sites (moved %d bodies), deleted %d functions",
		allocs, inl.NumInlined, inl.NumMoved, inl.NumDeleted)
	const limit = 15000
	if allocs > limit {
		t.Errorf("%.0f allocations per inline run on %s, want at most %d", allocs, p.Name, limit)
	}
}

// BenchmarkInline runs the link-time inliner over every workload program
// as Table 2 times it; each iteration inlines into fresh copies.
func BenchmarkInline(b *testing.B) {
	var mods []*core.Module
	for _, p := range workload.Suite() {
		mods = append(mods, buildLinked(b, p))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh := make([]*core.Module, len(mods))
		for j, m := range mods {
			fresh[j] = core.CloneModule(m)
		}
		b.StartTimer()
		for _, m := range fresh {
			passes.NewInline(passes.DefaultInlineThreshold).RunOnModule(m)
		}
	}
}
