package profile

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/frontend/minic"
	"repro/internal/interp"
	"repro/internal/passes"
)

const loopProg = `
static int hotwork(int x) { return x * 3 + 1; }
static int coldwork(int x) { return x - 2; }

int main() {
	int acc = 0;
	int i;
	for (i = 0; i < 1000; i++) {
		if (i % 100 == 0) {
			acc += coldwork(i);
		} else {
			acc += hotwork(i);
		}
	}
	return acc % 251;
}
`

func build(t *testing.T, src string) *core.Module {
	t.Helper()
	m, err := minic.Compile("prof", src)
	if err != nil {
		t.Fatal(err)
	}
	pm := passes.NewPassManager()
	pm.AddStandardPipeline()
	if _, err := pm.Run(m); err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	return m
}

// countRun runs m with the execution engine's block counters on and
// returns the counts plus main's result.
func countRun(t *testing.T, m *core.Module) (*Counts, int64) {
	t.Helper()
	mc, err := interp.NewMachine(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	mc.EnableProfile()
	ret, err := mc.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	return CountsFromBlocks(mc.BlockCounts()), ret
}

// runProfiled runs m under the engine's block counters and binds the
// counts to m's own blocks.
func runProfiled(t *testing.T, m *core.Module) (*Data, int64) {
	t.Helper()
	c, ret := countRun(t, m)
	d, err := c.Bind(m)
	if err != nil {
		t.Fatal(err)
	}
	return d, ret
}

func TestEngineCountsBlocks(t *testing.T) {
	m := build(t, loopProg)
	d, _ := runProfiled(t, m)
	if d.Total == 0 {
		t.Fatal("no counts collected")
	}
	// The loop body must be counted ~1000 times; find the hottest block.
	var hottest int64
	for _, c := range d.Counts {
		if c > hottest {
			hottest = c
		}
	}
	if hottest < 990 || hottest > 1010 {
		t.Fatalf("hottest block count = %d, want ~1000", hottest)
	}
}

func TestHotRegionDetection(t *testing.T) {
	m := build(t, loopProg)
	d, _ := runProfiled(t, m)
	regions := d.HotRegions(m, 0.5)
	if len(regions) == 0 {
		t.Fatal("main loop not detected as hot region")
	}
	r := regions[0]
	if r.Fn.Name() != "main" {
		t.Fatalf("hot region in %%%s, want main", r.Fn.Name())
	}
	if r.Coverage < 0.5 {
		t.Fatalf("coverage = %f", r.Coverage)
	}
	if r.HeaderCount < 900 {
		t.Fatalf("header count = %d", r.HeaderCount)
	}
}

func TestTraceFormationFollowsHotPath(t *testing.T) {
	// A loop with a 99%-biased branch: the trace must follow the hot arm.
	m, err := asm.ParseModule("t", `
int %main() {
entry:
	br label %header
header:
	%i = phi int [ 0, %entry ], [ %i2, %latch ]
	%acc = phi int [ 0, %entry ], [ %acc2, %latch ]
	%r = rem int %i, 100
	%cold = seteq int %r, 0
	br bool %cold, label %coldpath, label %hotpath
coldpath:
	%ca = add int %acc, 100
	br label %latch
hotpath:
	%ha = add int %acc, 1
	br label %latch
latch:
	%acc2 = phi int [ %ca, %coldpath ], [ %ha, %hotpath ]
	%i2 = add int %i, 1
	%c = setlt int %i2, 1000
	br bool %c, label %header, label %exit
exit:
	ret int %acc2
}
`)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := runProfiled(t, m)
	regions := d.HotRegions(m, 0.5)
	if len(regions) == 0 {
		t.Fatal("no hot region")
	}
	tr := d.FormTrace(regions[0])
	if !tr.Complete {
		t.Fatalf("trace did not close the loop: %s", tr)
	}
	names := map[string]bool{}
	for _, b := range tr.Blocks {
		names[b.Name()] = true
	}
	if !names["hotpath"] || names["coldpath"] {
		t.Fatalf("trace took the wrong arm: %s", tr)
	}
	if tr.Coverage < 0.7 {
		t.Fatalf("trace coverage = %f", tr.Coverage)
	}
}

func TestReoptimizeInlinesHotSites(t *testing.T) {
	// hotwork is called ~990 times from the loop; the reoptimizer must
	// integrate it even though static inlining thresholds might not.
	src := `
static int hotwork(int x) {
	int r = x;
	int i;
	for (i = 0; i < 3; i++) r = r * 2 + i;
	return r % 1000;
}
int main() {
	int acc = 0;
	int i;
	for (i = 0; i < 500; i++) acc = (acc + hotwork(i)) % 100000;
	return acc % 251;
}
`
	m := build(t, src)
	mcBefore, _ := interp.NewMachine(m, nil)
	want, err := mcBefore.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	stepsBefore := mcBefore.Steps

	d, _ := runProfiled(t, m)
	res := Reoptimize(m, d, DefaultReoptOptions())
	if res.HotInlined == 0 {
		t.Fatal("reoptimizer inlined nothing")
	}
	if err := core.Verify(m); err != nil {
		t.Fatalf("module invalid after reopt: %v", err)
	}
	mcAfter, _ := interp.NewMachine(m, nil)
	got, err := mcAfter.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("reoptimization changed result: %d vs %d", got, want)
	}
	if mcAfter.Steps >= stepsBefore {
		t.Errorf("reoptimized program not faster: %d vs %d steps", mcAfter.Steps, stepsBefore)
	}
}

func TestReoptimizeLayout(t *testing.T) {
	m := build(t, loopProg)
	d, _ := runProfiled(t, m)
	opts := DefaultReoptOptions()
	opts.HotCallFraction = 2.0 // disable inlining; test layout alone
	res := Reoptimize(m, d, opts)
	if res.Reordered == 0 {
		t.Error("no function had blocks reordered")
	}
	if err := core.Verify(m); err != nil {
		t.Fatalf("layout broke module: %v", err)
	}
	mc, _ := interp.NewMachine(m, nil)
	if _, err := mc.RunMain(); err != nil {
		t.Fatalf("run after layout: %v", err)
	}
}

func TestProfileOnEmptyModule(t *testing.T) {
	m := core.NewModule("empty")
	mc, err := interp.NewMachine(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	mc.EnableProfile()
	d, err := CountsFromBlocks(mc.BlockCounts()).Bind(m)
	if err != nil || d.Total != 0 {
		t.Fatalf("empty module: %v %d", err, d.Total)
	}
	if len(d.HotRegions(m, 0.1)) != 0 {
		t.Fatal("hot regions in empty module")
	}
}
