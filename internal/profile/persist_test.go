package profile

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/interp"
)

// runCounts compiles src, runs it under the engine's block counters, and
// returns the persisted counts plus the module.
func runCounts(t *testing.T, src string) (*Counts, *core.Module) {
	t.Helper()
	m := build(t, src)
	c, _ := countRun(t, m)
	return c, m
}

// TestMergedRunsEqualDoubledRun: running twice and merging must produce
// exactly the profile of one run with every count doubled — the contract
// that makes cross-run accumulation meaningful.
func TestMergedRunsEqualDoubledRun(t *testing.T) {
	once, _ := runCounts(t, loopProg)

	merged := &Counts{}
	r1, _ := runCounts(t, loopProg)
	r2, _ := runCounts(t, loopProg)
	merged.Merge(r1)
	merged.Merge(r2)

	doubled := &Counts{Funcs: map[string][]int64{}}
	for fn, per := range once.Funcs {
		dp := make([]int64, len(per))
		for i, n := range per {
			dp[i] = 2 * n
		}
		doubled.Funcs[fn] = dp
	}
	doubled.Total = 2 * once.Total

	if !merged.Equal(doubled) {
		t.Fatalf("two merged runs != one doubled run:\nmerged: %+v\ndoubled: %+v", merged, doubled)
	}
}

// TestCountsRoundTripThroughBytecodeAndBind: counts persisted from one
// process must bind onto a module decoded from canonical bytecode in
// "another" (same block structure), with hot regions surviving.
func TestCountsRoundTripThroughBytecodeAndBind(t *testing.T) {
	c, m := runCounts(t, loopProg)

	data, err := bytecode.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := bytecode.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := c.Bind(m2)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Total != c.Total {
		t.Fatalf("bound total %d != persisted total %d", d2.Total, c.Total)
	}
	regions := d2.HotRegions(m2, 0.5)
	if len(regions) == 0 || regions[0].Fn.Name() != "main" {
		t.Fatalf("hot region lost across persist+bind: %+v", regions)
	}
}

// TestBindRejectsMismatchedLayout: more profile slots than blocks means the
// profile came from a different module layout; binding must refuse.
func TestBindRejectsMismatchedLayout(t *testing.T) {
	c, m := runCounts(t, loopProg)
	var victim string
	for fn := range c.Funcs {
		victim = fn
		break
	}
	c.Funcs[victim] = append(c.Funcs[victim], make([]int64, 50)...)
	if _, err := c.Bind(m); err == nil {
		t.Fatal("Bind accepted a profile with more slots than blocks")
	}
}

// TestFileEpochAdvancesOnDoubling: the epoch advances on the first counts
// and then whenever the accumulated total doubles — not on every merge.
func TestFileEpochAdvancesOnDoubling(t *testing.T) {
	run, _ := runCounts(t, loopProg)
	var f File
	if bumped := f.Merge(run); !bumped || f.Epoch != 1 {
		t.Fatalf("first merge: bumped=%v epoch=%d, want bump to 1", bumped, f.Epoch)
	}
	if bumped := f.Merge(run); !bumped || f.Epoch != 2 {
		t.Fatalf("second merge doubles the baseline: bumped=%v epoch=%d", bumped, f.Epoch)
	}
	if bumped := f.Merge(run); bumped {
		t.Fatalf("third merge is 1.5x the baseline, must not bump (epoch=%d)", f.Epoch)
	}
	if bumped := f.Merge(run); !bumped || f.Epoch != 3 {
		t.Fatalf("fourth merge doubles again: bumped=%v epoch=%d", bumped, f.Epoch)
	}
}

// TestFileEncodeDecode: the on-disk format round-trips, is deterministic,
// and corruption is detected rather than silently accepted.
func TestFileEncodeDecode(t *testing.T) {
	run, _ := runCounts(t, loopProg)
	var f File
	f.Merge(run)

	data, err := EncodeFile(&f)
	if err != nil {
		t.Fatal(err)
	}
	data2, err := EncodeFile(&f)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("profile encoding not deterministic")
	}
	g, err := DecodeFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if g.Epoch != f.Epoch || g.EpochTotal != f.EpochTotal || !g.Counts.Equal(&f.Counts) {
		t.Fatal("profile file did not round-trip")
	}

	if _, err := DecodeFile([]byte(`{"epoch":1,"counts":{"funcs":{"main":[5]},"total":99}}`)); err == nil {
		t.Fatal("mismatched total not rejected")
	}
	if _, err := DecodeFile([]byte(`{"epoch":1,"counts":{"funcs":{"main":[-5]},"total":-5}}`)); err == nil {
		t.Fatal("negative count not rejected")
	}
	if _, err := DecodeFile([]byte("not json")); err == nil {
		t.Fatal("garbage not rejected")
	}
}

// TestReoptimizeFromPersistedCounts: the full lifelong path — profile one
// machine, persist, bind onto a fresh decode of the module, reoptimize —
// must still find and inline the hot call site.
func TestReoptimizeFromPersistedCounts(t *testing.T) {
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
	c, m := runCounts(t, src)
	data, err := bytecode.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := bytecode.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	mcBefore, _ := interp.NewMachine(m2, nil)
	want, err := mcBefore.RunMain()
	if err != nil {
		t.Fatal(err)
	}

	d, err := c.Bind(m2)
	if err != nil {
		t.Fatal(err)
	}
	res := Reoptimize(m2, d, DefaultReoptOptions())
	if res.HotInlined == 0 {
		t.Fatal("persisted profile did not drive hot inlining")
	}
	if err := core.Verify(m2); err != nil {
		t.Fatalf("module invalid after reopt from persisted counts: %v", err)
	}
	mcAfter, _ := interp.NewMachine(m2, nil)
	got, err := mcAfter.RunMain()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("reopt from persisted counts changed result: %d vs %d", got, want)
	}
}
