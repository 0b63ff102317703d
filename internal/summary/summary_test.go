package summary

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/frontend/minic"
	"repro/internal/linker"
	"repro/internal/wire"
	"repro/internal/workload"
)

func parse(t *testing.T, name, src string) *core.Module {
	t.Helper()
	m, err := asm.ParseModule(name, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSummaryRoundTrip(t *testing.T) {
	m := parse(t, "t", `
%g = global int 0
declare void %external()

internal void %thrower() {
entry:
	unwind
}

int %main() {
entry:
	store int 1, int* %g
	call void %thrower()
	call void %external()
	ret int 0
}
`)
	sums := Compute(m)
	back, err := Decode(Encode(sums))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sums, back) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", sums, back)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("nope")); err == nil {
		t.Error("bad magic accepted")
	}
	valid := Encode(Compute(core.NewModule("x")))
	for cut := 1; cut < len(valid); cut++ {
		if _, err := Decode(valid[:cut]); err == nil && cut < len(valid) {
			// Short prefixes of an empty-module summary may parse; the
			// important property is no panic, which reaching here shows.
			break
		}
	}
}

// TestSolveMatchesFromScratch is the paper's §3.3 claim made precise:
// whole-program may-unwind and Mod/Ref computed from per-unit summaries
// (no bodies) must equal the from-scratch analyses on the linked module.
func TestSolveMatchesFromScratch(t *testing.T) {
	for _, p := range workload.Suite()[:6] {
		prog := workload.Generate(p)
		var units [][]FunctionSummary
		var mods []*core.Module
		for i, src := range prog.Units {
			m, err := minic.Compile(p.Name+".u"+string(rune('0'+i)), src)
			if err != nil {
				t.Fatal(err)
			}
			// Compile-time: summaries computed per unit and "attached".
			blob := Encode(Compute(m))
			sums, err := Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			units = append(units, sums)
			mods = append(mods, m)
		}

		// Link-time: solve from summaries alone.
		solved := Solve(units...)

		// Ground truth from the linked bodies.
		linked, err := linker.Link(p.Name, mods...)
		if err != nil {
			t.Fatal(err)
		}
		cg := analysis.NewCallGraph(linked)
		wantUnwind := cg.MayUnwind()
		wantMR := analysis.ModRef(linked, cg)

		for _, f := range linked.Funcs {
			name := f.Name()
			if got, want := solved.MayUnwind[name], wantUnwind[f]; got != want {
				t.Errorf("%s/%s: may-unwind from summaries %v, from scratch %v", p.Name, name, got, want)
			}
			mi := wantMR[f]
			if got, want := solved.ModAny[name], mi.ModAny; got != want {
				t.Errorf("%s/%s: ModAny %v vs %v", p.Name, name, got, want)
			}
			if got, want := solved.RefAny[name], mi.RefAny; got != want {
				t.Errorf("%s/%s: RefAny %v vs %v", p.Name, name, got, want)
			}
			for g := range mi.Mod {
				if !solved.ModAny[name] && !solved.Mod[name][g.Name()] {
					t.Errorf("%s/%s: missing Mod %s in summary solve", p.Name, name, g.Name())
				}
			}
			for gname := range solved.Mod[name] {
				if linked.Global(gname) == nil {
					continue // internal renamed during linking: name-keyed only
				}
				if !mi.ModAny && !mi.Mod[linked.Global(gname)] {
					t.Errorf("%s/%s: summary Mod %s not in ground truth", p.Name, name, gname)
				}
			}
		}
	}
}

func TestIncrementalRecompilationScenario(t *testing.T) {
	// The §3.3 use case: three units; unit 1 changes. Only unit 1's
	// summary is recomputed; the solve over (cached, fresh, cached)
	// matches a full from-scratch analysis of the new program.
	unitA := `
static int helper_a(int x) { return x + 1; }
int entry_a(int x) { return helper_a(x); }
`
	unitB0 := `
extern int entry_a(int x);
int entry_b(int x) { return entry_a(x) * 2; }
`
	unitB1 := `
extern int entry_a(int x);
extern void mystery();
int entry_b(int x) { mystery(); return entry_a(x) * 3; }
`
	unitC := `
extern int entry_b(int x);
int main() { return entry_b(4); }
`
	compile := func(name, src string) ([]FunctionSummary, *core.Module) {
		m, err := minic.Compile(name, src)
		if err != nil {
			t.Fatal(err)
		}
		return Compute(m), m
	}
	sumA, _ := compile("a", unitA)
	sumB0, _ := compile("b", unitB0)
	sumC, _ := compile("c", unitC)

	before := Solve(sumA, sumB0, sumC)
	if before.ModAny["main"] {
		t.Fatal("clean program should not have ModAny main")
	}

	// Unit B changes: recompute only its summary.
	sumB1, mB1 := compile("b", unitB1)
	after := Solve(sumA, sumB1, sumC)
	if !after.ModAny["main"] {
		t.Fatal("mystery() call must poison main transitively via cached summaries")
	}

	// Sanity: matches a full rebuild.
	mA, _ := minic.Compile("a", unitA)
	mC, _ := minic.Compile("c", unitC)
	linked, err := linker.Link("prog", mA, mB1, mC)
	if err != nil {
		t.Fatal(err)
	}
	_ = mB1
	cg := analysis.NewCallGraph(linked)
	mr := analysis.ModRef(linked, cg)
	if got := mr[linked.Func("main")].ModAny; got != after.ModAny["main"] {
		t.Fatalf("incremental solve diverges from full rebuild: %v vs %v", after.ModAny["main"], got)
	}
}

// TestDecodeRejectsOverflowingVarint: a summary count that overflows 64
// bits is an error.
func TestDecodeRejectsOverflowingVarint(t *testing.T) {
	blob := append(append(Magic[:], bytes.Repeat([]byte{0xff}, 9)...), 0x7f)
	if sums, err := Decode(blob); sums != nil || !errors.Is(err, wire.ErrOverflow) {
		t.Fatalf("Decode = %v, %v; want ErrOverflow", sums, err)
	}
}
