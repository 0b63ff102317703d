package interp_test

// Cross-tier differential goldens: every execution tier must produce
// bit-identical results — return value, program output, step count, and
// trap (cause and position) — on every example and workload module. The
// tiers share no execution code beyond core's arithmetic helpers, so
// agreement across this corpus pins the tier-2 lowering and executor to
// the interpreter's reference semantics.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/frontend/minic"
	"repro/internal/interp"
	"repro/internal/linker"
	"repro/internal/passes"
	"repro/internal/workload"
)

var allTiers = []interp.TierPolicy{interp.TierInterp, interp.TierBaseline, interp.TierOpt, interp.TierAuto}

// tierOutcome is one run's observable behavior.
type tierOutcome struct {
	val   uint64
	out   string
	steps int64
	err   string
}

// describeErr renders an execution error for comparison. Cancellation and
// internal panics are compared by cause only — when they fire depends on
// wall-clock timing, so the instruction they surface at is not
// deterministic. Everything else, step-budget overruns included, carries
// a position that must match exactly across tiers.
func describeErr(err error) string {
	if err == nil {
		return ""
	}
	for _, s := range []error{interp.ErrCancelled, interp.ErrTrap} {
		if errors.Is(err, s) {
			return "cause: " + s.Error()
		}
	}
	return err.Error()
}

// runTier executes m's main at the given tier and captures the outcome.
func runTier(t *testing.T, m *core.Module, p interp.TierPolicy) tierOutcome {
	t.Helper()
	out, _ := runOn(t, m, nil, p, false)
	return out
}

// runOn executes m's main at the given tier on a machine sharing prog (nil
// for none), counting blocks if profile is set, and captures the outcome
// and the per-block profile.
func runOn(t *testing.T, m *core.Module, prog *interp.Program, p interp.TierPolicy, profile bool) (tierOutcome, map[string][]int64) {
	t.Helper()
	var buf bytesBuffer
	mc, err := interp.NewMachine(m, &buf)
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	mc.SetTier(p)
	mc.MaxSteps = 50_000_000
	if err := mc.AttachProgram(prog); err != nil {
		t.Fatal(err)
	}
	if profile {
		mc.EnableProfile()
	}
	v, runErr := mc.RunMain()
	return tierOutcome{val: uint64(v), out: buf.String(), steps: mc.Steps, err: describeErr(runErr)}, mc.BlockCounts()
}

// bytesBuffer avoids importing bytes alongside the dot-heavy import block.
type bytesBuffer struct{ b []byte }

func (w *bytesBuffer) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }
func (w *bytesBuffer) String() string              { return string(w.b) }

// requireTierAgreement runs every tier and fails on any divergence.
func requireTierAgreement(t *testing.T, m *core.Module) {
	t.Helper()
	ref := runTier(t, m, interp.TierInterp)
	for _, p := range allTiers[1:] {
		got := runTier(t, m, p)
		if got != ref {
			t.Errorf("tier %s diverged from interpreter:\n  tier 0: val=%d steps=%d err=%q out=%q\n  tier %s: val=%d steps=%d err=%q out=%q",
				p, ref.val, ref.steps, ref.err, ref.out, p, got.val, got.steps, got.err, got.out)
		}
	}
	requireWarmAutoAgreement(t, m, ref)
}

// requireWarmAutoAgreement is the "TierAuto on a warm Program" arm of the
// goldens: the machines after the first start from the heat the ones before
// them folded into the shared Program, and each must still match tier 0 in
// result, output, steps, trap position and block counts.
func requireWarmAutoAgreement(t *testing.T, m *core.Module, ref tierOutcome) {
	t.Helper()
	refOut, refCounts := runOn(t, m, nil, interp.TierInterp, true)
	if refOut != ref {
		t.Fatalf("profiling changed the interpreter's behavior: %+v vs %+v", refOut, ref)
	}
	prog := interp.NewProgram(m)
	for run := 1; run <= 3; run++ {
		got, counts := runOn(t, m, prog, interp.TierAuto, true)
		if got != ref {
			t.Errorf("auto run %d on a shared Program diverged from interpreter:\n  tier 0: %+v\n  auto:   %+v", run, ref, got)
		}
		if !reflect.DeepEqual(counts, refCounts) {
			t.Errorf("auto run %d on a shared Program: block counts differ from the interpreter's", run)
		}
	}
}

// parseExample loads one .ll example. The module is re-parsed per tier
// caller so machines never share mutable state.
func parseExample(t *testing.T, path string) *core.Module {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := asm.ParseModule(filepath.Base(path), string(src))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return m
}

// TestCrossTierExamples pins all tiers to identical behavior — including
// trap positions — on the checker examples (several of which fault by
// design) and the validation examples.
func TestCrossTierExamples(t *testing.T) {
	var files []string
	for _, dir := range []string{"../../examples/checker", "../../examples/validate"} {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if filepath.Ext(e.Name()) == ".ll" {
				files = append(files, filepath.Join(dir, e.Name()))
			}
		}
	}
	if len(files) == 0 {
		t.Fatal("no example modules found")
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			m := parseExample(t, path)
			if m.Func("main") == nil {
				t.Skipf("%s has no main", path)
			}
			requireTierAgreement(t, m)
		})
	}
}

// compileWorkload builds and links one benchmark's units.
func compileWorkload(t *testing.T, p workload.Profile) *core.Module {
	t.Helper()
	prog := workload.Generate(p)
	var mods []*core.Module
	for i, src := range prog.Units {
		m, err := minic.Compile(fmt.Sprintf("%s.u%d", p.Name, i), src)
		if err != nil {
			t.Fatalf("%s unit %d: %v", p.Name, i, err)
		}
		mods = append(mods, m)
	}
	linked, err := linker.Link(p.Name, mods...)
	if err != nil {
		t.Fatalf("%s link: %v", p.Name, err)
	}
	return linked
}

// TestCrossTierWorkloadSuite runs every SPEC-analogue benchmark at every
// tier, both as front-end output and after the link-time pipeline — and
// runs that pipeline at -j 1 and -j 8, so pass-manager parallelism and
// execution tier can be ruled out as behavior inputs in one matrix.
func TestCrossTierWorkloadSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole suite at every tier")
	}
	for _, p := range workload.Suite() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			m := compileWorkload(t, p)
			requireTierAgreement(t, m)
			ref := runTier(t, m, interp.TierInterp)

			for _, jobs := range []int{1, 8} {
				opt := compileWorkload(t, p)
				pm := passes.NewPassManager()
				pm.Parallelism = jobs
				pm.Add(passes.NewInternalize())
				pm.AddLinkTimePipeline()
				if _, err := pm.Run(opt); err != nil {
					t.Fatalf("-j %d pipeline: %v", jobs, err)
				}
				requireTierAgreement(t, opt)
				got := runTier(t, opt, interp.TierOpt)
				if got.val != ref.val || got.out != ref.out {
					t.Fatalf("-j %d optimized result diverged: val=%d out=%q, want val=%d out=%q",
						jobs, got.val, got.out, ref.val, ref.out)
				}
			}
		})
	}
}

const tierUpSrc = `
internal int %work(int %x) {
entry:
	%t = mul int %x, 3
	%r = add int %t, 1
	%m = rem int %r, 1000
	ret int %m
}

int %main() {
entry:
	br label %loop
loop:
	%i = phi int [ 0, %entry ], [ %inext, %loop ]
	%acc = phi int [ 0, %entry ], [ %accnext, %loop ]
	%w = call int %work(int %i)
	%sum = add int %acc, %w
	%accnext = rem int %sum, 100000
	%inext = add int %i, 1
	%done = setge int %inext, 100
	br bool %done, label %exit, label %loop
exit:
	ret int %accnext
}
`

func parseTierUpModule(t *testing.T) *core.Module {
	t.Helper()
	m, err := asm.ParseModule("tierup", tierUpSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestTierUpMidRunIdentity drops the hotness threshold so %work recompiles
// to tier 2 partway through main's loop, and requires the result to be
// identical to a pure interpreter run — promotion between activations must
// be observationally invisible.
func TestTierUpMidRunIdentity(t *testing.T) {
	m := parseTierUpModule(t)
	ref := runTier(t, m, interp.TierInterp)

	mc, err := interp.NewMachine(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	mc.SetTier(interp.TierAuto)
	mc.HotCalls = 8 // fires at call 8 of 100, mid-loop
	v, runErr := mc.RunMain()
	if runErr != nil {
		t.Fatalf("auto run: %v", runErr)
	}
	if uint64(v) != ref.val || mc.Steps != ref.steps {
		t.Fatalf("tier-up changed behavior: val=%d steps=%d, want val=%d steps=%d", v, mc.Steps, ref.val, ref.steps)
	}

	st := mc.TierStats()
	if st.TierUps < 1 {
		t.Fatalf("expected at least one mid-run tier-up, got %d", st.TierUps)
	}
	if st.Calls[1] == 0 || st.Calls[2] == 0 {
		t.Fatalf("expected calls at both tier 1 and tier 2, got %v", st.Calls)
	}
	for _, f := range st.Funcs {
		if f.Name == "work" && f.Tier != 2 {
			t.Fatalf("%%work should have settled at tier 2, is at %d", f.Tier)
		}
	}
}

// TestSeedProfileSkipsBaseline feeds the machine a cross-run profile hot
// enough that every function starts at tier 2: the baseline tier is never
// entered and no in-place promotion is counted.
func TestSeedProfileSkipsBaseline(t *testing.T) {
	m := parseTierUpModule(t)
	ref := runTier(t, m, interp.TierInterp)

	mc, err := interp.NewMachine(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	mc.SetTier(interp.TierAuto)
	// The shape a lifelong profile.Counts carries: per-block counts with
	// entry blocks far past the call threshold.
	mc.SeedProfile(map[string][]int64{
		"work": {5000, 5000},
		"main": {5000, 5000, 5000},
	})
	v, runErr := mc.RunMain()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if uint64(v) != ref.val {
		t.Fatalf("seeded run diverged: %d vs %d", v, ref.val)
	}
	st := mc.TierStats()
	if st.Calls[1] != 0 || st.Compiles[1] != 0 {
		t.Fatalf("seeded functions should skip the baseline tier entirely: %+v", st)
	}
	if st.TierUps != 0 {
		t.Fatalf("seeded promotion must not count as a tier-up, got %d", st.TierUps)
	}
	if st.Calls[2] == 0 {
		t.Fatal("no tier-2 activations recorded")
	}
}

// autoMachine prepares a TierAuto machine for m sharing prog (nil for none).
func autoMachine(t *testing.T, m *core.Module, prog *interp.Program) *interp.Machine {
	t.Helper()
	mc, err := interp.NewMachine(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	mc.SetTier(interp.TierAuto)
	if err := mc.AttachProgram(prog); err != nil {
		t.Fatal(err)
	}
	return mc
}

// TestLoopFunctionStartsAtTier2: with no Program and no seeded profile, a
// function whose CFG has a loop runs at tier 2 from its first call, while a
// loop-free one still earns its promotion by calls.
func TestLoopFunctionStartsAtTier2(t *testing.T) {
	m := parseTierUpModule(t)
	ref := runTier(t, m, interp.TierInterp)
	mc := autoMachine(t, m, nil)
	v, err := mc.RunMain()
	if err != nil || uint64(v) != ref.val || mc.Steps != ref.steps {
		t.Fatalf("auto run: val=%d steps=%d err=%v, want val=%d steps=%d", v, mc.Steps, err, ref.val, ref.steps)
	}
	st := mc.TierStats()
	// %main (one call, a loop) never saw the baseline tier; %work (100
	// calls, straight-line) ran there until call DefaultHotCalls.
	if st.Compiles[1] != 1 || st.Compiles[2] != 2 {
		t.Fatalf("want one baseline and two tier-2 translations, got %v", st.Compiles)
	}
	if want := int64(interp.DefaultHotCalls - 1); st.Calls[1] != want || st.Calls[2] != 101-want {
		t.Fatalf("calls per tier %v, want %d at tier 1 and %d at tier 2", st.Calls, want, 101-want)
	}
	if st.TierUps != 1 {
		t.Fatalf("only %%work is promoted in place, got %d tier-ups", st.TierUps)
	}
}

// TestWarmProgramStartsAtTier2: the second TierAuto machine on a Program
// starts where the first ended — every function at tier 2, nothing
// translated, the baseline tier never entered.
func TestWarmProgramStartsAtTier2(t *testing.T) {
	m := parseTierUpModule(t)
	ref := runTier(t, m, interp.TierInterp)
	prog := interp.NewProgram(m)

	first := autoMachine(t, m, prog)
	if _, err := first.RunMain(); err != nil {
		t.Fatal(err)
	}
	if st := first.TierStats(); st.Calls[1] == 0 || st.TierUps != 1 {
		t.Fatalf("first machine should promote %%work mid-run: %+v", st)
	}

	second := autoMachine(t, m, prog)
	v, err := second.RunMain()
	if err != nil || uint64(v) != ref.val || second.Steps != ref.steps {
		t.Fatalf("warm run: val=%d steps=%d err=%v, want val=%d steps=%d", v, second.Steps, err, ref.val, ref.steps)
	}
	st := second.TierStats()
	if st.Calls[1] != 0 || st.Calls[2] != 101 || st.Compiles != [3]int64{} || st.TierUps != 0 {
		t.Fatalf("warm machine should run everything at tier 2 and translate nothing: %+v", st)
	}
	if len(st.Funcs) != 2 {
		t.Fatalf("want %%main and %%work, got %+v", st.Funcs)
	}
	for _, f := range st.Funcs {
		if f.Tier != 2 {
			t.Fatalf("%%%s is at tier %d on a warm Program", f.Name, f.Tier)
		}
	}
}

// TestHeatAccumulatesAcrossMachines: calls below the threshold in any one
// run still add up on the Program, and the machine that finds the sum past
// its threshold starts the function at tier 2.
func TestHeatAccumulatesAcrossMachines(t *testing.T) {
	m := parseTierUpModule(t)
	prog := interp.NewProgram(m)
	// %work is called 100 times a run: 100, then 200 >= 150.
	for run, wantT1 := range []int64{100, 100, 0} {
		mc := autoMachine(t, m, prog)
		mc.HotCalls = 150
		if _, err := mc.RunMain(); err != nil {
			t.Fatal(err)
		}
		if st := mc.TierStats(); st.Calls[1] != wantT1 || st.TierUps != 0 {
			t.Fatalf("run %d: %d baseline calls and %d tier-ups, want %d and 0", run+1, st.Calls[1], st.TierUps, wantT1)
		}
	}
}

// TestConcurrentMachinesShareHeat runs TierAuto machines on one Program
// from many goroutines; under -race this pins the fold and the lookup.
func TestConcurrentMachinesShareHeat(t *testing.T) {
	m := parseTierUpModule(t)
	ref := runTier(t, m, interp.TierInterp)
	prog := interp.NewProgram(m)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				mc, err := interp.NewMachine(m, nil)
				if err != nil {
					t.Error(err)
					return
				}
				mc.SetTier(interp.TierAuto)
				mc.AttachProgram(prog)
				if v, err := mc.RunMain(); err != nil || uint64(v) != ref.val || mc.Steps != ref.steps {
					t.Errorf("concurrent run: val=%d steps=%d err=%v", v, mc.Steps, err)
				}
			}
		}()
	}
	wg.Wait()
	after := autoMachine(t, m, prog)
	after.RunMain()
	if st := after.TierStats(); st.Calls[1] != 0 {
		t.Fatalf("a machine after the crowd still entered the baseline tier: %+v", st)
	}
}

// TestProgramSharesTranslations attaches one Program to two machines and
// proves the second run reuses the first's translations.
func TestProgramSharesTranslations(t *testing.T) {
	m := parseTierUpModule(t)
	prog := interp.NewProgram(m)

	var vals [2]uint64
	for i := 0; i < 2; i++ {
		mc, err := interp.NewMachine(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		mc.SetTier(interp.TierOpt)
		if err := mc.AttachProgram(prog); err != nil {
			t.Fatal(err)
		}
		v, runErr := mc.RunMain()
		if runErr != nil {
			t.Fatal(runErr)
		}
		vals[i] = uint64(v)
	}
	if vals[0] != vals[1] {
		t.Fatalf("shared-program runs diverged: %d vs %d", vals[0], vals[1])
	}
	st := prog.Stats()
	if st.T2Compiles != 2 { // %work and %main, compiled once each
		t.Fatalf("want 2 tier-2 compiles across both machines, got %d", st.T2Compiles)
	}
	if st.T2Reused < 2 {
		t.Fatalf("second machine should have reused both translations, got %d reuses", st.T2Reused)
	}

	// A program is bound to its module object; attaching elsewhere fails.
	other := parseTierUpModule(t)
	mc, err := interp.NewMachine(other, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mc.AttachProgram(prog); err == nil {
		t.Fatal("attaching a program to a different module should fail")
	}
}

// TestTierEnvOverride checks the LLVM_INTERP_TIER escape hatch the CI
// matrix uses.
func TestTierEnvOverride(t *testing.T) {
	t.Setenv("LLVM_INTERP_TIER", "2")
	m := parseTierUpModule(t)
	mc, err := interp.NewMachine(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mc.Tier() != interp.TierOpt {
		t.Fatalf("env override ignored: tier %s", mc.Tier())
	}
}

func TestParseTierPolicy(t *testing.T) {
	for in, want := range map[string]interp.TierPolicy{
		"0": interp.TierInterp, "interp": interp.TierInterp,
		"1": interp.TierBaseline, "baseline": interp.TierBaseline, "jit": interp.TierBaseline,
		"2": interp.TierOpt, "opt": interp.TierOpt,
		"auto": interp.TierAuto,
	} {
		got, ok := interp.ParseTierPolicy(in)
		if !ok || got != want {
			t.Errorf("ParseTierPolicy(%q) = %v, %v", in, got, ok)
		}
	}
	if _, ok := interp.ParseTierPolicy("fast"); ok {
		t.Error("bogus policy accepted")
	}
}

// TestCrossTierStepLimitTraps sweeps tight step budgets over a looping
// module and requires every tier to trap with the same message — position
// included. A budget of n traps at the (n+1)-th executed instruction, so
// the sweep lands the overrun on many different instructions: mid-block,
// on terminators, and inside the callee. All tiers must attribute the
// trap to the instruction that was about to execute.
func TestCrossTierStepLimitTraps(t *testing.T) {
	for _, budget := range []int64{1, 2, 3, 5, 8, 13, 21, 100, 101, 1000} {
		m := parseTierUpModule(t)
		run := func(p interp.TierPolicy) tierOutcome {
			mc, err := interp.NewMachine(m, nil)
			if err != nil {
				t.Fatal(err)
			}
			mc.SetTier(p)
			mc.MaxSteps = budget
			if p == interp.TierAuto {
				mc.HotCalls = 2 // promote early so tier 2 sees the overrun
			}
			v, runErr := mc.RunMain()
			if runErr == nil || !errors.Is(runErr, interp.ErrMaxSteps) {
				t.Fatalf("budget %d tier %s: want step-limit trap, got %v", budget, p, runErr)
			}
			return tierOutcome{val: uint64(v), steps: mc.Steps, err: runErr.Error()}
		}
		ref := run(interp.TierInterp)
		for _, p := range allTiers[1:] {
			if got := run(p); got != ref {
				t.Errorf("budget %d: tier %s diverged:\n  tier 0: %+v\n  tier %s: %+v", budget, p, ref, p, got)
			}
		}
	}
}

// edgeSrc exercises every shape tier 2 fuses or carries on an edge: MiniC's
// condition idiom (setlt; cast bool to int; setne 0; br) in a loop header;
// a conditional branch (%body's) whose two successors both take their φs
// as a swap; that branch's compare also read by a φ copy on one of its
// edges; a switch whose case and default edges carry copies; an invoke
// whose normal and unwind edges carry copies. It also holds the shapes a
// register assignment that lets a φ share its next value's register must
// refuse: a latch (%shift's) where a φ is still read after its next value
// is defined, or by another copy on the same edge; and a loop (%chain's)
// whose φs take their next values through a join block's φs, with the
// loop φ %s still read in the arm after its next value %t is defined
// (MiniC's `if (c) s = s + n;` in a for loop after SimplifyCFG), where
// sharing through the chain of φs would clobber %s or the argument %n.
const edgeSrc = `
internal int %chain(int %n) {
entry:
	br label %loop
loop:
	%i = phi int [ 0, %entry ], [ %i1, %join ]
	%s = phi int [ 1, %entry ], [ %sj, %join ]
	%w = phi int [ 0, %entry ], [ %wj, %join ]
	%more = setlt int %i, %n
	br bool %more, label %body, label %done
body:
	%i1 = add int %i, 1
	%odd = and int %i, 1
	%isodd = setne int %odd, 0
	br bool %isodd, label %arm, label %join
arm:
	%t = add int %s, %n
	%s3 = mul int %s, 3
	%w1 = add int %w, %s3
	br label %join
join:
	%sj = phi int [ %t, %arm ], [ %s, %body ]
	%wj = phi int [ %w1, %arm ], [ %w, %body ]
	br label %loop
done:
	%r = add int %s, %w
	ret int %r
}

internal int %shift(int %n) {
entry:
	br label %loop
loop:
	%k = phi int [ 0, %entry ], [ %k1, %latch ]
	%p = phi int [ 1, %entry ], [ %v, %latch ]
	%q = phi int [ 0, %entry ], [ %p, %latch ]
	%u = phi int [ 2, %entry ], [ %u5, %latch ]
	%s = phi int [ 0, %entry ], [ %s1, %latch ]
	%more = setlt int %k, %n
	br bool %more, label %latch, label %done
latch:
	%k1 = add int %k, 1
	%v = mul int %p, 3
	%u5 = mul int %u, 5
	%s1 = add int %s, %u
	br label %loop
done:
	%r = sub int %p, %q
	%r1 = add int %r, %s
	ret int %r1
}

internal int %check(int %x) {
entry:
	%big = setgt int %x, 40
	br bool %big, label %boom, label %ok
boom:
	unwind
ok:
	%r = add int %x, 3
	ret int %r
}

int %main() {
entry:
	br label %head
head:
	%i = phi int [ 0, %entry ], [ %i1, %body ]
	%a = phi int [ 1, %entry ], [ %b, %body ]
	%b = phi int [ 2, %entry ], [ %a, %body ]
	%f = phi bool [ false, %entry ], [ %again, %body ]
	%acc = phi int [ 0, %entry ], [ %acc1, %body ]
	%lt = setlt int %i, 48
	%lti = cast bool %lt to int
	%go = setne int %lti, 0
	br bool %go, label %pre, label %exit
pre:
	%i1 = add int %i, 1
	%m = rem int %i1, 3
	switch int %m, label %dflt [
		int 0, label %case0
		int 2, label %case2 ]
case0:
	%u0 = phi int [ %a, %pre ]
	%v0 = phi int [ %b, %pre ]
	br label %call
case2:
	%u2 = phi int [ %b, %pre ]
	%v2 = phi int [ %a, %pre ]
	br label %call
dflt:
	%ud = phi int [ %i1, %pre ]
	%vd = phi int [ %acc, %pre ]
	br label %call
call:
	%u = phi int [ %u0, %case0 ], [ %u2, %case2 ], [ %ud, %dflt ]
	%v = phi int [ %v0, %case0 ], [ %v2, %case2 ], [ %vd, %dflt ]
	%s = rem int %u, 50
	%r = invoke int %check(int %s) to label %spin unwind to label %caught
caught:
	%w = phi int [ %s, %call ]
	%neg = sub int 0, %w
	br label %spin
spin:
	%c = phi int [ %r, %call ], [ %neg, %caught ], [ %d, %body ]
	%d = phi int [ %v, %call ], [ %w, %caught ], [ %c, %body ]
	%j = phi int [ 0, %call ], [ 0, %caught ], [ %j1, %body ]
	%j1 = add int %j, 1
	br label %body
body:
	%cd = sub int %c, %d
	%acc1 = add int %acc, %cd
	%again = setlt int %j1, 3
	br bool %again, label %spin, label %head
exit:
	%fi = cast bool %f to int
	%ab = add int %a, %b
	%t = add int %acc, %ab
	%sh = call int %shift(int 5)
	%ch = call int %chain(int 6)
	%sc = add int %sh, %ch
	%t1 = add int %t, %sc
	%res = add int %t1, %fi
	ret int %res
}
`

// TestCrossTierEdgeBoundaries sweeps every step budget from 1 to edgeSrc's
// full run, so the overrun lands on every instruction of every fused group
// and right after every edge's copies, and runs once more under a context
// cancelled before the run (the first poll, at step 1024, lands mid-loop).
// Every tier must stop where tier 0 does: same value, steps and message,
// position included.
func TestCrossTierEdgeBoundaries(t *testing.T) {
	m, err := asm.ParseModule("edges", edgeSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	run := func(p interp.TierPolicy, budget int64, ctx context.Context) tierOutcome {
		mc, err := interp.NewMachine(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		mc.SetTier(p)
		mc.MaxSteps = budget
		mc.HotCalls = 2 // %check reaches tier 2 early under TierAuto
		v, runErr := mc.RunMainContext(ctx)
		out := tierOutcome{val: uint64(v), steps: mc.Steps}
		if runErr != nil {
			out.err = runErr.Error()
		}
		return out
	}
	full := run(interp.TierInterp, 1<<40, context.Background())
	if full.err != "" || full.steps <= 1024 {
		t.Fatalf("reference run: %+v; want a clean run past the first cancellation poll", full)
	}
	check := func(what string, budget int64, ctx context.Context) {
		ref := run(interp.TierInterp, budget, ctx)
		for _, p := range allTiers[1:] {
			if got := run(p, budget, ctx); got != ref {
				t.Fatalf("%s: tier %s diverged:\n  tier 0: %+v\n  tier %s: %+v", what, p, ref, p, got)
			}
		}
	}
	for budget := int64(1); budget <= full.steps; budget++ {
		check(fmt.Sprintf("budget %d", budget), budget, context.Background())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	check("cancelled context", 1<<40, ctx)
}
