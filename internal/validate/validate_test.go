package validate

// Unit tests for the oracle's two engines and its verdict discipline. The
// corpus tests (corpus_test.go) cover the end-to-end pipeline behavior;
// these pin the internals: equational laws, the asymmetric trap rule,
// budget handling, and the fast-path soundness gates.

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
)

func mustParse(t *testing.T, src string) *core.Module {
	t.Helper()
	m, err := asm.ParseModule("t", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return m
}

// validatePair parses two module texts and validates them as one pass run.
func validatePair(t *testing.T, before, after string) *Result {
	t.Helper()
	return Default().ValidatePass("test", mustParse(t, before), mustParse(t, after))
}

func TestIdenticalModulesEquivalent(t *testing.T) {
	src := `
int %f(int %a) {
entry:
	%r = add int %a, 1
	ret int %r
}
`
	res := validatePair(t, src, src)
	if res.Verdict != Equivalent || res.Identical != 1 {
		t.Fatalf("got %s, want identical-equivalent", res.Summary())
	}
}

// TestEquationalProvesReassociation: (a+b)+c vs a+(c+b) must be proven
// without any execution.
func TestEquationalProvesReassociation(t *testing.T) {
	before := `
int %f(int %a, int %b, int %c) {
entry:
	%t = add int %a, %b
	%r = add int %t, %c
	ret int %r
}
`
	after := `
int %f(int %a, int %b, int %c) {
entry:
	%t = add int %c, %b
	%r = add int %a, %t
	ret int %r
}
`
	res := validatePair(t, before, after)
	if res.Verdict != Equivalent || res.Proven != 1 {
		t.Fatalf("got %s, want equational proof", res.Summary())
	}
	if res.Probes != 0 {
		t.Fatalf("equational proof must not execute, ran %d probes", res.Probes)
	}
}

// TestEquationalProvesSubIdentity: a-a vs 0, via the sub -> add(a, -a)
// rewrite plus xor-style cancellation in the AC normalizer.
func TestEquationalProvesConstFold(t *testing.T) {
	before := `
int %f(int %a) {
entry:
	%t = mul int %a, 1
	%u = add int %t, 0
	ret int %u
}
`
	after := `
int %f(int %a) {
entry:
	ret int %a
}
`
	res := validatePair(t, before, after)
	if res.Verdict != Equivalent || res.Proven != 1 {
		t.Fatalf("got %s, want equational proof of identity laws", res.Summary())
	}
}

// TestEquationalProvesMem2Reg: promoting a first-class alloca to SSA form
// is inside the equational fragment (cells start zeroed, loads forward).
func TestEquationalProvesMem2Reg(t *testing.T) {
	before := `
int %f(int %a) {
entry:
	%p = alloca int
	store int %a, int* %p
	%v = load int* %p
	%r = add int %v, 2
	ret int %r
}
`
	after := `
int %f(int %a) {
entry:
	%r = add int %a, 2
	ret int %r
}
`
	res := validatePair(t, before, after)
	if res.Verdict != Equivalent || res.Proven != 1 {
		t.Fatalf("got %s, want equational mem2reg proof", res.Summary())
	}
}

// TestDifferentialCatchesWrongConstant: a direct scalar miscompile on an
// exported function must be confirmed differentially.
func TestDifferentialCatchesWrongConstant(t *testing.T) {
	before := `
int %f(int %a) {
entry:
	%r = add int %a, 1
	ret int %r
}
`
	after := `
int %f(int %a) {
entry:
	%r = add int %a, 2
	ret int %r
}
`
	res := validatePair(t, before, after)
	if res.Verdict != Miscompile {
		t.Fatalf("got %s, want MISCOMPILE", res.Summary())
	}
	if res.Function != "f" || len(res.Counterexample) == 0 {
		t.Fatalf("miscompile must carry a counterexample, got %q %v", res.Function, res.Counterexample)
	}
}

// TestInternalDisagreementNotConfirmed: the same wrong-constant rewrite on
// an internal function must NOT confirm — interprocedural passes may
// legally specialize internal bodies against their known callers.
func TestInternalDisagreementNotConfirmed(t *testing.T) {
	before := `
internal int %f(int %a) {
entry:
	%r = add int %a, 1
	ret int %r
}
int %main() {
entry:
	ret int 0
}
`
	after := `
internal int %f(int %a) {
entry:
	%r = add int %a, 2
	ret int %r
}
int %main() {
entry:
	ret int 0
}
`
	res := validatePair(t, before, after)
	if res.Verdict == Miscompile {
		t.Fatalf("internal-only change must not confirm: %s", res.Summary())
	}
	if res.Internal != 1 {
		t.Fatalf("changed internal function not counted: %s", res.Summary())
	}
}

// TestInternalOnlyModuleInconclusive: with no exported definition to carry
// the evidence, a changed internal function leaves the oracle agnostic.
func TestInternalOnlyModuleInconclusive(t *testing.T) {
	before := `
internal int %f(int %a) {
entry:
	%r = add int %a, 1
	ret int %r
}
`
	after := `
internal int %f(int %a) {
entry:
	%r = add int %a, 2
	ret int %r
}
`
	res := validatePair(t, before, after)
	if res.Verdict != Inconclusive || res.Method != "internal-only" {
		t.Fatalf("got %s, want inconclusive/internal-only", res.Summary())
	}
}

// TestUnchangedCallerOfChangedCalleeProbed: the identical-text fast path
// must not swallow a caller whose callee was rewritten; the miscompile
// surfaces through the caller.
func TestUnchangedCallerOfChangedCalleeProbed(t *testing.T) {
	before := `
internal int %callee(int %a) {
entry:
	%r = mul int %a, 2
	ret int %r
}
int %main() {
entry:
	%r = call int %callee(int 21)
	ret int %r
}
`
	after := `
internal int %callee(int %a) {
entry:
	%r = mul int %a, 3
	ret int %r
}
int %main() {
entry:
	%r = call int %callee(int 21)
	ret int %r
}
`
	res := validatePair(t, before, after)
	if res.Verdict != Miscompile || res.Function != "main" {
		t.Fatalf("got %s, want MISCOMPILE via %%main", res.Summary())
	}
}

// TestRemovedTrapInconclusive: before traps, after returns — legal for
// DCE, so never a miscompile and never a proof of equivalence.
func TestRemovedTrapInconclusive(t *testing.T) {
	before := `
int %f(int %a) {
entry:
	%d = div int %a, 0
	ret int 7
}
`
	after := `
int %f(int %a) {
entry:
	ret int 7
}
`
	res := validatePair(t, before, after)
	if res.Verdict != Inconclusive {
		t.Fatalf("got %s, want inconclusive (trap removed is legal)", res.Summary())
	}
}

// TestIntroducedTrapMiscompile: after traps where before returned — never
// legal, confirmed immediately.
func TestIntroducedTrapMiscompile(t *testing.T) {
	before := `
int %f(int %a) {
entry:
	ret int 7
}
`
	after := `
int %f(int %a) {
entry:
	%d = div int 1, 0
	ret int 7
}
`
	res := validatePair(t, before, after)
	if res.Verdict != Miscompile || !strings.Contains(res.Detail, "introduced") {
		t.Fatalf("got %s, want introduced-trap MISCOMPILE", res.Summary())
	}
}

// TestBudgetExhaustionInconclusive: an infinite loop exhausts MaxSteps on
// both sides; the verdict must be Inconclusive, never Miscompile and
// never Equivalent.
func TestBudgetExhaustionInconclusive(t *testing.T) {
	src := `
int %f(int %a) {
entry:
	br label %loop
loop:
	br label %loop
}
`
	o := New(Options{MaxSteps: 100, MaxVectors: 2})
	res := o.ValidatePass("test", mustParse(t, src), mustParse(t, `
int %f(int %a) {
entry:
	br label %spin
spin:
	br label %spin
}
`))
	if res.Verdict != Inconclusive || res.Unresolved != 1 {
		t.Fatalf("got %s, want budget-inconclusive", res.Summary())
	}
}

// TestSignatureChangeSkipped: a pass that changes a function's signature
// (dead-argument elimination) leaves that function uncheckable.
func TestSignatureChangeSkipped(t *testing.T) {
	before := `
int %f(int %a, int %dead) {
entry:
	ret int %a
}
`
	after := `
int %f(int %a) {
entry:
	ret int %a
}
`
	res := validatePair(t, before, after)
	if res.Verdict != Inconclusive || res.Skipped != 1 {
		t.Fatalf("got %s, want skipped-inconclusive", res.Summary())
	}
}

// TestNamedStructSignatureChecked: the two modules of a pass run hold
// separate copies of each named struct, so a function whose signature and
// globals mention one is still compared by structure and probed, not
// skipped as a signature change.
func TestNamedStructSignatureChecked(t *testing.T) {
	src := func(body string) string {
		return `
%S = type { int, int }
%g = global %S { int 1, int 2 }

int %f(%S* %p) {
entry:
	%a = getelementptr %S* %p, long 0, ubyte 0
	%v = load int* %a
` + body + `
}

int %main() {
entry:
	%r = call int %f(%S* %g)
	ret int %r
}
`
	}
	res := validatePair(t, src("\t%w = add int %v, 0\n\tret int %w"), src("\tret int %v"))
	if res.Verdict != Equivalent || res.Skipped != 0 {
		t.Fatalf("got %s, want equivalent with nothing skipped", res.Summary())
	}
}

// TestDeletedFunctionTolerated: deleting an internal function (inliner,
// global DCE) is not by itself suspicious.
func TestDeletedFunctionTolerated(t *testing.T) {
	before := `
internal int %gone() {
entry:
	ret int 1
}
int %main() {
entry:
	ret int 3
}
`
	after := `
int %main() {
entry:
	ret int 3
}
`
	res := validatePair(t, before, after)
	if res.Verdict == Miscompile || res.Deleted != 1 {
		t.Fatalf("got %s, want deletion tolerated", res.Summary())
	}
}

// TestGlobalMemoryMiscompile: a pass that corrupts a store into a shared
// global is caught through the final-memory observable.
func TestGlobalMemoryMiscompile(t *testing.T) {
	before := `
%g = global int 0
void %f(int %a) {
entry:
	store int %a, int* %g
	ret void
}
`
	after := `
%g = global int 0
void %f(int %a) {
entry:
	%t = add int %a, 1
	store int %t, int* %g
	ret void
}
`
	res := validatePair(t, before, after)
	if res.Verdict != Miscompile || !strings.Contains(res.Detail, "global memory") {
		t.Fatalf("got %s, want global-memory MISCOMPILE", res.Summary())
	}
}

// TestDeterministicVerdicts: the same pair yields byte-identical results
// across repeated runs (the remarks golden depends on this).
func TestDeterministicVerdicts(t *testing.T) {
	before := `
int %f(int %a, int %b) {
entry:
	%r = mul int %a, %b
	ret int %r
}
`
	after := `
int %f(int %a, int %b) {
entry:
	%r = mul int %b, %a
	ret int %r
}
`
	first := validatePair(t, before, after)
	for i := 0; i < 3; i++ {
		again := validatePair(t, before, after)
		if again.Summary() != first.Summary() {
			t.Fatalf("verdict not deterministic: %q vs %q", first.Summary(), again.Summary())
		}
	}
}

// TestLeaksAddressesDetection pins the punning detector on the three cast
// shapes that move address bits across the pointer/data boundary.
func TestLeaksAddressesDetection(t *testing.T) {
	clean := mustParse(t, `
int %f(int* %p) {
entry:
	%v = load int* %p
	ret int %v
}
`)
	if leaksAddresses(clean) {
		t.Error("clean module flagged as punning")
	}
	punned := mustParse(t, `
long %f(int* %p) {
entry:
	%v = cast int* %p to long
	ret long %v
}
`)
	if !leaksAddresses(punned) {
		t.Error("pointer-to-scalar cast not flagged")
	}
}
