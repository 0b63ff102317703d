// Package validate is the translation-validation oracle (DESIGN.md §11):
// after a pass transforms a module, it checks the before/after pair for
// semantic equivalence and renders one of three verdicts — Equivalent,
// Inconclusive, or Miscompile. Two engines back the check. A cheap
// equational engine proves pure-SSA rewrites (mem2reg, cse,
// reassociation-style simplification) correct against a small set of
// algebraic laws without executing anything. A differential engine runs
// both modules under the sandboxed interpreter on deterministic input
// vectors per function signature and compares every observable: return
// bits, program output, trap kinds, final global memory, and pointer-
// argument buffers.
//
// The verdict discipline is deliberately asymmetric, because the oracle's
// contract is zero false "confirmed" verdicts:
//
//   - Only differential evidence — two complete runs whose observables
//     disagree, or a run that traps with a defined program error where the
//     original returned normally — confirms a miscompile.
//   - Budget exhaustion (step limit, heap limit, stack overflow,
//     cancellation) is always Inconclusive, never a miscompile.
//   - A trap the pass removed is Inconclusive, not proof of equivalence
//     and not a miscompile: dead-code elimination legitimately deletes a
//     dead trapping instruction (a dead div or load has no side effects),
//     so "before traps, after returns" is exactly what a correct pass may
//     produce.
//   - The equational engine can only confirm equivalence; when its laws
//     don't apply it falls through to the differential engine.
package validate

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/diag"
)

// Verdict is the oracle's three-valued answer for one pass run.
type Verdict int

const (
	// Equivalent: every paired function was proven or differentially
	// indistinguishable on at least one conclusive probe, and nothing had
	// to be skipped.
	Equivalent Verdict = iota
	// Inconclusive: nothing disproved equivalence, but some function could
	// not be checked (budgets exhausted, signature changed, variadic).
	Inconclusive
	// Miscompile: differential execution found inputs on which the two
	// modules observably disagree.
	Miscompile
)

func (v Verdict) String() string {
	switch v {
	case Equivalent:
		return "equivalent"
	case Inconclusive:
		return "inconclusive"
	case Miscompile:
		return "MISCOMPILE"
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// Defaults bound one differential probe. They are far below the
// interpreter's own defaults: the oracle runs after every pass, so a probe
// must be cheap, and an exhausted budget is only ever Inconclusive.
const (
	DefaultMaxVectors   = 5
	DefaultMaxSteps     = 500_000
	DefaultMaxHeapBytes = 16 << 20
)

// Options tune the oracle. The zero value means defaults.
type Options struct {
	// MaxVectors caps differential input vectors per function (functions
	// with no parameters always get exactly one probe).
	MaxVectors int
	// MaxSteps and MaxHeapBytes bound each probe's execution; exhausting
	// either makes the probe inconclusive.
	MaxSteps     int64
	MaxHeapBytes int64
	// MaxFunctions caps how many changed functions are probed
	// differentially per pass run (0 = no cap); functions beyond the cap
	// count as skipped, degrading the verdict to Inconclusive, never to a
	// false Equivalent.
	MaxFunctions int
	// Seed perturbs the extra (non-boundary) input vectors. The same seed
	// always yields the same vectors, so verdicts are deterministic.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.MaxVectors <= 0 {
		o.MaxVectors = DefaultMaxVectors
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = DefaultMaxSteps
	}
	if o.MaxHeapBytes <= 0 {
		o.MaxHeapBytes = DefaultMaxHeapBytes
	}
	return o
}

// Oracle checks pass runs for semantic equivalence. It is stateless across
// calls and safe to share between sequential pass runs; one ValidatePass
// call runs single-threaded.
type Oracle struct {
	opts Options
}

// New returns an oracle with the given options (zero value = defaults).
func New(opts Options) *Oracle { return &Oracle{opts: opts.withDefaults()} }

// Default returns an oracle with default budgets.
func Default() *Oracle { return New(Options{}) }

// Result is the oracle's verdict for one pass run, plus the evidence
// breakdown the -validate table and the remarks stream render.
type Result struct {
	// Pass is the name of the validated pass run.
	Pass string
	// Verdict is the module-level verdict.
	Verdict Verdict
	// Method summarizes the decisive evidence: "identical", "equational",
	// "differential", or "mixed" for Equivalent verdicts; the limiting
	// cause for Inconclusive ones; "differential" for Miscompile.
	Method string
	// Functions counts definition pairs examined. Identical were textually
	// unchanged; Proven passed the equational engine; Tested passed
	// differential probing; Unresolved had no conclusive probe; Skipped
	// could not be paired (signature changed, variadic, capped). Deleted
	// counts definitions the pass removed (legal for inliners and global
	// DCE; their semantics are covered through the remaining callers).
	Functions  int
	Identical  int
	Proven     int
	Tested     int
	Unresolved int
	Skipped    int
	Deleted    int
	// Internal counts changed internal-linkage definitions, which are
	// never probed directly: an interprocedural pass may legally
	// specialize them against their known callers, so their behavior is
	// validated through the exported functions that reach them.
	Internal int
	// Probes counts differential executions (per module side).
	Probes int
	// Function, Counterexample, and Detail locate a miscompile: the
	// function, the raw input vector that exposed it, and what observable
	// disagreed.
	Function       string
	Counterexample []uint64
	Detail         string
	// Duration is the oracle's own wall-clock cost for this pass run.
	Duration time.Duration
}

// Pos returns the miscompile's position in the toolchain's shared
// diagnostic coordinates (empty when the verdict is not Miscompile).
func (r *Result) Pos() diag.Pos { return diag.Pos{Fn: r.Function} }

// Summary renders the one-line form used by remarks and error messages.
func (r *Result) Summary() string {
	if r.Verdict == Miscompile {
		return fmt.Sprintf("%s in %%%s on inputs %v: %s", r.Verdict, r.Function, r.Counterexample, r.Detail)
	}
	return fmt.Sprintf("%s (%s: %d identical, %d proven, %d tested, %d internal, %d unresolved, %d skipped; %d probes)",
		r.Verdict, r.Method, r.Identical, r.Proven, r.Tested, r.Internal, r.Unresolved, r.Skipped, r.Probes)
}

// ValidatePass checks one pass run: before is the module as the pass saw
// it, after the module the pass produced. Neither module is mutated. The
// verdict follows the package's asymmetric discipline; an internal oracle
// failure degrades to Inconclusive, never to a crash or a false verdict.
func (o *Oracle) ValidatePass(pass string, before, after *core.Module) (res *Result) {
	start := time.Now()
	res = &Result{Pass: pass, Verdict: Equivalent}
	defer func() { res.Duration = time.Since(start) }()
	defer func() {
		if r := recover(); r != nil {
			res.Verdict = Inconclusive
			res.Method = "oracle-error"
			res.Detail = fmt.Sprintf("oracle panic: %v", r)
		}
	}()

	d := newDiffRunner(o.opts, before, after)
	affected := affectedFunctions(before, after)
	probed, exported := 0, 0
	for _, bf := range before.Funcs {
		if bf.IsDeclaration() {
			continue
		}
		af := after.Func(bf.Name())
		if af == nil || af.IsDeclaration() {
			res.Deleted++
			continue
		}
		res.Functions++
		if bf.Linkage != core.InternalLinkage {
			exported++
		}
		if bf.Sig.Variadic || af.Sig.Variadic || !sameType(bf.Sig, af.Sig) {
			res.Skipped++
			continue
		}
		// The textual fast path is only sound when nothing the function
		// transitively depends on changed either: an unchanged caller of a
		// rewritten callee still needs differential probing, because its
		// observable behavior flows through the callee.
		if !affected[bf.Name()] && bf.String() == af.String() {
			res.Identical++
			continue
		}
		// The equational fragment excludes calls and global memory, so a
		// proof stands regardless of what changed elsewhere in the module.
		if equationallyEqual(bf, af) {
			res.Proven++
			continue
		}
		// An internal function has no contract of its own: every caller is
		// in this module, and an interprocedural pass may legally
		// specialize the body against them (propagate a constant argument,
		// drop a computation no caller observes). Probing it on free
		// inputs would compare executions the program can never perform —
		// a recipe for false confirmations. Its behavior is validated
		// through the exported functions that reach it: affectedFunctions
		// taints every transitive caller, so those entry points are probed
		// on this very pass run.
		if bf.Linkage == core.InternalLinkage {
			res.Internal++
			continue
		}
		if o.opts.MaxFunctions > 0 && probed >= o.opts.MaxFunctions {
			res.Skipped++
			continue
		}
		probed++
		fo := d.probeFunction(bf, af)
		res.Probes += fo.probes
		switch fo.verdict {
		case Miscompile:
			res.Verdict = Miscompile
			res.Method = "differential"
			res.Function = bf.Name()
			res.Counterexample = fo.counterexample
			res.Detail = fo.detail
			return res
		case Equivalent:
			res.Tested++
		default:
			res.Unresolved++
			if res.Detail == "" {
				res.Detail = fmt.Sprintf("%%%s: %s", bf.Name(), fo.detail)
			}
		}
	}

	switch {
	case res.Unresolved > 0:
		res.Verdict = Inconclusive
		res.Method = "budget"
	case res.Skipped > 0:
		res.Verdict = Inconclusive
		res.Method = "skipped"
	case res.Internal > 0 && exported == 0:
		// Internal functions changed but the module exports nothing that
		// could carry the evidence; without an observable entry point the
		// oracle cannot vouch for the change.
		res.Verdict = Inconclusive
		res.Method = "internal-only"
	case res.Proven > 0 && res.Tested > 0:
		res.Method = "mixed"
	case res.Tested > 0:
		res.Method = "differential"
	case res.Proven > 0:
		res.Method = "equational"
	default:
		res.Method = "identical"
	}
	return res
}

// affectedFunctions computes which functions' observable behavior may have
// changed: those whose text differs (or that were deleted), closed
// transitively over the before-module's caller edges. Indirect call sites
// and differing global initializers defeat the static call graph, so they
// conservatively taint the caller (respectively, every function). The set
// gates only the identical fast path — an over-approximation costs extra
// probes, never a wrong verdict.
func affectedFunctions(before, after *core.Module) map[string]bool {
	affected := map[string]bool{}
	anyChange := false
	for _, bf := range before.Funcs {
		if bf.IsDeclaration() {
			continue
		}
		af := after.Func(bf.Name())
		if af == nil || af.IsDeclaration() || bf.String() != af.String() {
			affected[bf.Name()] = true
			anyChange = true
		}
	}
	if globalsDiffer(before, after) {
		for _, bf := range before.Funcs {
			if !bf.IsDeclaration() {
				affected[bf.Name()] = true
			}
		}
		return affected
	}
	if !anyChange {
		return affected
	}

	callers := map[string][]string{}
	for _, f := range before.Funcs {
		if f.IsDeclaration() {
			continue
		}
		name := f.Name()
		f.ForEachInst(func(inst core.Instruction) bool {
			var callee core.Value
			switch c := inst.(type) {
			case *core.CallInst:
				callee = c.Callee()
			case *core.InvokeInst:
				callee = c.Callee()
			default:
				return true
			}
			if g, ok := callee.(*core.Function); ok {
				callers[g.Name()] = append(callers[g.Name()], name)
			} else {
				// An indirect call could reach any changed function.
				affected[name] = true
			}
			return true
		})
	}
	work := make([]string, 0, len(affected))
	for n := range affected {
		work = append(work, n)
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, c := range callers[n] {
			if !affected[c] {
				affected[c] = true
				work = append(work, c)
			}
		}
	}
	return affected
}

// globalsDiffer reports whether any same-name global's type or initializer
// differs between the modules. A removed global cannot matter on its own —
// every function that referenced it necessarily changed text.
func globalsDiffer(before, after *core.Module) bool {
	for _, gb := range before.Globals {
		ga := after.Global(gb.Name())
		if ga == nil {
			continue
		}
		if !sameType(gb.ValueType, ga.ValueType) || !constsEqual(gb.Init, ga.Init) {
			return true
		}
	}
	return false
}

// sameType reports whether a type of the module before a pass equals one
// of the module after it. The pass ran on a clone, whose named structs are
// copies, so the two compare by structure.
func sameType(a, b core.Type) bool { return core.Isomorphic(a, b, map[core.Type]core.Type{}) }

// constsEqual structurally compares two constants (nil-tolerant). Unknown
// constant kinds compare unequal, erring toward more probing.
func constsEqual(a, b core.Constant) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if !sameType(a.Type(), b.Type()) {
		return false
	}
	switch x := a.(type) {
	case *core.ConstantInt:
		y, ok := b.(*core.ConstantInt)
		return ok && x.Val == y.Val
	case *core.ConstantFloat:
		y, ok := b.(*core.ConstantFloat)
		return ok && x.Val == y.Val
	case *core.ConstantBool:
		y, ok := b.(*core.ConstantBool)
		return ok && x.Val == y.Val
	case *core.ConstantNull:
		_, ok := b.(*core.ConstantNull)
		return ok
	case *core.ConstantUndef:
		_, ok := b.(*core.ConstantUndef)
		return ok
	case *core.ConstantZero:
		_, ok := b.(*core.ConstantZero)
		return ok
	case *core.ConstantArray:
		y, ok := b.(*core.ConstantArray)
		if !ok || len(x.Elems) != len(y.Elems) {
			return false
		}
		for i := range x.Elems {
			if !constsEqual(x.Elems[i], y.Elems[i]) {
				return false
			}
		}
		return true
	case *core.ConstantStruct:
		y, ok := b.(*core.ConstantStruct)
		if !ok || len(x.Fields) != len(y.Fields) {
			return false
		}
		for i := range x.Fields {
			if !constsEqual(x.Fields[i], y.Fields[i]) {
				return false
			}
		}
		return true
	case *core.Function:
		y, ok := b.(*core.Function)
		return ok && x.Name() == y.Name()
	case *core.GlobalVariable:
		y, ok := b.(*core.GlobalVariable)
		return ok && x.Name() == y.Name()
	case *core.ConstantExpr:
		y, ok := b.(*core.ConstantExpr)
		if !ok || x.Op != y.Op || x.NumOperands() != y.NumOperands() {
			return false
		}
		for i := 0; i < x.NumOperands(); i++ {
			xc, okx := x.Operand(i).(core.Constant)
			yc, oky := y.Operand(i).(core.Constant)
			if !okx || !oky || !constsEqual(xc, yc) {
				return false
			}
		}
		return true
	}
	return false
}
