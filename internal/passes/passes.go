// Package passes implements the optimizer: the scalar transformations that
// clean up front-end output (mem2reg, sroa, instcombine, sccp, adce, cse,
// simplifycfg) and the link-time interprocedural optimizations the paper
// evaluates in §4 (inlining, dead global elimination, dead argument
// elimination, interprocedural constant propagation, dead type
// elimination, and exception-handler pruning), all driven by a PassManager
// that records per-pass statistics and timings.
package passes

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/validate"
)

// FunctionPass transforms one function at a time.
type FunctionPass interface {
	Name() string
	// RunOnFunction returns the number of changes made (0 = no change).
	RunOnFunction(f *core.Function) int
}

// ModulePass transforms a whole module.
type ModulePass interface {
	Name() string
	// RunOnModule returns the number of changes made.
	RunOnModule(m *core.Module) int
}

// remarkable is implemented by passes that emit optimization remarks
// (applied/missed/analysis, LLVM's -Rpass). The pass manager binds its
// collector before each run; a nil collector disables emission.
type remarkable interface {
	setRemarks(*obs.Remarks)
}

// analysisFunctionPass is the manager-aware variant of FunctionPass: the
// pass fetches its analyses (dominator tree, loops) from am instead of
// constructing them. All in-tree function passes implement it; RunOnFunction
// delegates to it with a nil manager, which computes analyses fresh.
type analysisFunctionPass interface {
	FunctionPass
	runOnFunctionWith(f *core.Function, am *analysis.Manager) int
}

// analysisModulePass is the manager-aware variant of ModulePass, implemented
// by the IPO passes that consume the call graph or mod/ref summaries.
type analysisModulePass interface {
	ModulePass
	runOnModuleWith(m *core.Module, am *analysis.Manager) int
}

// PassResult records one pass execution.
type PassResult struct {
	Pass    string
	Changed int
	// Duration is the pass's wall-clock time as the pipeline saw it.
	// CPUTime is the work actually performed: for function passes it is the
	// sum of per-function worker times, so under -j N it exceeds Duration
	// when workers overlap; for module passes the two coincide. Reporting
	// both keeps -time honest under parallel scheduling (a summed figure
	// alone reads as if -j 8 made each pass 8x slower).
	Duration time.Duration
	CPUTime  time.Duration
	// Failed marks a pass that panicked, timed out, or corrupted the
	// module (VerifyEach); Err carries the cause.
	Failed bool
	Err    error
	// RolledBack reports that the failed pass's changes were discarded and
	// the module is in its pre-pass state.
	RolledBack bool
	// Validation is the translation-validation verdict for this pass run
	// (nil when no Validator is installed or the pass made no changes). A
	// Miscompile verdict also sets Failed, with the pass's changes
	// discarded exactly like a verifier rejection.
	Validation *validate.Result
	// AnalysisHits/Misses/Invalidations are this pass's deltas against the
	// manager's analysis cache: requests served from cache, requests that
	// had to compute, and cached results dropped because the IR they
	// describe changed (see analysis.Manager).
	AnalysisHits          uint64
	AnalysisMisses        uint64
	AnalysisInvalidations uint64
}

// Policy selects how the pass manager reacts when a pass fails — by
// panicking, exceeding its time budget, or corrupting the module.
type Policy int

const (
	// FailFast aborts the pipeline on the first failure. No snapshot is
	// taken, so a pass that panicked or corrupted the module leaves it in
	// an undefined state; this is the cheapest mode and the default.
	FailFast Policy = iota
	// SkipAndContinue rolls the failed pass's changes back to the pre-pass
	// snapshot and keeps running the remaining passes.
	SkipAndContinue
	// Rollback rolls the failed pass's changes back to the pre-pass
	// snapshot and aborts the pipeline, leaving the module in the last
	// known-good state.
	Rollback
)

func (p Policy) String() string {
	switch p {
	case FailFast:
		return "failfast"
	case SkipAndContinue:
		return "skip"
	case Rollback:
		return "rollback"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// FailureReport is the error returned by Run when passes fail under a
// policy that aborts (or, for SkipAndContinue, when queried afterwards).
// It lists the per-pass failures in pipeline order.
type FailureReport struct {
	Failures []PassResult
}

func (r *FailureReport) Error() string {
	if len(r.Failures) == 1 {
		f := r.Failures[0]
		return fmt.Sprintf("pass %q failed: %v", f.Pass, f.Err)
	}
	names := make([]string, len(r.Failures))
	for i, f := range r.Failures {
		names[i] = f.Pass
	}
	return fmt.Sprintf("%d passes failed (%s); first: %v",
		len(r.Failures), strings.Join(names, ", "), r.Failures[0].Err)
}

// PassManager sequences passes over a module.
type PassManager struct {
	passes []ModulePass
	// VerifyEach runs the verifier after every pass; a failure is treated
	// like a pass failure under Policy (the paper's point that type
	// mismatches catch optimizer bugs, §2.2).
	VerifyEach bool
	// Policy selects failure handling. Under SkipAndContinue and Rollback
	// each pass runs against a scratch clone of the module that is
	// committed only on success, so a panicking, hanging, or corrupting
	// pass can never poison the caller's module.
	Policy Policy
	// Timeout is the per-pass wall-clock budget (0 = none). A pass that
	// exceeds it is recorded as failed; its goroutine is abandoned and
	// only ever saw a scratch clone, never the caller's module.
	Timeout time.Duration
	// Parallelism bounds how many functions a function pass transforms
	// concurrently (0 = GOMAXPROCS, 1 = serial). Functions are independent
	// under the IR's locking of shared use lists, and per-function results
	// are aggregated in module order, so the transformed module is
	// byte-identical to a serial run at any setting.
	Parallelism int
	// DisableAnalysisCache makes every pass compute its analyses fresh
	// (no manager is created), matching pre-cache behavior; for ablation.
	DisableAnalysisCache bool
	// Tracer records one span per pass execution and one per function on
	// the worker tracks, exported as Chrome trace-event JSON
	// (llvm-opt -trace-out). nil disables tracing at zero cost.
	Tracer *obs.Tracer
	// Remarks collects optimization remarks from passes that emit them
	// (mem2reg, licm, cse, inline). nil disables collection.
	Remarks *obs.Remarks
	// Metrics receives per-pass counters and latency histograms plus the
	// analysis-cache deltas, under the llvm_pass_* / llvm_analysis_* names
	// (DESIGN.md §10). nil disables recording.
	Metrics *obs.Registry
	// Validator, when set, checks every changed pass run for semantic
	// equivalence (DESIGN.md §11). It forces pass isolation: each pass runs
	// against a scratch clone, and the oracle compares the caller's module
	// (the before state) with the clone before it is committed, so
	// validation shares the snapshot isolation already pays for instead of
	// cloning again. A Miscompile verdict is handled like a pass failure
	// under Policy: the clone is discarded (the caller's module was never
	// touched), and the pipeline aborts or continues per the policy.
	Validator *validate.Oracle
	// Snapshots counts scratch clones taken across the run, surfaced by
	// llvm-opt -time: with -check and -validate both active it stays at one
	// clone per pass run, not two.
	Snapshots int
	// AM is the analysis cache shared by the pipeline's passes. Run creates
	// it lazily; callers may install their own to share across managers.
	AM      *analysis.Manager
	Results []PassResult
}

// NewPassManager returns an empty pass manager.
func NewPassManager() *PassManager { return &PassManager{} }

// Failures returns the results of all failed passes so far.
func (pm *PassManager) Failures() []PassResult {
	var out []PassResult
	for _, r := range pm.Results {
		if r.Failed {
			out = append(out, r)
		}
	}
	return out
}

// Add appends module passes to the pipeline.
func (pm *PassManager) Add(ps ...ModulePass) *PassManager {
	pm.passes = append(pm.passes, ps...)
	return pm
}

// AddFunctionPass appends function passes, each adapted to run over every
// function in the module.
func (pm *PassManager) AddFunctionPass(ps ...FunctionPass) *PassManager {
	for _, p := range ps {
		pm.passes = append(pm.passes, &funcPassAdapter{p: p})
	}
	return pm
}

// AdaptFunctionPass lifts a FunctionPass to a ModulePass. When the result is
// driven by a PassManager it inherits the manager's analysis cache and
// parallel function scheduling; called directly it runs serially without a
// cache, like the pass itself.
func AdaptFunctionPass(p FunctionPass) ModulePass { return &funcPassAdapter{p: p} }

// parallelism resolves the worker count for function passes.
func (pm *PassManager) parallelism() int {
	if pm.Parallelism > 0 {
		return pm.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// manager returns the pipeline's analysis cache, creating it on first use;
// nil when caching is disabled (passes then compute analyses fresh).
func (pm *PassManager) manager() *analysis.Manager {
	if pm.DisableAnalysisCache {
		return nil
	}
	if pm.AM == nil {
		pm.AM = analysis.NewManager()
	}
	return pm.AM
}

// AnalysisStats returns the pipeline-wide analysis cache counters.
func (pm *PassManager) AnalysisStats() analysis.Stats { return pm.AM.Stats() }

// Spec returns the pipeline's canonical identity: the pass names in run
// order, comma-joined. Two managers with equal Spec apply the same
// transformations in the same order (pass behavior is deterministic at
// any Parallelism), so the string is usable as a cache-key component for
// optimized artifacts.
func (pm *PassManager) Spec() string {
	names := make([]string, len(pm.passes))
	for i, p := range pm.passes {
		names[i] = p.Name()
	}
	return strings.Join(names, ",")
}

// Run executes the pipeline. It returns the total number of changes. Pass
// failures (panic, timeout, verifier rejection) never propagate as panics:
// under FailFast and Rollback the structured *FailureReport is returned as
// the error; under SkipAndContinue failed passes are recorded in Results
// (see Failures) and the pipeline continues.
func (pm *PassManager) Run(m *core.Module) (int, error) {
	total := 0
	for _, p := range pm.passes {
		res := pm.runOne(m, p)
		pm.recordMetrics(res)
		pm.Results = append(pm.Results, res)
		total += res.Changed
		if !res.Failed {
			continue
		}
		switch pm.Policy {
		case FailFast, Rollback:
			return total, &FailureReport{Failures: []PassResult{res}}
		case SkipAndContinue:
			// keep going with the module in its pre-pass state
		}
	}
	return total, nil
}

// runOne executes a single pass under the manager's policy. Under any mode
// that must preserve the module on failure (a snapshotting policy or a
// time budget, whose expiry abandons the worker goroutine mid-mutation),
// the pass runs against a scratch clone that is committed into m only on
// success; m itself is never exposed to a failing or runaway pass.
func (pm *PassManager) runOne(m *core.Module, p ModulePass) PassResult {
	res := PassResult{Pass: p.Name()}
	isolated := pm.Policy != FailFast || pm.Timeout > 0 || pm.Validator != nil
	target := m
	if isolated {
		target = core.CloneModule(m)
		pm.Snapshots++
	}
	am := pm.manager()
	am.Prune(m) // drops what edits made outside the pipeline staled
	before := am.Stats()
	pm.Remarks.BeginPass()
	if rp, ok := p.(remarkable); ok {
		rp.setRemarks(pm.Remarks)
	}

	type outcome struct {
		n   int
		cpu time.Duration
		err error
	}
	runPass := func() (out outcome) {
		defer func() {
			if r := recover(); r != nil {
				out.err = fmt.Errorf("pass %q panicked: %v", p.Name(), r)
			}
		}()
		out.n, out.cpu = pm.dispatch(p, target, am)
		return
	}

	span := pm.Tracer.Begin(p.Name(), "pass", 0)
	start := time.Now()
	var out outcome
	timedOut := false
	if pm.Timeout > 0 {
		done := make(chan outcome, 1)
		go func() { done <- runPass() }()
		timer := time.NewTimer(pm.Timeout)
		defer timer.Stop()
		select {
		case out = <-done:
		case <-timer.C:
			out.err = fmt.Errorf("pass %q exceeded time budget %v", p.Name(), pm.Timeout)
			timedOut = true
		}
	} else {
		out = runPass()
	}
	res.Duration = time.Since(start)
	res.CPUTime = out.cpu
	if pm.Tracer != nil {
		span.EndArgs(map[string]string{
			"changed": strconv.Itoa(out.n),
			"failed":  strconv.FormatBool(out.err != nil),
		})
	}

	if out.err == nil && pm.VerifyEach {
		if verr := core.Verify(target); verr != nil {
			out.err = fmt.Errorf("module invalid after pass %q: %w", p.Name(), verr)
		}
	}
	if out.err != nil {
		res.Failed = true
		res.Err = out.err
		res.RolledBack = isolated
		// Isolated, m is untouched; otherwise the stamps of whatever
		// the failed pass edited have moved, and Prune sees that.
		am.Prune(m)
		res.addStatsDelta(am.Stats(), before)
		if timedOut {
			// The abandoned goroutine may keep publishing into this
			// manager; detach it so later passes start from a clean cache.
			pm.AM = nil
		}
		return res
	}
	if pm.Validator != nil && out.n > 0 {
		// The pre-pass module is still intact in m (validation forces
		// isolation), so the oracle reuses it as the before snapshot.
		v := pm.Validator.ValidatePass(p.Name(), m, target)
		res.Validation = v
		pm.Remarks.Analysisf("validate", v.Pos(), "%s: %s", p.Name(), v.Summary())
		if v.Verdict == validate.Miscompile {
			res.Failed = true
			res.Err = fmt.Errorf("pass %q miscompiled %%%s (counterexample %v): %s",
				p.Name(), v.Function, v.Counterexample, v.Detail)
			res.RolledBack = true
			am.Prune(m)
			res.addStatsDelta(am.Stats(), before)
			return res
		}
	}
	res.Changed = out.n
	// The clone carries m's stamps, so an isolated pass that edited
	// nothing leaves m, and every analysis cached for it, in place.
	if isolated && target.Version() != m.Version() {
		m.AdoptFrom(target)
	}
	// Drop what the pass's edits staled, and the entries of functions no
	// longer in m (adopted clone functions keep theirs).
	am.Prune(m)
	res.addStatsDelta(am.Stats(), before)
	return res
}

// dispatch runs p over target, routing manager-aware passes through am.
// Function-pass adapters additionally get the manager's parallelism and
// tracer. The second result is the pass's cpu-sum: per-function worker
// time for function passes, plain wall time for module passes.
func (pm *PassManager) dispatch(p ModulePass, target *core.Module, am *analysis.Manager) (int, time.Duration) {
	if ap, ok := p.(*funcPassAdapter); ok {
		return ap.runTimed(target, am, pm.parallelism(), pm.Tracer)
	}
	start := time.Now()
	var n int
	if ap, ok := p.(analysisModulePass); ok {
		n = ap.runOnModuleWith(target, am)
	} else {
		n = p.RunOnModule(target)
	}
	return n, time.Since(start)
}

// recordMetrics publishes one pass result into the metrics registry.
func (pm *PassManager) recordMetrics(r PassResult) {
	reg := pm.Metrics
	if reg == nil {
		return
	}
	reg.Counter("llvm_pass_runs_total", "pass", r.Pass).Inc()
	reg.Counter("llvm_pass_changes_total", "pass", r.Pass).Add(float64(r.Changed))
	if r.Failed {
		reg.Counter("llvm_pass_failures_total", "pass", r.Pass).Inc()
	}
	reg.Histogram("llvm_pass_wall_seconds", nil, "pass", r.Pass).Observe(r.Duration.Seconds())
	reg.Counter("llvm_pass_cpu_seconds_total", "pass", r.Pass).Add(r.CPUTime.Seconds())
	reg.Counter("llvm_analysis_cache_hits_total").Add(float64(r.AnalysisHits))
	reg.Counter("llvm_analysis_cache_misses_total").Add(float64(r.AnalysisMisses))
	reg.Counter("llvm_analysis_cache_invalidations_total").Add(float64(r.AnalysisInvalidations))
	if v := r.Validation; v != nil {
		reg.Counter("llvm_validate_runs_total", "pass", r.Pass).Inc()
		switch v.Verdict {
		case validate.Miscompile:
			reg.Counter("llvm_validate_confirmed_miscompiles_total", "pass", r.Pass).Inc()
		case validate.Inconclusive:
			reg.Counter("llvm_validate_inconclusive_total", "pass", r.Pass).Inc()
		}
	}
}

// addStatsDelta records the pass's cache activity as after-before.
func (r *PassResult) addStatsDelta(after, before analysis.Stats) {
	r.AnalysisHits = after.Hits - before.Hits
	r.AnalysisMisses = after.Misses - before.Misses
	r.AnalysisInvalidations = after.Invalidations - before.Invalidations
}

// funcPassAdapter lifts a FunctionPass to a ModulePass and is the pass
// manager's parallel scheduler: a worker pool transforms the module's
// non-declaration functions concurrently. Function-local SSA transforms are
// independent per function — the only cross-function state they touch is the
// use lists of shared values (functions, globals, constants), which the core
// guards with per-value locks — so any worker count produces the same module
// as a serial run. Change counts are aggregated in module order after all
// workers finish, keeping stats deterministic too.
type funcPassAdapter struct{ p FunctionPass }

func (a *funcPassAdapter) Name() string { return a.p.Name() }

// setRemarks forwards the collector to the wrapped pass.
func (a *funcPassAdapter) setRemarks(r *obs.Remarks) {
	if rp, ok := a.p.(remarkable); ok {
		rp.setRemarks(r)
	}
}

// RunOnModule runs the pass serially without an analysis cache, preserving
// the adapter's behavior for direct callers outside a PassManager.
func (a *funcPassAdapter) RunOnModule(m *core.Module) int {
	n, _ := a.runTimed(m, nil, 1, nil)
	return n
}

func (a *funcPassAdapter) runTimed(m *core.Module, am *analysis.Manager, parallelism int, tr *obs.Tracer) (int, time.Duration) {
	var fns []*core.Function
	for _, f := range m.Funcs {
		if !f.IsDeclaration() {
			fns = append(fns, f)
		}
	}
	counts := make([]int, len(fns))
	durs := make([]time.Duration, len(fns))
	if parallelism > len(fns) {
		parallelism = len(fns)
	}
	if parallelism <= 1 {
		for i, f := range fns {
			sp := tr.Begin(f.Name(), "function", 0)
			t0 := time.Now()
			counts[i] = a.runOn(f, am)
			durs[i] = time.Since(t0)
			sp.End()
		}
	} else {
		a.runParallel(fns, counts, durs, am, parallelism, tr)
	}
	n := 0
	var cpu time.Duration
	for i := range fns {
		cpu += durs[i]
		n += counts[i]
	}
	return n, cpu
}

// runOn transforms one function, through the manager when the pass is
// manager-aware.
func (a *funcPassAdapter) runOn(f *core.Function, am *analysis.Manager) int {
	if ap, ok := a.p.(analysisFunctionPass); ok {
		return ap.runOnFunctionWith(f, am)
	}
	return a.p.RunOnFunction(f)
}

// runParallel fans fns out to a worker pool. Each worker recovers panics per
// function so one bad function cannot kill the process or starve the pool;
// after all functions finish, the first panic (in module order, for
// determinism) is re-raised and flows into the pass manager's existing
// recover/Policy machinery like a serial pass panic would.
func (a *funcPassAdapter) runParallel(fns []*core.Function, counts []int, durs []time.Duration, am *analysis.Manager, workers int, tr *obs.Tracer) {
	type funcPanic struct {
		fn  string
		val any
	}
	panics := make([]*funcPanic, len(fns))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(fns) {
					return
				}
				func() {
					sp := tr.Begin(fns[i].Name(), "function", tid)
					t0 := time.Now()
					defer func() {
						durs[i] = time.Since(t0)
						sp.End()
						if r := recover(); r != nil {
							panics[i] = &funcPanic{fn: fns[i].Name(), val: r}
						}
					}()
					counts[i] = a.runOn(fns[i], am)
				}()
			}
		}(w + 1)
	}
	wg.Wait()
	for _, pc := range panics {
		if pc != nil {
			panic(fmt.Sprintf("function %q: %v", pc.fn, pc.val))
		}
	}
}

// StandardFunctionPasses returns the canonical clean-up pipeline run after
// a front-end (§3.2): scalar expansion, stack promotion, then scalar
// simplification to a fixed point.
func StandardFunctionPasses() []FunctionPass {
	return []FunctionPass{
		NewSROA(),
		NewMem2Reg(),
		NewInstCombine(),
		NewSCCP(),
		NewCSE(),
		NewLICM(),
		NewDSE(),
		NewADCE(),
		NewSimplifyCFG(),
	}
}

// AddStandardPipeline adds the standard per-function clean-up to pm.
func (pm *PassManager) AddStandardPipeline() *PassManager {
	return pm.AddFunctionPass(StandardFunctionPasses()...)
}

// AddLinkTimePipeline adds the link-time interprocedural optimizations in
// the order the linker runs them (§3.3), followed by a scalar clean-up.
func (pm *PassManager) AddLinkTimePipeline() *PassManager {
	pm.Add(
		NewIPConstProp(),
		NewInline(DefaultInlineThreshold),
		NewDeadArgElim(),
		NewDeadGlobalElim(),
		NewPruneEH(),
		NewGlobalLoadElim(),
		NewFieldReorder(),
		NewDeadTypeElim(),
	)
	return pm.AddStandardPipeline()
}
