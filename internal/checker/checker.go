// Package checker is a flow-sensitive, interprocedural static checker over
// the IR. It predicts the memory faults the execution sandbox can only
// observe — use-after-free, double-free, free of non-heap memory, loads of
// uninitialized stack slots, null dereferences — plus IR-lint findings
// (unreachable code, dead stores), and reports them as positioned
// diagnostics (internal/diag) at the same fn/block/inst coordinates the
// interpreter's Traps use.
//
// Severity policy: an Error is emitted only for facts proven on every
// execution reaching the position (singleton abstract states); everything
// "possible" is a Warning. This is the zero-false-error contract: a clean
// program never produces an error-level diagnostic.
package checker

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/dsa"
	"repro/internal/obs"
)

// Diagnostic kinds emitted by the checker.
const (
	KindUseAfterFree = "use-after-free"
	KindDoubleFree   = "double-free"
	KindFreeOfStack  = "free-of-stack"
	KindFreeOfGlobal = "free-of-global"
	KindUninitLoad   = "uninitialized-load"
	KindNullDeref    = "null-deref"
	KindUnreachable  = "unreachable-code"
	KindDeadStore    = "dead-store"
)

// Version names the checker's diagnostic output. Stored reports are keyed
// by (module hash, Version), so it must change whenever a change to the
// checker or to dsa can change the diagnostics any module produces;
// TestCheckerVersionPinsDiagnostics fails when they change and it does not.
const Version = "1"

// Cache keys under which the checker registers its module-level results in
// the shared analysis.Manager. Like every module analysis, a result holds
// while the module's version is unchanged: any pass that edits the module
// drops it.
var (
	// SummaryKey caches the bottom-up function-summary map. The points-to
	// result the checker refines free-target classification with is cached
	// under the shared dsa.Key, so the checker and the optimizer passes
	// reuse one computation per module.
	SummaryKey = analysis.NewModuleKey("checker-summaries")
)

// Abstract state of one tracked object, as a *set* of possible concrete
// states. Definite claims require a singleton set.
type objState uint8

const (
	stUninit objState = 1 << iota // allocated, never stored to
	stInit                        // allocated and possibly written
	stFreed                       // released
)

// Stats describes one checker run.
type Stats struct {
	Functions   int            `json:"functions"`    // bodies analyzed
	Diagnostics int            `json:"diagnostics"`  // total emitted
	Errors      int            `json:"errors"`       // error-severity subset
	ByKind      map[string]int `json:"by_kind"`      // tally per kind
	CacheHits   uint64         `json:"cache_hits"`   // analysis-manager hits during the run
	CacheMisses uint64         `json:"cache_misses"` // analysis-manager misses during the run
	Duration    time.Duration  `json:"duration_ns"`  // wall time of Check
}

// Report is the outcome of checking one module.
type Report struct {
	Diags []diag.Diagnostic
	Stats Stats
}

// Errors returns the error-severity diagnostics.
func (r *Report) Errors() []diag.Diagnostic { return diag.Filter(r.Diags, diag.Error) }

// Checker runs the analysis. The zero value is usable; AM and Parallelism
// are optional tuning knobs.
type Checker struct {
	// AM, when set, caches summaries/points-to/dominator trees across runs;
	// a cached result is reused while the IR it describes is unchanged.
	AM *analysis.Manager
	// Parallelism caps the per-function diagnostic workers (0 = GOMAXPROCS).
	// Output is deterministic at any setting: results are assembled in
	// module function order.
	Parallelism int
	// MinSeverity drops diagnostics below the given severity.
	MinSeverity diag.Severity
	// NoLint disables the warning-only lint kinds (unreachable-code,
	// dead-store), keeping only memory-safety findings.
	NoLint bool
	// Remarks, when set, receives one analysis remark per diagnostic, so a
	// -remarks run interleaves the checker's findings with the optimizer's
	// decisions in a single positioned stream.
	Remarks *obs.Remarks
}

// New returns a checker with default settings.
func New() *Checker { return &Checker{} }

// Check analyzes m and returns the report. Panics from malformed IR are
// recovered into an error (the same contract as the hardened decoder):
// hostile modules must not take the host down.
func (c *Checker) Check(m *core.Module) (rep *Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep = nil
			err = fmt.Errorf("checker: internal panic: %v", r)
		}
	}()
	start := time.Now()
	var h0, m0 uint64
	if c.AM != nil {
		s := c.AM.Stats()
		h0, m0 = s.Hits, s.Misses
	}

	cg := c.callGraph(m)
	mr := c.modRef(m, cg)
	sums := c.summaries(m, cg, mr)
	pt := c.pointsTo(m)

	// Per-function diagnostic runs are independent given the read-only
	// summaries; farm them out and reassemble in module order so the
	// output is identical at any worker count.
	funcs := make([]*core.Function, 0, len(m.Funcs))
	for _, f := range m.Funcs {
		if !f.IsDeclaration() {
			funcs = append(funcs, f)
		}
	}
	perFn := make([][]diag.Diagnostic, len(funcs))
	workers := c.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(funcs) {
		workers = len(funcs)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var workerErr error
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				func(i int) {
					defer func() {
						if r := recover(); r != nil {
							mu.Lock()
							if workerErr == nil {
								workerErr = fmt.Errorf("checker: panic analyzing %%%s: %v", funcs[i].Name(), r)
							}
							mu.Unlock()
						}
					}()
					perFn[i] = c.checkFunction(funcs[i], sums, mr, pt)
				}(i)
			}
		}()
	}
	for i := range funcs {
		next <- i
	}
	close(next)
	wg.Wait()
	if workerErr != nil {
		return nil, workerErr
	}

	rep = &Report{}
	for _, ds := range perFn {
		for _, d := range ds {
			if d.Sev >= c.MinSeverity {
				rep.Diags = append(rep.Diags, d)
			}
		}
	}
	rep.Stats = Stats{
		Functions:   len(funcs),
		Diagnostics: len(rep.Diags),
		Errors:      diag.CountErrors(rep.Diags),
		ByKind:      diag.CountByKind(rep.Diags),
		Duration:    time.Since(start),
	}
	if c.AM != nil {
		s := c.AM.Stats()
		rep.Stats.CacheHits = s.Hits - h0
		rep.Stats.CacheMisses = s.Misses - m0
	}
	if c.Remarks.Enabled() {
		// Diagnostics are already in deterministic module order; replaying
		// them as analysis remarks keeps the remark stream worker-count-
		// independent too.
		c.Remarks.BeginPass()
		for _, d := range rep.Diags {
			c.Remarks.Analysisf("check", d.Pos, "%s: %s", d.Kind, d.Msg)
		}
	}
	return rep, nil
}

func (c *Checker) callGraph(m *core.Module) *analysis.CallGraph {
	if c.AM != nil {
		return c.AM.CallGraph(m)
	}
	return analysis.NewCallGraph(m)
}

func (c *Checker) modRef(m *core.Module, cg *analysis.CallGraph) map[*core.Function]*analysis.ModRefInfo {
	if c.AM != nil {
		return c.AM.ModRef(m)
	}
	return analysis.ModRef(m, cg)
}

func (c *Checker) summaries(m *core.Module, cg *analysis.CallGraph, mr map[*core.Function]*analysis.ModRefInfo) map[*core.Function]*funcSummary {
	if c.AM != nil {
		v := c.AM.ModuleExt(SummaryKey, m, func(m *core.Module) interface{} {
			return c.computeSummaries(m, cg, mr)
		})
		return v.(map[*core.Function]*funcSummary)
	}
	return c.computeSummaries(m, cg, mr)
}

func (c *Checker) pointsTo(m *core.Module) *dsa.Result {
	return dsa.Of(c.AM, m)
}

// domTree fetches f's dominator tree, via the manager when available.
func (c *Checker) domTree(f *core.Function) *analysis.DomTree {
	if c.AM != nil {
		return c.AM.DomTree(f)
	}
	return analysis.NewDomTree(f)
}

// fnCtx carries one function's analysis state.
type fnCtx struct {
	c    *Checker
	f    *core.Function
	sums map[*core.Function]*funcSummary
	mr   map[*core.Function]*analysis.ModRefInfo
	pt   *dsa.Result

	reach  map[*core.BasicBlock]bool
	sites  []*site
	siteOf map[core.Value]int
	org    map[core.Value]*originSet
	in     map[*core.BasicBlock][]objState
	guards map[core.Value][]*core.BasicBlock
	dt     *analysis.DomTree
	pr     *core.FuncPrinter // every position string of f goes through it

	// Summary collection flags, set during transfer.
	argMayFree []bool
	argStored  []bool
	mayFreeAny bool

	emit func(inst core.Instruction, d diag.Diagnostic) // nil during fixpoint/summary runs
}

func (c *Checker) newFnCtx(f *core.Function, sums map[*core.Function]*funcSummary, mr map[*core.Function]*analysis.ModRefInfo) *fnCtx {
	return &fnCtx{
		c:          c,
		f:          f,
		sums:       sums,
		mr:         mr,
		reach:      analysis.ReachableBlocks(f),
		pr:         core.NewFuncPrinter(f),
		argMayFree: make([]bool, len(f.Args)),
		argStored:  make([]bool, len(f.Args)),
	}
}

// analyze builds sites, origins, escapes, and runs the forward fixpoint.
func (fc *fnCtx) analyze() {
	fc.collectSites()
	fc.computeOrigins()
	fc.computeEscapes()
	fc.runFixpoint()
}

// pos renders an instruction's diagnostic position, matching interp.Trap:
// the function name, the block label, and core.InstDebugString.
func (fc *fnCtx) pos(inst core.Instruction) diag.Pos {
	return diag.Pos{
		Fn:    fc.f.Name(),
		Block: inst.Parent().Name(),
		Inst:  fc.pr.InstString(inst),
	}
}

func (fc *fnCtx) report(inst core.Instruction, kind string, sev diag.Severity, format string, args ...interface{}) {
	if fc.emit == nil {
		return
	}
	fc.emit(inst, diag.New(kind, sev, fc.pos(inst), format, args...))
}

// entryState is the dataflow value at function entry: argument objects are
// live caller memory (initialized as far as we can claim), everything else
// not yet allocated.
func (fc *fnCtx) entryState() []objState {
	st := make([]objState, len(fc.sites))
	for _, s := range fc.sites {
		if s.kind == siteArg {
			st[s.idx] = stInit
		}
	}
	return st
}

func cloneState(s []objState) []objState {
	out := make([]objState, len(s))
	copy(out, s)
	return out
}

// joinInto ORs src into dst; reports change.
func joinInto(dst, src []objState) bool {
	changed := false
	for i, v := range src {
		if dst[i]|v != dst[i] {
			dst[i] |= v
			changed = true
		}
	}
	return changed
}

// runFixpoint iterates the forward transfer to a fixpoint over reachable
// blocks. The lattice is tiny (3 bits per site), so convergence is fast.
func (fc *fnCtx) runFixpoint() {
	fc.in = map[*core.BasicBlock][]objState{}
	entry := fc.f.Entry()
	if entry == nil {
		return
	}
	fc.in[entry] = fc.entryState()
	for changed := true; changed; {
		changed = false
		for _, b := range fc.f.Blocks {
			if !fc.reach[b] {
				continue
			}
			st, ok := fc.in[b]
			if !ok {
				continue
			}
			cur := cloneState(st)
			for _, inst := range b.Instrs {
				fc.transfer(inst, cur)
			}
			for _, succ := range b.Succs() {
				if dst, ok := fc.in[succ]; ok {
					if joinInto(dst, cur) {
						changed = true
					}
				} else {
					fc.in[succ] = cloneState(cur)
					changed = true
				}
			}
		}
	}
}

// stateAtExit replays a block's transfer from its fixpoint entry state.
func (fc *fnCtx) stateAtExit(b *core.BasicBlock) []objState {
	st, ok := fc.in[b]
	if !ok {
		return make([]objState, len(fc.sites))
	}
	cur := cloneState(st)
	for _, inst := range b.Instrs {
		fc.transfer(inst, cur)
	}
	return cur
}

// transfer applies one instruction to the abstract state, emitting
// diagnostics when fc.emit is set.
func (fc *fnCtx) transfer(inst core.Instruction, st []objState) {
	switch x := inst.(type) {
	case *core.MallocInst:
		// Strong update: the site abstracts its most recent allocation.
		s := fc.siteOf[inst]
		st[s] = stUninit
		if fc.sites[s].escaped {
			st[s] |= stInit
		}
	case *core.AllocaInst:
		s := fc.siteOf[inst]
		st[s] = stUninit
		if fc.sites[s].escaped {
			st[s] |= stInit
		}
	case *core.LoadInst:
		fc.checkDeref(inst, x.Ptr(), st, true)
	case *core.StoreInst:
		fc.checkDeref(inst, x.Ptr(), st, false)
		o := fc.resolve(x.Ptr())
		if o.singleton() {
			s := o.sites[0]
			st[s] = (st[s] &^ stUninit) | stInit
			if fc.sites[s].kind == siteArg {
				fc.argStored[fc.sites[s].argIndex] = true
			}
		} else {
			for _, s := range o.sites {
				st[s] |= stInit
				if fc.sites[s].kind == siteArg {
					fc.argStored[fc.sites[s].argIndex] = true
				}
			}
		}
	case *core.FreeInst:
		fc.transferFree(x, st)
	case *core.CallInst:
		fc.transferCall(inst, x.Callee(), x.Args(), st)
	case *core.InvokeInst:
		fc.transferCall(inst, x.Callee(), x.Args(), st)
	}
}

// markFreed adds the freed possibility to a site, recording arg summaries.
func (fc *fnCtx) markFreed(s int, st []objState, strong bool) {
	if strong {
		st[s] = stFreed
	} else {
		st[s] |= stFreed
	}
	if fc.sites[s].kind == siteArg {
		fc.argMayFree[fc.sites[s].argIndex] = true
	}
}

// checkDeref reports null/UAF/uninit findings for a load or store address.
func (fc *fnCtx) checkDeref(inst core.Instruction, ptr core.Value, st []objState, isLoad bool) {
	o := fc.resolve(ptr)
	what := "store"
	if isLoad {
		what = "load"
	}
	if o.null && !fc.nullGuarded(ptr, inst.Parent()) {
		if len(o.sites) == 0 && !o.global && !o.unknown {
			fc.report(inst, KindNullDeref, diag.Error, "%s through pointer that is null on every path", what)
		} else {
			fc.report(inst, KindNullDeref, diag.Warning, "%s through possibly-null pointer", what)
		}
	}
	// Definite claims need the whole origin set to agree: every possible
	// target proven faulted, with no null/global/unknown escape hatch.
	// May-claims need a singleton origin — warning about an object the
	// pointer merely *might* be would drown real findings in loop code.
	pure := len(o.sites) > 0 && !o.null && !o.global && !o.unknown
	if pure && allStates(st, o.sites, func(s objState) bool { return s == stFreed }) {
		fc.report(inst, KindUseAfterFree, diag.Error, "%s of %s memory %s after it is freed on every path", what, fc.sites[o.sites[0]].kind, fc.sites[o.sites[0]].name)
	} else if o.singleton() && st[o.sites[0]]&stFreed != 0 {
		fc.report(inst, KindUseAfterFree, diag.Warning, "%s of %s memory %s that may already be freed", what, fc.sites[o.sites[0]].kind, fc.sites[o.sites[0]].name)
	}
	if isLoad && pure &&
		allSites(fc, o.sites, func(s *site) bool { return s.kind == siteAlloca }) &&
		allStates(st, o.sites, func(s objState) bool { return s == stUninit }) {
		fc.report(inst, KindUninitLoad, diag.Error, "load of alloca %s before any store reaches it", fc.sites[o.sites[0]].name)
	}
}

// allStates reports whether pred holds for the state of every listed site.
func allStates(st []objState, sites []int, pred func(objState) bool) bool {
	for _, s := range sites {
		if !pred(st[s]) {
			return false
		}
	}
	return true
}

// allSites reports whether pred holds for every listed site.
func allSites(fc *fnCtx, sites []int, pred func(*site) bool) bool {
	for _, s := range sites {
		if !pred(fc.sites[s]) {
			return false
		}
	}
	return true
}

// transferFree checks and applies a free instruction.
func (fc *fnCtx) transferFree(x *core.FreeInst, st []objState) {
	fc.mayFreeAny = true
	o := fc.resolve(x.Ptr())
	// free(null) is defined as a no-op by the runtime; stay silent.
	if o.null && len(o.sites) == 0 && !o.global && !o.unknown {
		return
	}
	if o.global {
		if len(o.sites) == 0 && !o.unknown && !o.null {
			fc.report(x, KindFreeOfGlobal, diag.Error, "free of global %s", o.gname)
		} else {
			fc.report(x, KindFreeOfGlobal, diag.Warning, "free may target global %s", o.gname)
		}
	}
	pure := len(o.sites) > 0 && !o.null && !o.global && !o.unknown
	for _, s := range o.sites {
		target := fc.sites[s]
		if target.kind == siteAlloca {
			if pure && allSites(fc, o.sites, func(s *site) bool { return s.kind == siteAlloca }) {
				fc.report(x, KindFreeOfStack, diag.Error, "free of stack memory %s (alloca)", target.name)
			} else {
				fc.report(x, KindFreeOfStack, diag.Warning, "free may target stack memory %s (alloca)", target.name)
			}
			break
		}
	}
	if pure && allStates(st, o.sites, func(s objState) bool { return s == stFreed }) {
		fc.report(x, KindDoubleFree, diag.Error, "double free of %s: already freed on every path", fc.sites[o.sites[0]].name)
	} else if o.singleton() && st[o.sites[0]]&stFreed != 0 {
		fc.report(x, KindDoubleFree, diag.Warning, "possible double free of %s", fc.sites[o.sites[0]].name)
	}
	// No local knowledge at all: ask points-to whether the target is
	// provably non-heap (e.g. an alloca address loaded back out of a
	// struct field — the interprocedural case local origins cannot see).
	if o.unknown && len(o.sites) == 0 && !o.global && fc.pt != nil {
		if n := fc.pt.NodeFor(x.Ptr()); n != nil && !n.Unknown && !n.Collapsed && !n.Heap && (n.Stack || n.Global) {
			where := "stack"
			if n.Global && !n.Stack {
				where = "global"
			}
			fc.report(x, KindFreeOfStack, diag.Error, "free of provably non-heap (%s) memory (points-to analysis)", where)
		}
	}
	if o.singleton() {
		fc.markFreed(o.sites[0], st, true)
	} else {
		for _, s := range o.sites {
			fc.markFreed(s, st, false)
		}
	}
}

// transferCall applies a call's effects: argument frees/writes from the
// callee summary, and may-free/may-write effects on escaped sites.
func (fc *fnCtx) transferCall(inst core.Instruction, callee core.Value, args []core.Value, st []objState) {
	target, direct := callee.(*core.Function)
	known := direct && !target.IsDeclaration()
	var sum *funcSummary
	if known {
		sum = fc.sums[target]
		if sum == nil {
			// Recursive SCC member on the first bottom-up visit.
			sum = conservativeSummary(target)
		}
	}
	// For an indirect call whose function-pointer targets fully resolve,
	// join the candidate summaries instead of assuming the worst.
	var resolvedTargets []*core.Function
	if !direct {
		if ts, ok := analysis.ResolveCallees(callee); ok && len(ts) > 0 {
			resolvedTargets = ts
		}
	}

	for k, a := range args {
		if a.Type().Kind() != core.PointerKind {
			continue
		}
		o := fc.resolve(a)
		var mayFree, mustFree, stores bool
		switch {
		case known && k < len(sum.mayFreeArg):
			mayFree, mustFree, stores = sum.mayFreeArg[k], sum.mustFreeArg[k], sum.storesToArg[k]
		case known:
			stores = true // variadic extras: assume written, not freed
		case direct:
			// External declaration: may write through the pointer but can
			// never free it — free is a first-class instruction, so only
			// defined functions release memory.
			stores = true
		case resolvedTargets != nil:
			// Resolved indirect call: an effect is possible only if some
			// candidate's summary has it. mustFree stays false — a
			// definite claim needs a single known callee.
			for _, t := range resolvedTargets {
				if t.IsDeclaration() {
					stores = true
					continue
				}
				tsum := fc.sums[t]
				if tsum == nil {
					tsum = conservativeSummary(t)
				}
				if k < len(tsum.mayFreeArg) {
					mayFree = mayFree || tsum.mayFreeArg[k]
					stores = stores || tsum.storesToArg[k]
				} else {
					stores = true
				}
			}
		default:
			// Unresolvable indirect call: could reach any address-taken
			// defined function, so both effects are possible.
			stores, mayFree = true, true
		}
		strong := o.singleton()
		for _, s := range o.sites {
			cur := st[s]
			if mustFree && strong {
				if cur == stFreed {
					fc.report(inst, KindDoubleFree, diag.Error, "double free of %s: callee %%%s frees its argument, but it is already freed on every path", fc.sites[s].name, target.Name())
				}
				fc.markFreed(s, st, true)
			} else if mayFree || mustFree {
				if cur&stFreed != 0 && fc.emit != nil && known {
					fc.report(inst, KindDoubleFree, diag.Warning, "possible double free of %s via callee %%%s", fc.sites[s].name, target.Name())
				}
				fc.markFreed(s, st, false)
			}
			if stores {
				st[s] |= stInit
				if fc.sites[s].kind == siteArg {
					fc.argStored[fc.sites[s].argIndex] = true
				}
			}
		}
	}

	// Effects through memory: a callee that writes or frees unnamed memory
	// can reach any site whose address escaped.
	var freesAny, modAny bool
	switch {
	case known:
		freesAny = sum.mayFreeAny
		modAny = true
		if mri := fc.mr[target]; mri != nil {
			modAny = mri.ModAny || len(mri.Mod) > 0
			// ModRef is a second gate: a callee that provably writes
			// nothing it wasn't handed cannot free reachable memory.
			freesAny = freesAny && mri.ModAny
		}
	case direct:
		freesAny, modAny = false, true // external: writes maybe, frees never
	case resolvedTargets != nil:
		// Resolved indirect: join the candidates' unnamed-memory effects.
		for _, t := range resolvedTargets {
			if t.IsDeclaration() {
				modAny = true
				continue
			}
			tsum := fc.sums[t]
			if tsum == nil {
				tsum = conservativeSummary(t)
			}
			fAny, mAny := tsum.mayFreeAny, true
			if mri := fc.mr[t]; mri != nil {
				mAny = mri.ModAny || len(mri.Mod) > 0
				fAny = fAny && mri.ModAny
			}
			freesAny = freesAny || fAny
			modAny = modAny || mAny
		}
	default:
		freesAny, modAny = true, true // unresolvable indirect
	}
	if known || !direct {
		fc.mayFreeAny = fc.mayFreeAny || freesAny
	}
	if modAny || freesAny {
		for _, s := range fc.sites {
			if !s.escaped {
				continue
			}
			if freesAny {
				fc.markFreed(s.idx, st, false)
			}
			if modAny {
				st[s.idx] |= stInit
				if s.kind == siteArg {
					fc.argStored[s.argIndex] = true
				}
			}
		}
	}
}

// --- null-guard detection -------------------------------------------------

// computeGuards finds the classic "if (p != null)" pattern: a conditional
// branch on a comparison of p against null whose non-null successor has the
// branch block as its only predecessor. Dominance by that successor then
// proves p non-null, suppressing null-deref findings in guarded code.
func (fc *fnCtx) computeGuards() {
	fc.guards = map[core.Value][]*core.BasicBlock{}
	for _, b := range fc.f.Blocks {
		if !fc.reach[b] {
			continue
		}
		br, ok := b.Terminator().(*core.BranchInst)
		if !ok || !br.IsConditional() {
			continue
		}
		cmp, ok := br.Cond().(*core.BinaryInst)
		if !ok {
			continue
		}
		isNull := func(v core.Value) bool { _, ok := v.(*core.ConstantNull); return ok }
		var ptr core.Value
		switch {
		case isNull(cmp.RHS()):
			ptr = cmp.LHS()
		case isNull(cmp.LHS()):
			ptr = cmp.RHS()
		default:
			continue
		}
		var nonnull *core.BasicBlock
		switch cmp.Opcode() {
		case core.OpSetNE:
			nonnull = br.TrueDest()
		case core.OpSetEQ:
			nonnull = br.FalseDest()
		default:
			continue
		}
		if nonnull == br.TrueDest() && nonnull == br.FalseDest() {
			continue
		}
		if len(nonnull.Preds()) == 1 {
			fc.guards[ptr] = append(fc.guards[ptr], nonnull)
		}
	}
}

// nullGuarded reports whether a dereference of ptr in block at is dominated
// by a non-null guard of ptr (or of the base it is derived from by
// gep/cast).
func (fc *fnCtx) nullGuarded(ptr core.Value, at *core.BasicBlock) bool {
	if len(fc.guards) == 0 || fc.dt == nil {
		return false
	}
	for v := ptr; v != nil; {
		for _, g := range fc.guards[v] {
			if fc.dt.Dominates(g, at) {
				return true
			}
		}
		switch x := v.(type) {
		case *core.GetElementPtrInst:
			v = x.Base()
		case *core.CastInst:
			if x.Val().Type().Kind() == core.PointerKind {
				v = x.Val()
			} else {
				return false
			}
		default:
			return false
		}
	}
	return false
}

// --- per-function diagnostic run ------------------------------------------

// checkFunction runs the full analysis on one function and returns its
// diagnostics in block/instruction order.
func (c *Checker) checkFunction(f *core.Function, sums map[*core.Function]*funcSummary, mr map[*core.Function]*analysis.ModRefInfo, pt *dsa.Result) []diag.Diagnostic {
	fc := c.newFnCtx(f, sums, mr)
	fc.pt = pt
	fc.dt = c.domTree(f)
	fc.analyze()
	fc.computeGuards()

	var out []diag.Diagnostic
	seen := map[string]bool{} // dedupe identical findings at one position
	fc.emit = func(inst core.Instruction, d diag.Diagnostic) {
		k := d.Key()
		if seen[k] {
			return
		}
		seen[k] = true
		out = append(out, d)
	}

	// Replay every reachable block once from its fixpoint entry state,
	// emitting as we go.
	for _, b := range f.Blocks {
		if !fc.reach[b] {
			continue
		}
		st, ok := fc.in[b]
		if !ok {
			continue
		}
		cur := cloneState(st)
		for _, inst := range b.Instrs {
			fc.transfer(inst, cur)
		}
	}
	fc.emit = nil

	if !c.NoLint {
		out = append(out, fc.lintUnreachable()...)
		out = append(out, fc.lintDeadStores()...)
	}
	sortDiags(f, fc.pr, out)
	return out
}

// lintUnreachable reports blocks the CFG cannot reach from entry.
func (fc *fnCtx) lintUnreachable() []diag.Diagnostic {
	var out []diag.Diagnostic
	for _, b := range fc.f.Blocks {
		if fc.reach[b] || len(b.Instrs) == 0 {
			continue
		}
		out = append(out, diag.New(KindUnreachable, diag.Warning, fc.pos(b.Instrs[0]),
			"block %%%s is unreachable from entry", b.Name()))
	}
	return out
}

// lintDeadStores finds stores to non-escaped single-site targets whose
// value can never be read: no later load of the site on any path. Backward
// liveness over sites; a site is read by loads through any pointer whose
// origins include it and by calls that can see it.
func (fc *fnCtx) lintDeadStores() []diag.Diagnostic {
	n := len(fc.sites)
	if n == 0 {
		return nil
	}
	// liveOut per block, iterate to fixpoint (backward).
	liveIn := map[*core.BasicBlock][]bool{}
	gen := func(inst core.Instruction, live []bool) {
		switch x := inst.(type) {
		case *core.LoadInst:
			for _, s := range fc.resolve(x.Ptr()).sites {
				live[s] = true
			}
		case *core.StoreInst:
			// Kill only whole-object strong stores (the pointer is the
			// allocation itself, not an interior gep).
			if o := fc.resolve(x.Ptr()); o.singleton() {
				if _, whole := fc.siteOf[x.Ptr()]; whole {
					live[o.sites[0]] = false
				}
			}
		case *core.CallInst:
			fc.genCall(x.Args(), live)
		case *core.InvokeInst:
			fc.genCall(x.Args(), live)
		}
	}
	blockLive := func(b *core.BasicBlock) []bool {
		live := make([]bool, n)
		for _, succ := range b.Succs() {
			if li := liveIn[succ]; li != nil {
				for i, v := range li {
					if v {
						live[i] = true
					}
				}
			}
		}
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			gen(b.Instrs[i], live)
		}
		return live
	}
	for changed := true; changed; {
		changed = false
		for i := len(fc.f.Blocks) - 1; i >= 0; i-- {
			b := fc.f.Blocks[i]
			if !fc.reach[b] {
				continue
			}
			live := blockLive(b)
			old := liveIn[b]
			if old == nil {
				liveIn[b] = live
				changed = true
				continue
			}
			for j, v := range live {
				if v && !old[j] {
					old[j] = true
					changed = true
				}
			}
		}
	}

	var out []diag.Diagnostic
	for _, b := range fc.f.Blocks {
		if !fc.reach[b] {
			continue
		}
		live := make([]bool, n)
		for _, succ := range b.Succs() {
			if li := liveIn[succ]; li != nil {
				for i, v := range li {
					if v {
						live[i] = true
					}
				}
			}
		}
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			inst := b.Instrs[i]
			if st, ok := inst.(*core.StoreInst); ok {
				if o := fc.resolve(st.Ptr()); o.singleton() {
					s := o.sites[0]
					if !fc.sites[s].escaped && fc.sites[s].kind != siteArg && !live[s] {
						out = append(out, diag.New(KindDeadStore, diag.Warning, fc.pos(st),
							"store to %s is never read", fc.sites[s].name))
					}
				}
			}
			gen(inst, live)
		}
	}
	return out
}

// genCall marks sites visible to a callee as read: passed directly, or
// escaped (reachable through memory). Frees do not read contents, but a
// callee that receives the pointer may.
func (fc *fnCtx) genCall(args []core.Value, live []bool) {
	for _, a := range args {
		if a.Type().Kind() != core.PointerKind {
			continue
		}
		for _, s := range fc.resolve(a).sites {
			live[s] = true
		}
	}
	for _, s := range fc.sites {
		if s.escaped {
			live[s.idx] = true
		}
	}
}

// sortDiags orders diagnostics by block layout order, then instruction
// order, then kind — a stable order independent of emission interleaving.
// pr is f's printer, so the position strings it matches are the ones the
// diagnostics carry.
func sortDiags(f *core.Function, pr *core.FuncPrinter, ds []diag.Diagnostic) {
	if len(ds) < 2 {
		return
	}
	blockIdx := map[string]int{}
	instIdx := map[string]map[string]int{}
	for bi, b := range f.Blocks {
		blockIdx[b.Name()] = bi
		im := map[string]int{}
		for ii, inst := range b.Instrs {
			s := pr.InstString(inst)
			if _, dup := im[s]; !dup {
				im[s] = ii
			}
		}
		instIdx[b.Name()] = im
	}
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if blockIdx[a.Pos.Block] != blockIdx[b.Pos.Block] {
			return blockIdx[a.Pos.Block] < blockIdx[b.Pos.Block]
		}
		ia := instIdx[a.Pos.Block][a.Pos.Inst]
		ib := instIdx[b.Pos.Block][b.Pos.Inst]
		if ia != ib {
			return ia < ib
		}
		return a.Kind < b.Kind
	})
}

// --- pass-manager integration ---------------------------------------------

// Pass adapts the checker as a read-only module pass ("check" in pipeline
// spellings). It never mutates IR (0 changes) and records its last report
// for the driver to print.
type Pass struct {
	C    *Checker
	Last *Report
	Err  error
}

// NewPass returns a checker pass wrapping c (nil for defaults).
func NewPass(c *Checker) *Pass {
	if c == nil {
		c = New()
	}
	return &Pass{C: c}
}

// Name implements passes.ModulePass.
func (p *Pass) Name() string { return "check" }

// RunOnModule implements passes.ModulePass.
func (p *Pass) RunOnModule(m *core.Module) int {
	p.Last, p.Err = p.C.Check(m)
	return 0
}
