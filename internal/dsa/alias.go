// Alias queries, call effects, and function summaries layered on the DSA
// points-to graph. After Analyze finishes unification the result is frozen:
// every value is canonicalized to its class root (so concurrent queries
// never mutate the union-find) and taint is propagated — the pointee of an
// escaped or unknown class may be any object, because unseen code can store
// arbitrary pointers into escaped memory. Soundness rule throughout: a
// provenance-losing operation collapses to unknown (answer May), never to a
// false No.
package dsa

import (
	"sort"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/core"
)

// AliasResult is the answer lattice of Result.Alias.
type AliasResult uint8

// Alias answers. NoAlias means the two pointers provably never address
// overlapping memory; MustAlias means they provably address the same
// location; MayAlias is the safe default.
const (
	MayAlias AliasResult = iota
	NoAlias
	MustAlias
)

// String names the result.
func (r AliasResult) String() string {
	switch r {
	case NoAlias:
		return "no"
	case MustAlias:
		return "must"
	}
	return "may"
}

// Package-level query counters, read by llvm-opt -time and the server's
// /metrics surface.
var queryNo, queryMay, queryMust atomic.Int64

// QueryStats is a snapshot of the alias query counters.
type QueryStats struct {
	No, May, Must int64
}

// Total sums the counters.
func (s QueryStats) Total() int64 { return s.No + s.May + s.Must }

// Stats snapshots the package-wide alias query counters.
func Stats() QueryStats {
	return QueryStats{No: queryNo.Load(), May: queryMay.Load(), Must: queryMust.Load()}
}

// ResetStats zeroes the query counters (used by benchmarks).
func ResetStats() {
	queryNo.Store(0)
	queryMay.Store(0)
	queryMust.Store(0)
}

// Key registers the points-to analysis with the pass manager's analysis
// cache. A cached result holds while the module's version is unchanged:
// the first pass that edits the module drops it.
var Key = analysis.NewModuleKey("dsa.pointsto")

// Of returns the cached points-to result for m, computing it on a miss.
// Safe on a nil manager (computes fresh).
func Of(am *analysis.Manager, m *core.Module) *Result {
	return am.ModuleExt(Key, m, func(mm *core.Module) interface{} {
		return Analyze(mm)
	}).(*Result)
}

// FuncEffects records which abstract objects a function (transitively) may
// write or read. Because unification is module-wide, callee effect sets name
// the same nodes callers see — no rebinding is needed at call sites.
type FuncEffects struct {
	Mod, Ref map[*Node]bool
	// ModAll/RefAll: an unresolved indirect call was reached; any object
	// may be touched.
	ModAll, RefAll bool
	// ModEscaped/RefEscaped: external code runs; every escaped, unknown,
	// or tainted object may be touched, but provably non-escaping objects
	// are safe.
	ModEscaped, RefEscaped bool
}

// FuncSummary is the caller-facing contract of one function, persisted into
// the lifelong store so repeat compilations skip recomputation.
type FuncSummary struct {
	// ArgEscapes: the object passed via this argument may be retained
	// past the call (stored into a global, returned, or exposed to
	// external code).
	ArgEscapes []bool
	// ArgMod/ArgRef: the call may write/read the object the argument
	// points to.
	ArgMod, ArgRef []bool
	// ReturnsFresh: the returned pointer addresses heap memory allocated
	// during the call and reachable no other way.
	ReturnsFresh bool
}

// mayBeAnything reports whether the class can overlap arbitrary objects:
// unknown provenance, or tainted (loaded out of escaped memory).
func (r *Result) mayBeAnything(n *Node) bool {
	return n == nil || n.Unknown || r.tainted[n]
}

// Alias answers whether two pointer values may address overlapping memory.
func (r *Result) Alias(p, q core.Value) AliasResult {
	res := r.aliasImpl(p, q)
	switch res {
	case NoAlias:
		queryNo.Add(1)
	case MustAlias:
		queryMust.Add(1)
	default:
		queryMay.Add(1)
	}
	return res
}

func (r *Result) aliasImpl(p, q core.Value) AliasResult {
	if p == q {
		return MustAlias
	}
	_, pNull := p.(*core.ConstantNull)
	_, qNull := q.(*core.ConstantNull)
	if pNull || qNull {
		if pNull && qNull {
			return MustAlias // both null: same (non-)address
		}
		return NoAlias // null addresses no object
	}
	// Structural disambiguation first: two access paths rooted at the same
	// base value compare by their gep chains, independent of class flags —
	// the paths share a runtime base address, so constant-index divergence
	// means disjoint subobjects even inside an Unknown class.
	bp, tp := accessPath(p)
	bq, tq := accessPath(q)
	if bp == bq {
		return comparePaths(tp, tq)
	}
	np, nq := r.NodeFor(p), r.NodeFor(q)
	if np == nil || nq == nil {
		return MayAlias
	}
	if np != nq && !r.mayBeAnything(np) && !r.mayBeAnything(nq) {
		// Distinct classes with fully tracked provenance never overlap.
		return NoAlias
	}
	return MayAlias
}

// pathTok is one gep step of an access path. Casts are address-preserving
// and are skipped; each gep contributes a header token naming the indexed
// pointer type followed by one token per index, so equal prefixes guarantee
// the divergent indices select within the same aggregate.
type pathTok struct {
	hdr core.Type  // gep header: the indexed pointer type (nil for index toks)
	c   int64      // constant index value (valid when v == nil && hdr == nil)
	v   core.Value // non-constant index (compared by identity)
}

// accessPath peels gep and pointer-cast chains off v, returning the root
// base value and the gep tokens from base outward.
func accessPath(v core.Value) (core.Value, []pathTok) {
	var rev []pathTok // collected outermost-first
	for {
		switch x := v.(type) {
		case *core.GetElementPtrInst:
			rev = appendGEPToks(rev, x.Base().Type(), x.Indices())
			v = x.Base()
		case *core.CastInst:
			if x.Val().Type().Kind() != core.PointerKind {
				return v, reversePath(rev)
			}
			v = x.Val()
		case *core.ConstantExpr:
			switch x.Op {
			case core.OpGetElementPtr:
				base := x.Operand(0)
				idx := make([]core.Value, 0, len(x.Operands())-1)
				for i := 1; i < len(x.Operands()); i++ {
					idx = append(idx, x.Operand(i))
				}
				rev = appendGEPToks(rev, base.Type(), idx)
				v = base
			case core.OpCast:
				op := x.Operand(0)
				if op.Type().Kind() != core.PointerKind {
					return v, reversePath(rev)
				}
				v = op
			default:
				return v, reversePath(rev)
			}
		default:
			return v, reversePath(rev)
		}
	}
}

// appendGEPToks appends (in reverse chain order) the tokens of one gep.
func appendGEPToks(rev []pathTok, baseTy core.Type, indices []core.Value) []pathTok {
	// Indices first (they sit "outward" of the header in reversed order).
	for i := len(indices) - 1; i >= 0; i-- {
		if ci, ok := indices[i].(*core.ConstantInt); ok {
			rev = append(rev, pathTok{c: ci.SExt()})
		} else {
			rev = append(rev, pathTok{v: indices[i]})
		}
	}
	return append(rev, pathTok{hdr: baseTy})
}

func reversePath(rev []pathTok) []pathTok {
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// comparePaths compares two access paths over the same base value.
// Identical paths address the same location (Must). Paths whose first
// divergence is two different constant indices at the same structural
// position select disjoint subobjects (No). A path that is a prefix of the
// other contains it (May), and any divergence involving a variable index or
// differing gep headers is May.
func comparePaths(tp, tq []pathTok) AliasResult {
	n := len(tp)
	if len(tq) < n {
		n = len(tq)
	}
	for i := 0; i < n; i++ {
		a, b := tp[i], tq[i]
		if a == b {
			continue
		}
		// First divergence. Disjointness needs two constant index tokens.
		if a.hdr == nil && b.hdr == nil && a.v == nil && b.v == nil {
			return NoAlias
		}
		return MayAlias
	}
	if len(tp) == len(tq) {
		return MustAlias
	}
	return MayAlias // containment: one path extends the other
}

// CallMayMod reports whether calling f may modify the object n. A nil
// effects table (unanalyzed function) is conservative.
func (r *Result) CallMayMod(f *core.Function, n *Node) bool {
	fe := r.effects[f.Name()]
	if fe == nil || fe.ModAll {
		return true
	}
	if n == nil {
		return fe.ModEscaped || len(fe.Mod) > 0
	}
	if fe.ModEscaped && (n.Escaped || r.mayBeAnything(n)) {
		return true
	}
	return fe.Mod[n]
}

// CallMayRef reports whether calling f may read the object n.
func (r *Result) CallMayRef(f *core.Function, n *Node) bool {
	fe := r.effects[f.Name()]
	if fe == nil || fe.RefAll {
		return true
	}
	if n == nil {
		return fe.RefEscaped || len(fe.Ref) > 0
	}
	if fe.RefEscaped && (n.Escaped || r.mayBeAnything(n)) {
		return true
	}
	return fe.Ref[n]
}

// CallSiteMayMod resolves a call's callee set and joins CallMayMod over it.
// Unresolvable callees are conservative.
func (r *Result) CallSiteMayMod(callee core.Value, n *Node) bool {
	targets, ok := analysis.CallTargets(callee)
	if !ok {
		return true
	}
	for _, t := range targets {
		if r.CallMayMod(t, n) {
			return true
		}
	}
	return false
}

// CallSiteMayRef is CallSiteMayMod for reads.
func (r *Result) CallSiteMayRef(callee core.Value, n *Node) bool {
	targets, ok := analysis.CallTargets(callee)
	if !ok {
		return true
	}
	for _, t := range targets {
		if r.CallMayRef(t, n) {
			return true
		}
	}
	return false
}

// Effects returns f's effect summary, or nil for functions the analysis did
// not see (treat nil as "may do anything").
func (r *Result) Effects(f *core.Function) *FuncEffects { return r.effects[f.Name()] }

// Summary returns the caller-facing summary of the named function, or nil.
func (r *Result) Summary(name string) *FuncSummary { return r.summaries[name] }

// Restored reports whether this result was decoded from a persisted
// encoding rather than computed; restored results have no type information
// (TypeReliable is conservatively false) but full alias/effect data.
func (r *Result) Restored() bool { return r.restored }

// NumClasses counts the distinct frozen object classes, for reporting.
func (r *Result) NumClasses() int {
	seen := map[*Node]bool{}
	for _, n := range r.nodes {
		seen[n.find()] = true
	}
	return len(seen)
}

// freeze canonicalizes the union-find for read-only concurrent queries,
// propagates taint, and computes effects and summaries. Runs once at the end
// of Analyze, after classification (taint deliberately does not feed the
// Table 1 typed/untyped counts — those report what the unification itself
// proved).
func (a *analyzer) freeze(res *Result, m *core.Module) {
	for v, n := range a.nodes {
		a.nodes[v] = n.find()
	}
	roots := map[*Node]bool{}
	for _, n := range a.nodes {
		roots[n] = true
	}
	for f, ps := range a.params {
		for i, pn := range ps {
			if pn != nil {
				ps[i] = pn.find()
				roots[ps[i]] = true
			}
		}
		a.params[f] = ps
	}
	for f, rn := range a.retval {
		a.retval[f] = rn.find()
		roots[a.retval[f]] = true
	}
	// Canonicalize pointee links; pointees may be classes no value names.
	work := make([]*Node, 0, len(roots))
	for n := range roots {
		work = append(work, n)
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		if n.pointee != nil {
			p := n.pointee.find()
			n.pointee = p
			if !roots[p] {
				roots[p] = true
				work = append(work, p)
			}
		}
	}

	// Taint: anything reachable by loading out of an escaped or unknown
	// class may be any object — unseen code can store arbitrary pointers
	// into escaped memory.
	res.tainted = map[*Node]bool{}
	for changed := true; changed; {
		changed = false
		for n := range roots {
			if !(n.Unknown || n.Escaped || res.tainted[n]) || n.pointee == nil {
				continue
			}
			if !res.tainted[n.pointee] {
				res.tainted[n.pointee] = true
				changed = true
			}
		}
	}

	res.effects = a.computeEffects(res, m)
	res.summaries = a.computeSummaries(res, m)
}

// computeEffects builds per-function mod/ref object sets bottom-up to a
// fixed point.
func (a *analyzer) computeEffects(res *Result, m *core.Module) map[string]*FuncEffects {
	eff := map[string]*FuncEffects{}
	type site struct {
		caller  string
		targets []*core.Function
	}
	var sites []site
	for _, f := range m.Funcs {
		fe := &FuncEffects{Mod: map[*Node]bool{}, Ref: map[*Node]bool{}}
		if f.IsDeclaration() {
			fe.ModEscaped, fe.RefEscaped = true, true
		}
		eff[f.Name()] = fe
	}
	for _, f := range m.Funcs {
		if f.IsDeclaration() {
			continue
		}
		fe := eff[f.Name()]
		record := func(p core.Value, write bool) {
			n := res.NodeFor(p)
			if n == nil {
				// Unmodelled pointer producer: poison.
				if write {
					fe.ModAll = true
				} else {
					fe.RefAll = true
				}
				return
			}
			if write {
				fe.Mod[n] = true
			} else {
				fe.Ref[n] = true
			}
		}
		addCall := func(callee core.Value) {
			if targets, ok := analysis.CallTargets(callee); ok {
				sites = append(sites, site{caller: f.Name(), targets: targets})
				return
			}
			fe.ModAll, fe.RefAll = true, true
		}
		f.ForEachInst(func(inst core.Instruction) bool {
			switch i := inst.(type) {
			case *core.LoadInst:
				record(i.Ptr(), false)
			case *core.StoreInst:
				record(i.Ptr(), true)
			case *core.FreeInst:
				record(i.Ptr(), true)
			case *core.CallInst:
				addCall(i.Callee())
			case *core.InvokeInst:
				addCall(i.Callee())
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for _, s := range sites {
			fe := eff[s.caller]
			for _, t := range s.targets {
				ce := eff[t.Name()]
				if ce == nil {
					if !fe.ModAll || !fe.RefAll {
						fe.ModAll, fe.RefAll = true, true
						changed = true
					}
					continue
				}
				if mergeEffects(fe, ce) {
					changed = true
				}
			}
		}
	}
	return eff
}

// mergeEffects folds callee effects into the caller's, reporting growth.
func mergeEffects(dst, src *FuncEffects) bool {
	changed := false
	or := func(d *bool, s bool) {
		if s && !*d {
			*d = true
			changed = true
		}
	}
	or(&dst.ModAll, src.ModAll)
	or(&dst.RefAll, src.RefAll)
	or(&dst.ModEscaped, src.ModEscaped)
	or(&dst.RefEscaped, src.RefEscaped)
	for n := range src.Mod {
		if !dst.Mod[n] {
			dst.Mod[n] = true
			changed = true
		}
	}
	for n := range src.Ref {
		if !dst.Ref[n] {
			dst.Ref[n] = true
			changed = true
		}
	}
	return changed
}

// computeSummaries derives the caller-facing per-function summaries.
func (a *analyzer) computeSummaries(res *Result, m *core.Module) map[string]*FuncSummary {
	// Retained set: classes reachable (via pointees) from globals, return
	// values, or escaped/unknown classes — an object in it may outlive the
	// call that received it.
	retained := map[*Node]bool{}
	var mark func(n *Node)
	mark = func(n *Node) {
		for n != nil && !retained[n] {
			retained[n] = true
			n = n.pointee
		}
	}
	for _, g := range m.Globals {
		mark(a.nodes[g])
	}
	for _, rn := range a.retval {
		mark(rn)
	}
	for _, n := range a.nodes {
		if n.Unknown || n.Escaped {
			mark(n)
		}
	}

	out := map[string]*FuncSummary{}
	for _, f := range m.Funcs {
		s := &FuncSummary{
			ArgEscapes: make([]bool, len(f.Args)),
			ArgMod:     make([]bool, len(f.Args)),
			ArgRef:     make([]bool, len(f.Args)),
		}
		ps := a.params[f]
		for i := range f.Args {
			var pn *Node
			if i < len(ps) {
				pn = ps[i]
			}
			if pn == nil {
				continue // non-pointer argument
			}
			s.ArgEscapes[i] = retained[pn]
			s.ArgMod[i] = res.CallMayMod(f, pn)
			s.ArgRef[i] = res.CallMayRef(f, pn)
		}
		if f.IsDeclaration() {
			for i, arg := range f.Args {
				if arg.Type().Kind() == core.PointerKind {
					s.ArgEscapes[i], s.ArgMod[i], s.ArgRef[i] = true, true, true
				}
			}
		}
		if rn := a.retval[f]; rn != nil && !f.IsDeclaration() {
			// Fresh: heap-only class not reachable from globals or any
			// parameter — memory that did not exist before the call.
			fresh := rn.Heap && !rn.Stack && !rn.Global && !rn.Unknown && !res.tainted[rn]
			if fresh {
				reach := map[*Node]bool{}
				var walk func(n *Node)
				walk = func(n *Node) {
					for n != nil && !reach[n] {
						reach[n] = true
						n = n.pointee
					}
				}
				for _, g := range m.Globals {
					walk(a.nodes[g])
				}
				for _, pn := range ps {
					if pn != nil && pn.pointee != nil {
						walk(pn.pointee)
					}
				}
				fresh = !reach[rn]
			}
			s.ReturnsFresh = fresh
		}
		out[f.Name()] = s
	}
	return out
}

// sortedNodeIDs returns the ids of set's nodes in ascending order (encoding
// helper; ids assigns each class a deterministic number).
func sortedNodeIDs(set map[*Node]bool, ids map[*Node]int) []int {
	out := make([]int, 0, len(set))
	for n := range set {
		if id, ok := ids[n]; ok {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}
