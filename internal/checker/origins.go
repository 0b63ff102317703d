// Origin resolution: a flow-insensitive may-point-to set for every pointer
// value in a function, expressed over tracked allocation sites plus coarse
// buckets (null / global / unknown). The checker's definite diagnostics
// (errors) require a singleton origin, so the resolution must converge to
// the *complete* set of possibilities under the transfer rules below; the
// `unknown` bucket absorbs every producer the rules do not model.
package checker

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
)

// siteKind classifies a tracked allocation site.
type siteKind int

const (
	// siteMalloc is a heap allocation: a malloc instruction, or a call to
	// an internal function whose summary proves it returns fresh heap
	// memory (interprocedural allocation tracking).
	siteMalloc siteKind = iota
	// siteAlloca is a stack allocation.
	siteAlloca
	// siteArg is the object a pointer-typed argument points to. Tracked so
	// free() effects on arguments surface in the function's summary.
	siteArg
)

func (k siteKind) String() string {
	switch k {
	case siteMalloc:
		return "heap"
	case siteAlloca:
		return "stack"
	default:
		return "argument"
	}
}

// site is one abstract memory object tracked flow-sensitively inside a
// single function.
type site struct {
	kind     siteKind
	val      core.Value // *MallocInst, *AllocaInst, fresh call, or *Argument
	idx      int        // dense index into state vectors
	argIndex int        // argument position, for siteArg
	escaped  bool       // address leaves the function's hands (see escape pre-pass)
	name     string     // for messages: "%p" or a rendered description
}

// originSet is the may-point-to set of one pointer value: tracked local
// sites plus coarse buckets for everything else.
type originSet struct {
	sites   []int // sorted site indices
	null    bool
	global  bool // some global variable or function address
	unknown bool // loads, int casts, external results, ...
	gname   string
}

var unknownOrigin = &originSet{unknown: true}
var nullOrigin = &originSet{null: true}
var emptyOrigin = &originSet{}

// singleton reports whether the set is exactly one tracked site — the
// precondition for strong updates and definite (error-level) claims.
func (o *originSet) singleton() bool {
	return len(o.sites) == 1 && !o.null && !o.global && !o.unknown
}

// hasSite reports whether site index s is a member.
func (o *originSet) hasSite(s int) bool {
	for _, x := range o.sites {
		if x == s {
			return true
		}
		if x > s {
			return false
		}
	}
	return false
}

// addSite inserts s keeping sites sorted; reports whether the set changed.
func (o *originSet) addSite(s int) bool {
	i := 0
	for i < len(o.sites) && o.sites[i] < s {
		i++
	}
	if i < len(o.sites) && o.sites[i] == s {
		return false
	}
	o.sites = append(o.sites, 0)
	copy(o.sites[i+1:], o.sites[i:])
	o.sites[i] = s
	return true
}

// unionFrom merges src into o; reports whether o changed.
func (o *originSet) unionFrom(src *originSet) bool {
	changed := false
	for _, s := range src.sites {
		if o.addSite(s) {
			changed = true
		}
	}
	if src.null && !o.null {
		o.null = true
		changed = true
	}
	if src.global && !o.global {
		o.global = true
		o.gname = src.gname
		changed = true
	}
	if src.unknown && !o.unknown {
		o.unknown = true
		changed = true
	}
	return changed
}

// siteName renders a value's spelling for messages.
func (fc *fnCtx) siteName(v core.Value) string {
	if n := v.Name(); n != "" {
		return "%" + n
	}
	if inst, ok := v.(core.Instruction); ok {
		return "'" + fc.pr.InstString(inst) + "'"
	}
	return fmt.Sprintf("<%T>", v)
}

// collectSites enumerates the tracked sites of fc's function: pointer
// arguments, mallocs, allocas, and calls proven to return fresh heap memory.
func (fc *fnCtx) collectSites() {
	fc.siteOf = map[core.Value]int{}
	add := func(kind siteKind, v core.Value, argIdx int) {
		s := &site{kind: kind, val: v, idx: len(fc.sites), argIndex: argIdx, name: fc.siteName(v)}
		fc.sites = append(fc.sites, s)
		fc.siteOf[v] = s.idx
	}
	for i, a := range fc.f.Args {
		if a.Type().Kind() == core.PointerKind {
			add(siteArg, a, i)
		}
	}
	for _, b := range fc.f.Blocks {
		if !fc.reach[b] {
			continue
		}
		for _, inst := range b.Instrs {
			switch inst.(type) {
			case *core.MallocInst:
				add(siteMalloc, inst, -1)
			case *core.AllocaInst:
				add(siteAlloca, inst, -1)
			case *core.CallInst, *core.InvokeInst:
				if inst.Type() != nil && inst.Type().Kind() == core.PointerKind {
					if sum := fc.summaryFor(core.CalledFunctionOf(inst)); sum != nil && sum.returnsFresh {
						add(siteMalloc, inst, -1)
					}
				}
			}
		}
	}
}

// resolve returns the origin set of v. Constants resolve directly;
// instructions and arguments read the current fixpoint state (empty until
// computeOrigins has propagated to them).
func (fc *fnCtx) resolve(v core.Value) *originSet {
	if idx, ok := fc.siteOf[v]; ok {
		return &originSet{sites: []int{idx}}
	}
	switch x := v.(type) {
	case *core.GlobalVariable:
		return &originSet{global: true, gname: "%" + x.Name()}
	case *core.Function:
		return &originSet{global: true, gname: "%" + x.Name()}
	case *core.ConstantNull:
		return nullOrigin
	case *core.ConstantExpr:
		switch x.Op {
		case core.OpGetElementPtr:
			return fc.resolve(x.Operand(0))
		case core.OpCast:
			if x.Operand(0).Type().Kind() == core.PointerKind {
				return fc.resolve(x.Operand(0))
			}
			return unknownOrigin
		}
		return unknownOrigin
	case core.Instruction:
		if o := fc.org[v]; o != nil {
			return o
		}
		return emptyOrigin
	case *core.Argument:
		// Non-pointer args have no site; pointer args were handled above.
		return unknownOrigin
	}
	return unknownOrigin
}

// originOf applies the transfer rule for one pointer-producing instruction.
func (fc *fnCtx) originOf(inst core.Instruction) *originSet {
	switch x := inst.(type) {
	case *core.GetElementPtrInst:
		return fc.resolve(x.Base())
	case *core.CastInst:
		if x.Val().Type().Kind() == core.PointerKind {
			return fc.resolve(x.Val())
		}
		return unknownOrigin // int-to-pointer: provenance laundered
	case *core.PhiInst:
		out := &originSet{}
		for n := 0; n < x.NumIncoming(); n++ {
			v, _ := x.Incoming(n)
			out.unionFrom(fc.resolve(v))
		}
		return out
	case *core.LoadInst:
		return unknownOrigin // memory contents are not tracked per-cell
	case *core.CallInst, *core.InvokeInst:
		// Fresh-returning calls are sites (handled by resolve via siteOf);
		// reaching here means the callee is unknown or not fresh.
		if sum := fc.summaryFor(core.CalledFunctionOf(inst)); sum != nil && sum.returnsFresh && sum.mayReturnNull {
			// Site origin plus the null possibility.
			out := &originSet{null: true}
			out.unionFrom(fc.resolve(inst))
			return out
		}
		return unknownOrigin
	case *core.VAArgInst:
		return unknownOrigin
	}
	return unknownOrigin
}

// computeOrigins runs the union fixpoint over all pointer-typed
// instructions. Phi cycles converge because the transfer is monotone over
// a finite lattice (site set + three booleans).
func (fc *fnCtx) computeOrigins() {
	fc.org = map[core.Value]*originSet{}
	// Seed fresh-call sites so resolve() on the call value finds the site
	// even before the loop reaches it; malloc/alloca/args resolve via
	// siteOf directly.
	for changed := true; changed; {
		changed = false
		for _, b := range fc.f.Blocks {
			if !fc.reach[b] {
				continue
			}
			for _, inst := range b.Instrs {
				if inst.Type() == nil || inst.Type().Kind() != core.PointerKind {
					continue
				}
				if _, isSite := fc.siteOf[inst]; isSite {
					continue // own-site origin is constant
				}
				ns := fc.originOf(inst)
				cur := fc.org[inst]
				if cur == nil {
					cur = &originSet{}
					fc.org[inst] = cur
				}
				if cur.unionFrom(ns) {
					changed = true
				}
			}
		}
	}
}

// computeEscapes marks sites whose address leaves the function: stored to
// memory, returned, cast to an integer, or passed to a callee that lets the
// argument escape (externals and indirect callees conservatively do).
// Escaped sites may be written or freed behind the checker's back, so they
// never produce definite uninitialized-load claims and become vulnerable to
// may-free effects of opaque calls.
func (fc *fnCtx) computeEscapes() {
	mark := func(v core.Value) {
		for _, s := range fc.resolve(v).sites {
			fc.sites[s].escaped = true
		}
	}
	for _, b := range fc.f.Blocks {
		if !fc.reach[b] {
			continue
		}
		for _, inst := range b.Instrs {
			switch x := inst.(type) {
			case *core.StoreInst:
				if x.Val().Type().Kind() == core.PointerKind {
					mark(x.Val())
				}
			case *core.RetInst:
				if v := x.Value(); v != nil && v.Type().Kind() == core.PointerKind {
					mark(v)
				}
			case *core.CastInst:
				if x.Val().Type().Kind() == core.PointerKind && x.Type().Kind() != core.PointerKind {
					mark(x.Val())
				}
			case *core.CallInst:
				fc.markCallEscapes(x.Callee(), x.Args(), mark)
			case *core.InvokeInst:
				fc.markCallEscapes(x.Callee(), x.Args(), mark)
			}
		}
	}
}

func (fc *fnCtx) markCallEscapes(callee core.Value, args []core.Value, mark func(core.Value)) {
	// Direct calls give a single callee; indirect calls through constant
	// function-pointer tables resolve to their full candidate set, so a
	// pointer argument escapes only if some candidate's summary says so.
	targets, resolved := analysis.CallTargets(callee)
	for k, a := range args {
		if a.Type().Kind() != core.PointerKind {
			continue
		}
		if resolved && !fc.argEscapesAny(targets, k) {
			continue
		}
		// Unresolvable callee, external declaration, variadic extra, or a
		// callee in our own SCC (summary not ready): assume escape.
		mark(a)
	}
}

// argEscapesAny joins "argument k escapes" over a resolved callee set.
func (fc *fnCtx) argEscapesAny(targets []*core.Function, k int) bool {
	for _, t := range targets {
		if t.IsDeclaration() {
			return true
		}
		sum := fc.summaryFor(t)
		if sum == nil || k >= len(sum.escapesArg) || sum.escapesArg[k] {
			return true
		}
	}
	return false
}
