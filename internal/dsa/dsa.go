// Package dsa implements the core of Data Structure Analysis used by the
// paper's Table 1: a flow-insensitive, unification-based, field-aware
// points-to analysis that uses declared types as *speculative* information
// and conservatively verifies that every access to an object is consistent
// with them (§4.1.1). It does no type inference and enforces nothing; it
// simply classifies each static load and store as "typed" (the pointed-to
// object's type is reliably known) or "untyped" (type information was lost
// to incompatible casts, unknown callees, or int-to-pointer arithmetic).
//
// The implementation processes functions bottom-up over the call graph and
// unifies abstract memory objects: one node per allocation site (malloc,
// alloca, global), plus nodes for unknown memory reached through external
// code. Casting between incompatible pointer types, passing a pointer to
// an external function, or materializing a pointer from an integer
// collapses the node, discarding its type.
package dsa

import (
	"repro/internal/analysis"
	"repro/internal/core"
)

// Node is an abstract memory object (equivalence class of a union-find).
type Node struct {
	parent *Node
	// Ty is the believed object type (nil while unknown).
	Ty core.Type
	// Collapsed means incompatible uses reached the object: its type
	// information is unreliable.
	Collapsed bool
	// Unknown marks memory of unknown provenance (external, int casts).
	// An Unknown class may overlap any object, so alias queries against
	// it always answer May.
	Unknown bool
	// Escaped marks objects whose address is exposed to code the
	// analysis cannot see (external callees, unresolved indirect calls,
	// external-linkage globals): unknown code may read, write, or retain
	// pointers into them. Propagated transitively over pointees when the
	// analysis freezes.
	Escaped bool
	// Heap/Stack/Global record how the object is allocated.
	Heap, Stack, Global bool
	// Sites are the allocation sites merged into this class, for
	// per-site reporting and summaries.
	Sites []Site
	// pointee is the object that pointers stored *inside* this object
	// point to (one per node; cells are merged).
	pointee *Node
}

// SiteKind classifies an allocation site.
type SiteKind uint8

// Allocation-site kinds.
const (
	SiteAlloca SiteKind = iota
	SiteMalloc
	SiteGlobal
	SiteUnknown
)

// String names the kind.
func (k SiteKind) String() string {
	switch k {
	case SiteAlloca:
		return "alloca"
	case SiteMalloc:
		return "malloc"
	case SiteGlobal:
		return "global"
	}
	return "unknown"
}

// Site identifies one allocation site: an alloca or malloc instruction
// (with its owning function) or a global variable.
type Site struct {
	Kind SiteKind
	Fn   string // owning function; "" for globals
	Name string // instruction or global name
}

// find returns the representative of the node's class.
func (n *Node) find() *Node {
	for n.parent != nil {
		if n.parent.parent != nil {
			n.parent = n.parent.parent
		}
		n = n.parent
	}
	return n
}

// Result holds the analysis outcome for a module.
type Result struct {
	// Typed/Untyped count static load+store instructions.
	TypedLoads, UntypedLoads   int
	TypedStores, UntypedStores int
	// PerFunction breaks the counts down.
	PerFunction map[string]*Counts
	// nodes maps pointer SSA values to their object nodes.
	nodes map[core.Value]*Node
	// dirtyViews are struct types used to address objects whose identity
	// is collapsed or unknown (their layout is load-bearing for untrusted
	// code paths and must not change).
	dirtyViews []core.Type
	// tainted marks classes loaded out of escaped/unknown memory: unseen
	// code may have stored any pointer there, so they may be any object.
	tainted map[*Node]bool
	// effects and summaries are the frozen per-function mod/ref object
	// sets and caller-facing contracts (see alias.go).
	effects   map[string]*FuncEffects
	summaries map[string]*FuncSummary
	// restored is set on results decoded from a persisted encoding.
	restored bool
}

// Counts is a per-function tally.
type Counts struct {
	TypedAccesses   int
	UntypedAccesses int
}

// Typed returns total provably-typed accesses.
func (r *Result) Typed() int { return r.TypedLoads + r.TypedStores }

// Untyped returns total unproven accesses.
func (r *Result) Untyped() int { return r.UntypedLoads + r.UntypedStores }

// TypedPercent returns the Table 1 metric.
func (r *Result) TypedPercent() float64 {
	total := r.Typed() + r.Untyped()
	if total == 0 {
		return 100.0
	}
	return 100.0 * float64(r.Typed()) / float64(total)
}

// NodeFor returns the abstract object a pointer value refers to, or nil.
func (r *Result) NodeFor(v core.Value) *Node {
	if n := r.nodes[v]; n != nil {
		return n.find()
	}
	return nil
}

// analyzer carries the module-wide unification state.
type analyzer struct {
	nodes  map[core.Value]*Node
	params map[*core.Function][]*Node // callee parameter nodes
	retval map[*core.Function]*Node
}

// Analyze runs the analysis over a module.
func Analyze(m *core.Module) *Result {
	a := &analyzer{
		nodes:  map[core.Value]*Node{},
		params: map[*core.Function][]*Node{},
		retval: map[*core.Function]*Node{},
	}

	// Global variables: one node each, typed by the declared value type.
	for _, g := range m.Globals {
		n := &Node{Ty: g.ValueType, Global: true}
		n.Sites = []Site{{Kind: SiteGlobal, Name: g.Name()}}
		if g.IsDeclaration() {
			// External memory: contents unknown, but the object's own
			// type is still declared.
			n.Unknown = true
			n.Escaped = true
		}
		if g.Linkage == core.ExternalLinkage {
			// Other translation units may hold the global's address.
			n.Escaped = true
		}
		a.nodes[g] = n
	}

	cg := analysis.NewCallGraph(m)
	addrTaken := analysis.AddressTakenFunctions(m)

	// Parameter and return nodes first, so call-site unification works in
	// any order; bottom-up order improves precision of collapse spread.
	for _, f := range m.Funcs {
		ps := make([]*Node, len(f.Args))
		for i, arg := range f.Args {
			if arg.Type().Kind() == core.PointerKind {
				pn := a.freshPointeeFor(arg.Type())
				ps[i] = pn
				a.nodes[arg] = pn
				// Address-taken or external functions receive pointers of
				// unknown provenance.
				if f.Linkage == core.ExternalLinkage || addrTaken[f] {
					pn.Unknown = true
					pn.Escaped = true
				}
			}
		}
		a.params[f] = ps
		if f.Sig.Ret.Kind() == core.PointerKind {
			a.retval[f] = &Node{Unknown: f.IsDeclaration(), Escaped: f.IsDeclaration()}
			if f.IsDeclaration() {
				a.collapse(a.retval[f])
			}
		}
	}

	for _, f := range cg.PostOrder() {
		if !f.IsDeclaration() {
			a.analyzeFunction(f)
		}
	}

	// Classification pass.
	res := &Result{PerFunction: map[string]*Counts{}, nodes: a.nodes}
	recordDirtyView := func(gepBase core.Value, indices []core.Value) {
		n := a.nodeFor(gepBase)
		if !n.Collapsed && !n.Unknown {
			return
		}
		pt, ok := gepBase.Type().(*core.PointerType)
		if !ok {
			return
		}
		cur := core.Type(pt.Elem)
		for k, idx := range indices {
			if k == 0 {
				continue
			}
			switch ct := cur.(type) {
			case *core.StructType:
				res.dirtyViews = append(res.dirtyViews, ct)
				ci, ok := idx.(*core.ConstantInt)
				if !ok {
					return
				}
				cur = ct.Fields[int(ci.SExt())]
			case *core.ArrayType:
				cur = ct.Elem
			default:
				return
			}
		}
	}
	for _, f := range m.Funcs {
		f.ForEachInst(func(inst core.Instruction) bool {
			if gep, ok := inst.(*core.GetElementPtrInst); ok {
				recordDirtyView(gep.Base(), gep.Indices())
			}
			return true
		})
	}
	for _, f := range m.Funcs {
		if f.IsDeclaration() {
			continue
		}
		c := &Counts{}
		res.PerFunction[f.Name()] = c
		f.ForEachInst(func(inst core.Instruction) bool {
			var ptr core.Value
			isLoad := false
			switch i := inst.(type) {
			case *core.LoadInst:
				ptr, isLoad = i.Ptr(), true
			case *core.StoreInst:
				ptr = i.Ptr()
			default:
				return true
			}
			typed := a.isTyped(ptr)
			if typed {
				c.TypedAccesses++
				if isLoad {
					res.TypedLoads++
				} else {
					res.TypedStores++
				}
			} else {
				c.UntypedAccesses++
				if isLoad {
					res.UntypedLoads++
				} else {
					res.UntypedStores++
				}
			}
			return true
		})
	}
	a.freeze(res, m)
	return res
}

// freshPointeeFor makes an object node for what a pointer of type pt
// points at, speculatively typed by the pointee type.
func (a *analyzer) freshPointeeFor(pt core.Type) *Node {
	if p, ok := pt.(*core.PointerType); ok {
		return &Node{Ty: p.Elem}
	}
	return &Node{}
}

// nodeFor returns (creating if necessary) the object node a pointer value
// refers to.
func (a *analyzer) nodeFor(v core.Value) *Node {
	if n, ok := a.nodes[v]; ok {
		return n.find()
	}
	var n *Node
	switch x := v.(type) {
	case *core.ConstantNull:
		n = &Node{} // null: no object; harmless placeholder
	case *core.ConstantUndef:
		n = &Node{Unknown: true}
	case *core.Function:
		n = &Node{Ty: x.Sig, Global: true}
	case *core.ConstantExpr:
		switch x.Op {
		case core.OpGetElementPtr:
			n = a.nodeFor(x.Operand(0))
		case core.OpCast:
			n = a.castNode(x.Operand(0), x.Type())
		default:
			n = &Node{Unknown: true}
		}
	case core.Instruction, *core.Argument:
		// Not yet visited (e.g. a phi referencing a later definition):
		// start with an empty class; the defining instruction's handler
		// unifies the real facts in via setNode. Unhandled pointer
		// producers (vaarg) are collapsed by analyzeFunction.
		n = &Node{}
	default:
		// Unmodelled pointer source.
		n = &Node{Unknown: true}
		a.collapse(n)
	}
	a.nodes[v] = n
	return n.find()
}

// setNode records the object node for an SSA value, unifying with any
// node created earlier by a (rare) forward reference.
func (a *analyzer) setNode(v core.Value, n *Node) {
	if old, ok := a.nodes[v]; ok {
		n = a.unify(old, n)
	}
	a.nodes[v] = n
}

// collapse discards a node's type information.
func (a *analyzer) collapse(n *Node) {
	n = n.find()
	n.Collapsed = true
}

// unify merges two object classes, reconciling their types.
func (a *analyzer) unify(x, y *Node) *Node {
	x, y = x.find(), y.find()
	if x == y {
		return x
	}
	y.parent = x
	x.Collapsed = x.Collapsed || y.Collapsed
	x.Unknown = x.Unknown || y.Unknown
	x.Escaped = x.Escaped || y.Escaped
	x.Heap = x.Heap || y.Heap
	x.Stack = x.Stack || y.Stack
	x.Global = x.Global || y.Global
	x.Sites = mergeSites(x.Sites, y.Sites)
	y.Sites = nil
	switch {
	case x.Ty == nil:
		x.Ty = y.Ty
	case y.Ty == nil:
		// keep x.Ty
	case x.Ty != y.Ty:
		// Two different object types flowing together: type info is gone
		// (e.g. "using different structure types for the same objects",
		// which the paper cites as a leading cause of untyped accesses).
		x.Collapsed = true
	}
	if y.pointee != nil {
		if x.pointee != nil {
			a.unify(x.pointee, y.pointee)
		} else {
			x.pointee = y.pointee
		}
	}
	return x
}

// mergeSites appends the sites of y not already present in x, preserving
// first-encounter order so the merged list is deterministic.
func mergeSites(x, y []Site) []Site {
	for _, s := range y {
		dup := false
		for _, t := range x {
			if t == s {
				dup = true
				break
			}
		}
		if !dup {
			x = append(x, s)
		}
	}
	return x
}

// pointeeOf returns the node for objects pointed to by pointers stored
// inside n.
func (a *analyzer) pointeeOf(n *Node) *Node {
	n = n.find()
	if n.pointee == nil {
		n.pointee = &Node{Unknown: n.Unknown, Escaped: n.Escaped}
		if n.Collapsed || n.Unknown {
			n.pointee.Collapsed = true
		}
	}
	return n.pointee.find()
}

// isBytePointer reports whether t is sbyte*/ubyte* — the C void*
// convention. Casts through byte pointers are how generic code is written,
// and DSA tolerates them as long as the types agree at the ends (§4.1.1
// footnote 8).
func isBytePointer(t core.Type) bool {
	return t == core.NewPointer(core.SByteType) || t == core.NewPointer(core.UByteType)
}

// castNode models "cast val to dst" for pointer results.
func (a *analyzer) castNode(val core.Value, dst core.Type) *Node {
	if val.Type().Kind() != core.PointerKind {
		// Integer-to-pointer: memory of unknown identity. If the integer
		// itself is a tracked pointer round-trip (ptr→int→ptr), the
		// materialized pointer may target the original object: unify with
		// it so the pair can never be reported no-alias, and still mark
		// the class Unknown — a provenance-losing cast collapses to
		// unknown, never to a false no-alias.
		n := &Node{Unknown: true, Escaped: true}
		a.collapse(n)
		if src, ok := a.nodes[val]; ok {
			n = a.unify(src, n)
		}
		return n
	}
	n := a.nodeFor(val)
	if dst.Kind() != core.PointerKind {
		return n // pointer-to-int: object unaffected by this use alone
	}
	srcT, dstT := val.Type(), dst
	switch {
	case srcT == dstT:
	case isBytePointer(dstT):
		// T* -> void*: generic view; keep the node's type.
	case isBytePointer(srcT):
		// void* -> T*: speculative refinement. Consistent with the
		// node's believed type (or refines an unknown one); otherwise
		// the object is used at two incompatible types.
		want := dstT.(*core.PointerType).Elem
		if n.Ty == nil {
			n.Ty = want
		} else if !typeFitsAtZero(n.Ty, want) {
			a.collapse(n)
		}
	default:
		// T1* -> T2*: reinterpreting cast unless T2 is a leading prefix
		// of T1 (physical subtyping, e.g. derived-to-base).
		want := dstT.(*core.PointerType).Elem
		if n.Ty == nil {
			n.Ty = want
			a.collapse(n) // source type was also unknown: distrust
		} else if !typeFitsAtZero(n.Ty, want) {
			a.collapse(n)
		}
	}
	return n
}

// typeFitsAtZero reports whether an object of type obj can be viewed at
// offset zero as a value of type view: equal types, the first field of a
// struct (recursively), or the element type of an array.
func typeFitsAtZero(obj, view core.Type) bool {
	for {
		if obj == view {
			return true
		}
		switch t := obj.(type) {
		case *core.StructType:
			if len(t.Fields) == 0 {
				return false
			}
			obj = t.Fields[0]
		case *core.ArrayType:
			obj = t.Elem
		default:
			return false
		}
	}
}

// analyzeFunction propagates points-to facts through one function body.
func (a *analyzer) analyzeFunction(f *core.Function) {
	f.ForEachInst(func(inst core.Instruction) bool {
		switch i := inst.(type) {
		case *core.MallocInst:
			t := core.Type(i.AllocType)
			a.setNode(i, &Node{Ty: t, Heap: true,
				Sites: []Site{{Kind: SiteMalloc, Fn: f.Name(), Name: i.Name()}}})
		case *core.AllocaInst:
			a.setNode(i, &Node{Ty: i.AllocType, Stack: true,
				Sites: []Site{{Kind: SiteAlloca, Fn: f.Name(), Name: i.Name()}}})
		case *core.GetElementPtrInst:
			a.setNode(i, a.nodeFor(i.Base()))
		case *core.CastInst:
			if i.Type().Kind() == core.PointerKind || i.Val().Type().Kind() == core.PointerKind {
				a.setNode(i, a.castNode(i.Val(), i.Type()))
			}
		case *core.PhiInst:
			if i.Type().Kind() == core.PointerKind {
				var n *Node
				for k := 0; k < i.NumIncoming(); k++ {
					v, _ := i.Incoming(k)
					vn := a.nodeFor(v)
					if n == nil {
						n = vn
					} else {
						n = a.unify(n, vn)
					}
				}
				a.setNode(i, n)
			}
		case *core.LoadInst:
			if i.Type().Kind() == core.PointerKind {
				a.setNode(i, a.pointeeOf(a.nodeFor(i.Ptr())))
			}
		case *core.StoreInst:
			if i.Val().Type().Kind() == core.PointerKind {
				cell := a.pointeeOf(a.nodeFor(i.Ptr()))
				a.unify(cell, a.nodeFor(i.Val()))
			}
		case *core.CallInst:
			a.modelCall(i, i.Callee(), i.Args())
		case *core.InvokeInst:
			a.modelCall(i, i.Callee(), i.Args())
		case *core.RetInst:
			if v := i.Value(); v != nil && v.Type().Kind() == core.PointerKind {
				if rn := a.retval[f]; rn != nil {
					a.unify(rn, a.nodeFor(v))
				}
			}
		case *core.VAArgInst:
			if i.Type().Kind() == core.PointerKind {
				n := &Node{Unknown: true}
				a.collapse(n)
				a.setNode(i, n)
			}
		}
		return true
	})
}

// modelCall unifies actuals with formals for direct internal calls; for
// external or indirect callees every pointer argument escapes to unknown
// code and is collapsed.
func (a *analyzer) modelCall(result core.Instruction, callee core.Value, args []core.Value) {
	target, direct := callee.(*core.Function)
	known := direct && !target.IsDeclaration()
	if known {
		ps := a.params[target]
		for i, arg := range args {
			if arg.Type().Kind() != core.PointerKind {
				continue
			}
			if i < len(ps) && ps[i] != nil {
				a.unify(ps[i], a.nodeFor(arg))
			} else {
				a.collapse(a.nodeFor(arg)) // variadic extras: unmodelled
			}
		}
		if result.Type().Kind() == core.PointerKind {
			if rn := a.retval[target]; rn != nil {
				a.setNode(result, rn.find())
			} else {
				n := &Node{Unknown: true}
				a.collapse(n)
				a.setNode(result, n)
			}
		}
		return
	}
	// Unknown callee: pointers escape; their objects become untrusted.
	for _, arg := range args {
		if arg.Type().Kind() == core.PointerKind {
			n := a.nodeFor(arg)
			a.collapse(n)
			n.find().Escaped = true
			p := a.pointeeOf(n)
			a.collapse(p)
			p.find().Escaped = true
		}
	}
	if result.Type().Kind() == core.PointerKind {
		n := &Node{Unknown: true, Escaped: true}
		a.collapse(n)
		a.setNode(result, n)
	}
}

// isTyped decides the Table 1 classification for one access.
func (a *analyzer) isTyped(ptr core.Value) bool {
	n := a.nodeFor(ptr)
	if n.Collapsed || n.Unknown || n.Ty == nil {
		return false
	}
	return true
}

// TypeReliable reports whether the layout of struct type t can safely be
// changed: every abstract object is either provably of a known,
// uncollapsed type (so objects of type t are only accessed through typed
// getelementptrs), or provably unrelated to t. A collapsed or unknown
// object whose believed type is t — or whose identity is entirely unknown —
// makes reordering unsound. This is the query behind the paper's §4.1.1
// example transformation, "reordering two fields of a structure".
func (r *Result) TypeReliable(t core.Type) bool {
	if r.restored {
		// Decoded results carry no type information; never authorize a
		// layout change from one.
		return false
	}
	seen := map[*Node]bool{}
	for _, n := range r.nodes {
		n = n.find()
		if seen[n] {
			continue
		}
		seen[n] = true
		if !n.Collapsed && !n.Unknown {
			continue
		}
		if n.Ty == nil || n.Ty == t || typeContains(n.Ty, t, nil) {
			return false
		}
	}
	for _, dv := range r.dirtyViews {
		if dv == t || typeContains(dv, t, nil) {
			return false
		}
	}
	return true
}

// typeContains reports whether t transitively embeds target (arrays and
// struct fields; pointers do not embed their pointee's layout).
func typeContains(t, target core.Type, visiting map[core.Type]bool) bool {
	if t == target {
		return true
	}
	if visiting[t] {
		return false
	}
	switch tt := t.(type) {
	case *core.ArrayType:
		return typeContains(tt.Elem, target, visiting)
	case *core.StructType:
		if visiting == nil {
			visiting = map[core.Type]bool{}
		}
		visiting[t] = true
		for _, f := range tt.Fields {
			if typeContains(f, target, visiting) {
				return true
			}
		}
	}
	return false
}
