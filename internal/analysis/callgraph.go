package analysis

import (
	"sort"

	"repro/internal/core"
)

// CallGraph records which functions each function may call. Direct call
// and invoke sites produce precise edges; indirect call sites add an edge
// to every address-taken function with a compatible signature (a sound,
// conservative approximation), and calls to external declarations are
// flagged because their behaviour is unknown.
type CallGraph struct {
	M     *core.Module
	Nodes map[*core.Function]*CallGraphNode
}

// CallGraphNode is one function's entry in the call graph.
type CallGraphNode struct {
	Fn *core.Function
	// Callees are the functions this node may call directly or indirectly.
	Callees []*core.Function
	// Callers are the reverse edges.
	Callers []*core.Function
	// CallsExternal is set if the function calls a declaration (unknown
	// body) or makes an indirect call that may leave the module.
	CallsExternal bool
	// NumCallSites counts call/invoke instructions in the body.
	NumCallSites int
}

// NewCallGraph builds the call graph of a module.
func NewCallGraph(m *core.Module) *CallGraph {
	cg := &CallGraph{M: m, Nodes: map[*core.Function]*CallGraphNode{}}
	for _, f := range m.Funcs {
		cg.Nodes[f] = &CallGraphNode{Fn: f}
	}

	// Address-taken functions, grouped by signature, for resolving
	// indirect calls.
	bySig := map[*core.FunctionType][]*core.Function{}
	for f := range AddressTakenFunctions(m) {
		bySig[f.Sig] = append(bySig[f.Sig], f)
	}

	addEdge := func(from, to *core.Function) {
		fn := cg.Nodes[from]
		for _, c := range fn.Callees {
			if c == to {
				return
			}
		}
		fn.Callees = append(fn.Callees, to)
		cg.Nodes[to].Callers = append(cg.Nodes[to].Callers, from)
	}

	for _, f := range m.Funcs {
		node := cg.Nodes[f]
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
			node.NumCallSites++
			if target, ok := callee.(*core.Function); ok {
				if target.IsDeclaration() {
					node.CallsExternal = true
				}
				addEdge(f, target)
				return true
			}
			// Indirect call. When every value that can flow into the
			// callee pointer is a known function constant (e.g. a load
			// from a constant function-pointer table), the callee set is
			// fully resolved: precise edges, and the call provably cannot
			// leave the module.
			if targets, ok := ResolveCallees(callee); ok && len(targets) > 0 {
				for _, cand := range targets {
					if cand.IsDeclaration() {
						node.CallsExternal = true
					}
					addEdge(f, cand)
				}
				return true
			}
			// Unresolved: add edges to compatible address-taken functions;
			// the pointer may also have come from outside.
			ft := core.CalleeFunctionType(callee)
			if ft != nil {
				for _, cand := range bySig[ft] {
					addEdge(f, cand)
				}
			}
			node.CallsExternal = true
			return true
		})
	}
	return cg
}

// PostOrder returns the functions in bottom-up (callee-before-caller)
// order, the order interprocedural analyses like DSA and the inliner
// process functions in. Cycles (recursion) are broken arbitrarily but
// deterministically.
func (cg *CallGraph) PostOrder() []*core.Function {
	var order []*core.Function
	state := map[*core.Function]int{} // 0 unvisited, 1 on stack, 2 done
	var visit func(f *core.Function)
	visit = func(f *core.Function) {
		state[f] = 1
		node := cg.Nodes[f]
		callees := append([]*core.Function(nil), node.Callees...)
		sort.Slice(callees, func(i, j int) bool { return callees[i].Name() < callees[j].Name() })
		for _, c := range callees {
			if state[c] == 0 {
				visit(c)
			}
		}
		state[f] = 2
		order = append(order, f)
	}
	funcs := append([]*core.Function(nil), cg.M.Funcs...)
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].Name() < funcs[j].Name() })
	for _, f := range funcs {
		if state[f] == 0 {
			visit(f)
		}
	}
	return order
}

// MayUnwind computes, interprocedurally, which functions can unwind the
// stack: a function unwinds if it contains a reachable unwind instruction,
// or calls (outside an enclosing invoke for that callee... conservatively,
// anywhere) a function that may unwind, or calls external/unknown code.
// This powers the exception-handler pruning optimization (§4.1.2: "an
// interprocedural analysis to eliminate unused exception handlers").
func (cg *CallGraph) MayUnwind() map[*core.Function]bool {
	may := map[*core.Function]bool{}
	// Seed: functions containing unwind, and external declarations.
	for _, f := range cg.M.Funcs {
		if f.IsDeclaration() {
			may[f] = true
			continue
		}
		f.ForEachInst(func(inst core.Instruction) bool {
			if inst.Opcode() == core.OpUnwind {
				may[f] = true
				return false
			}
			return true
		})
	}
	// Propagate up the call graph to a fixed point. A call to a
	// may-unwind function makes the caller may-unwind, except that an
	// invoke catches the unwind (it transfers to the unwind label instead
	// of propagating), so invokes do not propagate the bit; the handler
	// block may then re-unwind, which the seed already captured.
	for changed := true; changed; {
		changed = false
		for _, f := range cg.M.Funcs {
			if may[f] || f.IsDeclaration() {
				continue
			}
			node := cg.Nodes[f]
			esc := node.CallsExternal
			if !esc {
				f.ForEachInst(func(inst core.Instruction) bool {
					if call, ok := inst.(*core.CallInst); ok {
						target := call.CalledFunction()
						if target == nil || may[target] {
							esc = true
							return false
						}
					}
					return true
				})
			}
			if esc {
				may[f] = true
				changed = true
			}
		}
	}
	return may
}

// AddressTakenFunctions returns the set of functions whose address escapes:
// used outside a direct call/invoke callee slot, or referenced from a
// global variable initializer (aggregate initializers do not participate
// in use lists, so they are scanned explicitly).
func AddressTakenFunctions(m *core.Module) map[*core.Function]bool {
	out := map[*core.Function]bool{}
	for _, f := range m.Funcs {
		if f.HasAddressTaken() {
			out[f] = true
		}
	}
	var scan func(c core.Constant)
	scan = func(c core.Constant) {
		switch cc := c.(type) {
		case *core.Function:
			out[cc] = true
		case *core.ConstantArray:
			for _, e := range cc.Elems {
				scan(e)
			}
		case *core.ConstantStruct:
			for _, f := range cc.Fields {
				scan(f)
			}
		case *core.ConstantExpr:
			for _, op := range cc.Operands() {
				if oc, ok := op.(core.Constant); ok {
					scan(oc)
				}
			}
		}
	}
	for _, g := range m.Globals {
		if g.Init != nil {
			scan(g.Init)
		}
	}
	return out
}
