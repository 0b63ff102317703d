package passes

import (
	"repro/internal/core"
)

// SCCP is sparse conditional constant propagation (Wegman-Zadeck): it
// propagates constants along SSA edges while simultaneously tracking which
// CFG edges can execute, so constants flowing around provably-dead branches
// are still discovered. Values proven constant are replaced; branch
// conditions proven constant are materialized so SimplifyCFG can delete the
// dead arms.
type SCCP struct{}

// NewSCCP returns the pass.
func NewSCCP() *SCCP { return &SCCP{} }

// Name returns the pass name.
func (*SCCP) Name() string { return "sccp" }

// Lattice states.
type latticeState int

const (
	latUnknown latticeState = iota // never executed / no information yet
	latConst
	latOverdefined
)

type latticeValue struct {
	state latticeState
	val   core.Constant
}

// sccpSolver keeps the lattice by instruction ID, executable blocks by
// block ID, and executable CFG edges as one flag per successor slot:
// edges[edgeOff[id]+k] is the k'th successor edge of the block with that
// ID. An edge is the pair (from, to), so a block reached by two edges of
// one terminator counts as one edge, marked and read through its first
// slot.
type sccpSolver struct {
	fn        *core.Function
	values    []latticeValue
	bbExec    []bool
	edgeOff   []int32
	edges     []bool
	instWork  []core.Instruction
	blockWork []*core.BasicBlock
}

// RunOnFunction solves the lattice and rewrites proven-constant values.
func (s *SCCP) RunOnFunction(f *core.Function) int {
	if len(f.Blocks) == 0 {
		return 0
	}
	sv := &sccpSolver{
		fn:      f,
		values:  make([]latticeValue, f.NumInstIDs()),
		bbExec:  make([]bool, f.NumBlockIDs()),
		edgeOff: make([]int32, f.NumBlockIDs()),
	}
	n := int32(0)
	for _, b := range f.Blocks {
		sv.edgeOff[b.ID()] = n
		n += int32(b.NumSuccs())
	}
	sv.edges = make([]bool, n)
	sv.markBlockExecutable(f.Entry())
	sv.solve()

	changed := 0
	var buf []core.Instruction
	for _, b := range f.Blocks {
		if !sv.bbExec[b.ID()] {
			continue
		}
		buf = append(buf[:0], b.Instrs...)
		for _, inst := range buf {
			lv := sv.values[inst.ID()]
			if lv.state != latConst || inst.Type() == core.VoidType {
				continue
			}
			core.ReplaceAllUses(inst, lv.val)
			if !hasSideEffects(inst) {
				b.Erase(inst)
			}
			changed++
		}
	}
	return changed
}

// lattice returns v's lattice value: simple constants are themselves,
// arguments and other constants are overdefined, and instructions are
// what the solver has proven so far.
func (sv *sccpSolver) lattice(v core.Value) latticeValue {
	switch x := v.(type) {
	case *core.ConstantInt, *core.ConstantFloat, *core.ConstantBool, *core.ConstantNull:
		return latticeValue{state: latConst, val: x.(core.Constant)}
	case core.Instruction:
		return sv.values[x.ID()]
	case core.Constant, *core.Argument:
		return latticeValue{state: latOverdefined}
	}
	return latticeValue{}
}

func (sv *sccpSolver) markOverdefined(inst core.Instruction) {
	if sv.values[inst.ID()].state == latOverdefined {
		return
	}
	sv.values[inst.ID()] = latticeValue{state: latOverdefined}
	sv.notifyUsers(inst)
}

func (sv *sccpSolver) markConst(inst core.Instruction, c core.Constant) {
	cur := sv.values[inst.ID()]
	if cur.state == latOverdefined {
		return
	}
	if cur.state == latConst {
		if !constEq(cur.val, c) {
			sv.markOverdefined(inst)
		}
		return
	}
	sv.values[inst.ID()] = latticeValue{state: latConst, val: c}
	sv.notifyUsers(inst)
}

func (sv *sccpSolver) notifyUsers(v core.Value) {
	for _, u := range v.Uses() {
		if inst, ok := u.User.(core.Instruction); ok {
			sv.instWork = append(sv.instWork, inst)
		}
	}
}

func (sv *sccpSolver) markBlockExecutable(b *core.BasicBlock) {
	if sv.bbExec[b.ID()] {
		return
	}
	sv.bbExec[b.ID()] = true
	sv.blockWork = append(sv.blockWork, b)
}

// edgeSlot returns the flag index of the edge from → to: the first
// successor slot of from that targets to, or -1 if there is none.
func (sv *sccpSolver) edgeSlot(from, to *core.BasicBlock) int {
	for k, n := 0, from.NumSuccs(); k < n; k++ {
		if from.Succ(k) == to {
			return int(sv.edgeOff[from.ID()]) + k
		}
	}
	return -1
}

func (sv *sccpSolver) markEdgeExecutable(from, to *core.BasicBlock) {
	e := sv.edgeSlot(from, to)
	if sv.edges[e] {
		return
	}
	sv.edges[e] = true
	if sv.bbExec[to.ID()] {
		// Re-visit the phis of to: a new incoming edge may change them.
		for _, phi := range to.Phis() {
			sv.instWork = append(sv.instWork, phi)
		}
	} else {
		sv.markBlockExecutable(to)
	}
}

func (sv *sccpSolver) solve() {
	for len(sv.instWork) > 0 || len(sv.blockWork) > 0 {
		for len(sv.blockWork) > 0 {
			b := sv.blockWork[len(sv.blockWork)-1]
			sv.blockWork = sv.blockWork[:len(sv.blockWork)-1]
			for _, inst := range b.Instrs {
				sv.visit(inst)
			}
		}
		for len(sv.instWork) > 0 {
			inst := sv.instWork[len(sv.instWork)-1]
			sv.instWork = sv.instWork[:len(sv.instWork)-1]
			if sv.bbExec[inst.Parent().ID()] {
				sv.visit(inst)
			}
		}
	}
}

func (sv *sccpSolver) visit(inst core.Instruction) {
	switch i := inst.(type) {
	case *core.PhiInst:
		sv.visitPhi(i)
	case *core.BinaryInst:
		a, b := sv.lattice(i.LHS()), sv.lattice(i.RHS())
		if a.state == latConst && b.state == latConst {
			if folded := core.FoldBinary(i.Opcode(), a.val, b.val); folded != nil {
				sv.markConst(i, folded)
				return
			}
		}
		if a.state == latOverdefined || b.state == latOverdefined {
			sv.markOverdefined(i)
		}
	case *core.CastInst:
		v := sv.lattice(i.Val())
		if v.state == latConst {
			if folded := core.FoldCast(v.val, i.Type()); folded != nil {
				sv.markConst(i, folded)
				return
			}
		}
		if v.state == latOverdefined {
			sv.markOverdefined(i)
		}
	case *core.BranchInst:
		if !i.IsConditional() {
			sv.markEdgeExecutable(i.Parent(), i.TrueDest())
			return
		}
		c := sv.lattice(i.Cond())
		switch c.state {
		case latConst:
			if cb, ok := c.val.(*core.ConstantBool); ok {
				if cb.Val {
					sv.markEdgeExecutable(i.Parent(), i.TrueDest())
				} else {
					sv.markEdgeExecutable(i.Parent(), i.FalseDest())
				}
				return
			}
			sv.markEdgeExecutable(i.Parent(), i.TrueDest())
			sv.markEdgeExecutable(i.Parent(), i.FalseDest())
		case latOverdefined:
			sv.markEdgeExecutable(i.Parent(), i.TrueDest())
			sv.markEdgeExecutable(i.Parent(), i.FalseDest())
		}
	case *core.SwitchInst:
		c := sv.lattice(i.Value())
		switch c.state {
		case latConst:
			ci, ok := c.val.(*core.ConstantInt)
			if !ok {
				sv.markAllSwitchEdges(i)
				return
			}
			taken := i.Default()
			for n := 0; n < i.NumCases(); n++ {
				val, dest := i.Case(n)
				if val.Val == ci.Val {
					taken = dest
					break
				}
			}
			sv.markEdgeExecutable(i.Parent(), taken)
		case latOverdefined:
			sv.markAllSwitchEdges(i)
		}
	case *core.InvokeInst:
		sv.markOverdefined(i)
		sv.markEdgeExecutable(i.Parent(), i.NormalDest())
		sv.markEdgeExecutable(i.Parent(), i.UnwindDest())
	case *core.RetInst, *core.UnwindInst, *core.StoreInst, *core.FreeInst:
		// No result, no successor edges.
	default:
		// Loads, calls, mallocs, allocas, GEPs, vaargs: overdefined.
		if inst.Type() != core.VoidType {
			sv.markOverdefined(inst)
		}
	}
}

func (sv *sccpSolver) markAllSwitchEdges(i *core.SwitchInst) {
	sv.markEdgeExecutable(i.Parent(), i.Default())
	for n := 0; n < i.NumCases(); n++ {
		_, dest := i.Case(n)
		sv.markEdgeExecutable(i.Parent(), dest)
	}
}

func (sv *sccpSolver) visitPhi(phi *core.PhiInst) {
	// Meet over incoming values whose edges are executable.
	var result latticeValue
	for n := 0; n < phi.NumIncoming(); n++ {
		v, pred := phi.Incoming(n)
		if e := sv.edgeSlot(pred, phi.Parent()); e < 0 || !sv.edges[e] {
			continue
		}
		lv := sv.lattice(v)
		switch lv.state {
		case latUnknown:
			continue
		case latOverdefined:
			sv.markOverdefined(phi)
			return
		case latConst:
			if result.state == latUnknown {
				result = lv
			} else if !constEq(result.val, lv.val) {
				sv.markOverdefined(phi)
				return
			}
		}
	}
	if result.state == latConst {
		sv.markConst(phi, result.val)
	}
}

func constEq(a, b core.Constant) bool {
	switch ca := a.(type) {
	case *core.ConstantInt:
		cb, ok := b.(*core.ConstantInt)
		return ok && ca.Type() == cb.Type() && ca.Val == cb.Val
	case *core.ConstantFloat:
		cb, ok := b.(*core.ConstantFloat)
		return ok && ca.Type() == cb.Type() && ca.Val == cb.Val
	case *core.ConstantBool:
		cb, ok := b.(*core.ConstantBool)
		return ok && ca.Val == cb.Val
	case *core.ConstantNull:
		_, ok := b.(*core.ConstantNull)
		return ok
	}
	return a == b
}
