package passes

import (
	"repro/internal/analysis"
	"repro/internal/core"
)

// BoundsCheckName is the runtime-failure handler the pass calls; the
// execution engine aborts in it (SAFECode's poolcheckfail).
const BoundsCheckName = "__bounds_check_fail"

// BoundsCheck implements the enforcement half of SAFECode (§4.2.2): it
// "relies on the array type information in LLVM to enforce array bounds
// safety, and uses static analysis to eliminate runtime bounds checks"
// where an index is provably in range. Every getelementptr index into an
// array type gets an unsigned-compare guard branching to a failure block;
// indices that are compile-time constants within bounds (and the
// always-zero first index over the pointer) are elided statically.
type BoundsCheck struct {
	// Inserted and Elided report what the last run did.
	Inserted int
	Elided   int
}

// NewBoundsCheck returns the pass.
func NewBoundsCheck() *BoundsCheck { return &BoundsCheck{} }

// Name returns the pass name.
func (*BoundsCheck) Name() string { return "boundscheck" }

// RunOnModule instruments every function; the count is checks inserted.
func (bc *BoundsCheck) RunOnModule(m *core.Module) int {
	bc.Inserted, bc.Elided = 0, 0
	fail := m.GetOrInsertFunction(BoundsCheckName,
		core.NewFunctionType(core.VoidType, core.LongType, core.LongType))
	for _, f := range m.Funcs {
		if f.IsDeclaration() || f == fail {
			continue
		}
		bc.runFunction(f, fail)
	}
	return bc.Inserted
}

// checkSite is one array index needing a guard.
type checkSite struct {
	gep   *core.GetElementPtrInst
	idx   core.Value
	limit int64
}

func (bc *BoundsCheck) runFunction(f *core.Function, fail *core.Function) {
	// Collect first: instrumentation splits blocks.
	var sites []checkSite
	f.ForEachInst(func(inst core.Instruction) bool {
		gep, ok := inst.(*core.GetElementPtrInst)
		if !ok {
			return true
		}
		// Walk the index path mirroring GEPResultType.
		cur := gep.Base().Type().(*core.PointerType).Elem
		for k, idx := range gep.Indices() {
			if k == 0 {
				continue // pointer-level index: no static bound exists
			}
			switch ct := cur.(type) {
			case *core.StructType:
				cur = ct.Fields[int(idx.(*core.ConstantInt).SExt())]
			case *core.ArrayType:
				if ci, isConst := idx.(*core.ConstantInt); isConst {
					v := ci.SExt()
					if v >= 0 && v < int64(ct.Len) {
						bc.Elided++ // provably in range: no runtime check
					} else {
						// Statically out of range: guaranteed trap.
						sites = append(sites, checkSite{gep, idx, int64(ct.Len)})
					}
				} else {
					sites = append(sites, checkSite{gep, idx, int64(ct.Len)})
				}
				cur = ct.Elem
			}
		}
		return true
	})

	for _, s := range sites {
		bc.instrument(f, fail, s)
		bc.Inserted++
	}
}

// instrument splits the GEP's block before the GEP and guards it with
// "if ((ulong)idx >= limit) __bounds_check_fail(idx, limit)".
func (bc *BoundsCheck) instrument(f *core.Function, fail *core.Function, s checkSite) {
	blk := s.gep.Parent()
	at := blk.IndexOf(s.gep)

	// tail block receives the GEP and everything after it.
	tail := core.NewBlock(blk.Name() + ".inb")
	f.InsertBlockAfter(tail, blk)
	blk.MoveTailTo(at, tail)
	// Successor phis that referenced blk now come from tail.
	for _, u := range append([]core.Use(nil), blk.Uses()...) {
		if phi, ok := u.User.(*core.PhiInst); ok && phi.Parent() != nil && phi.Parent() != tail {
			phi.SetOperand(u.Index, tail)
		}
	}

	trap := core.NewBlock(blk.Name() + ".oob")
	f.InsertBlockAfter(trap, tail)

	b := core.NewBuilder()
	b.SetInsertPoint(blk)
	idxL := b.CreateCast(s.idx, core.ULongType, "")
	cmp := b.CreateSetGE(idxL, core.NewInt(core.ULongType, s.limit), "")
	b.CreateCondBr(cmp, trap, tail)

	b.SetInsertPoint(trap)
	asLong := b.CreateCast(s.idx, core.LongType, "")
	b.CreateCall(fail, []core.Value{asLong, core.NewInt(core.LongType, s.limit)}, "")
	b.CreateUnwind()
}

// BoundsCheckStats exposes the insert/elide counts after a run.
func (bc *BoundsCheck) BoundsCheckStats() (inserted, elided int) { return bc.Inserted, bc.Elided }

// EliminateDominatedChecks removes bounds checks made redundant by an
// identical dominating check (the interprocedural check-elimination spirit
// of [28], implemented intra-procedurally over the dominator tree): if the
// same (index, limit) pair was already verified on every path to a check,
// the later guard folds to "in bounds".
func EliminateDominatedChecks(m *core.Module) int {
	return eliminateDominatedChecks(m, nil)
}

// eliminateDominatedChecks is the manager-aware body: the dominator tree
// comes from the cache. Folding a guard rewrites CFG edges, which moves
// the function's CFG stamp, so the next lookup recomputes the tree.
func eliminateDominatedChecks(m *core.Module, am *analysis.Manager) int {
	removed := 0
	for _, f := range m.Funcs {
		if f.IsDeclaration() {
			continue
		}
		dt := am.DomTree(f)
		type key struct {
			idx   core.Value
			limit int64
		}
		// Collect conditional branches that are bounds guards:
		// br (setge (cast idx), limit) -> trap, cont.
		guards := map[key][]*core.BranchInst{}
		for _, b := range f.Blocks {
			br, ok := b.Terminator().(*core.BranchInst)
			if !ok || !br.IsConditional() {
				continue
			}
			cmp, ok := br.Cond().(*core.BinaryInst)
			if !ok || cmp.Opcode() != core.OpSetGE {
				continue
			}
			lim, ok := cmp.RHS().(*core.ConstantInt)
			if !ok || !core.IsUnsigned(cmp.LHS().Type()) {
				continue
			}
			idx := cmp.LHS()
			if c, isCast := idx.(*core.CastInst); isCast {
				idx = c.Val()
			}
			if !isTrapBlock(br.TrueDest()) {
				continue
			}
			guards[key{idx, lim.SExt()}] = append(guards[key{idx, lim.SExt()}], br)
		}
		for _, brs := range guards {
			for i, later := range brs {
				for j, earlier := range brs {
					if i == j || later.Parent() == nil {
						continue
					}
					// The earlier guard's in-bounds successor must dominate (or be)
					// later guard's block.
					if dt.Dominates(earlier.FalseDest(), later.Parent()) {
						trap := later.TrueDest()
						cont := later.FalseDest()
						later.MakeUnconditional(cont)
						trap.RemovePredecessor(later.Parent())
						removed++
						break
					}
				}
			}
		}
	}
	return removed
}

// isTrapBlock recognizes the failure blocks instrument() builds.
func isTrapBlock(b *core.BasicBlock) bool {
	for _, inst := range b.Instrs {
		if call, ok := inst.(*core.CallInst); ok {
			if f := call.CalledFunction(); f != nil && f.Name() == BoundsCheckName {
				return true
			}
		}
	}
	return false
}
