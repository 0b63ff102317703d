package passes

import (
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/dsa"
	"repro/internal/obs"
)

// LICM hoists loop-invariant pure computations (arithmetic, comparisons,
// casts, getelementptrs) into the loop preheader. Division and remainder
// are not speculated (they can trap). Loop-invariant loads from trap-safe
// addresses are hoisted too, when the points-to analysis proves no store,
// free, or call in the loop can modify the loaded object.
type LICM struct {
	rem *obs.Remarks
	// NoAlias disables points-to-based load hoisting (ablation baseline
	// for llvm-bench -alias).
	NoAlias bool
}

// NewLICM returns the pass.
func NewLICM() *LICM { return &LICM{} }

// Name returns the pass name.
func (*LICM) Name() string { return "licm" }

func (l *LICM) setRemarks(r *obs.Remarks) { l.rem = r }

// RunOnFunction hoists invariants out of every natural loop, innermost
// loops first so code migrates as far out as it can in one run.
func (l *LICM) RunOnFunction(f *core.Function) int {
	return l.runOnFunctionWith(f, nil)
}

func (l *LICM) runOnFunctionWith(f *core.Function, am *analysis.Manager) int {
	if len(f.Blocks) < 2 {
		return 0
	}
	li := am.LoopInfo(f)
	loops := li.All()
	var pt *dsa.Result
	if !l.NoAlias {
		pt = dsa.Of(am, f.Parent())
	}
	// Innermost first: reverse of outer-first order.
	hoisted := 0
	for i := len(loops) - 1; i >= 0; i-- {
		hoisted += l.runLoop(loops[i], pt)
	}
	return hoisted
}

// hoistable reports whether an instruction may be moved to the preheader
// when its operands are invariant: pure, non-trapping, produces a value.
func hoistable(inst core.Instruction) bool {
	switch i := inst.(type) {
	case *core.BinaryInst:
		op := i.Opcode()
		if op == core.OpDiv || op == core.OpRem {
			// Trap hazard: only safe with a provably nonzero divisor.
			c, ok := i.RHS().(*core.ConstantInt)
			return ok && !c.IsZero()
		}
		return true
	case *core.CastInst, *core.GetElementPtrInst:
		return true
	}
	return false
}

// loopMem is the set of loop operations that can modify memory, gathered
// once per loop for the load-hoisting legality check.
type loopMem struct {
	storePtrs []core.Value // store and free targets
	calls     []core.Value // callee operands of calls/invokes
}

// collectLoopMem gathers the loop's memory writers in block order.
func collectLoopMem(blocks []*core.BasicBlock) *loopMem {
	mem := &loopMem{}
	for _, b := range blocks {
		for _, inst := range b.Instrs {
			switch i := inst.(type) {
			case *core.StoreInst:
				mem.storePtrs = append(mem.storePtrs, i.Ptr())
			case *core.FreeInst:
				mem.storePtrs = append(mem.storePtrs, i.Ptr())
			case *core.CallInst:
				mem.calls = append(mem.calls, i.Callee())
			case *core.InvokeInst:
				mem.calls = append(mem.calls, i.Callee())
			}
		}
	}
	return mem
}

// loadHoistable reports whether a loop-invariant load may move to the
// preheader: the address must be trap-safe to speculate (the loop may run
// zero times), and no store, free, or call in the loop may modify the
// loaded memory.
func (l *LICM) loadHoistable(pt *dsa.Result, mem *loopMem, ld *core.LoadInst) bool {
	if pt == nil {
		return false
	}
	p := ld.Ptr()
	if !trapSafeAddress(p) {
		return false
	}
	for _, s := range mem.storePtrs {
		if pt.Alias(p, s) != dsa.NoAlias {
			return false
		}
	}
	if len(mem.calls) > 0 {
		n := pt.NodeFor(p)
		for _, c := range mem.calls {
			if pt.CallSiteMayMod(c, n) {
				return false
			}
		}
	}
	return true
}

// trapSafeAddress reports whether dereferencing p is safe to speculate:
// a global or alloca base reached through constant, statically in-bounds
// gep indices. Such an address always maps allocated storage.
func trapSafeAddress(p core.Value) bool {
	for {
		switch v := p.(type) {
		case *core.GlobalVariable:
			return true
		case *core.AllocaInst:
			return v.NumElems() == nil // dynamic-size alloca: unknown extent
		case *core.GetElementPtrInst:
			if !gepStaticallyInBounds(v.Base().Type(), v.Indices()) {
				return false
			}
			p = v.Base()
		case *core.ConstantExpr:
			if v.Op != core.OpGetElementPtr {
				return false
			}
			idx := make([]core.Value, 0, len(v.Operands())-1)
			for i := 1; i < len(v.Operands()); i++ {
				idx = append(idx, v.Operand(i))
			}
			if !gepStaticallyInBounds(v.Operand(0).Type(), idx) {
				return false
			}
			p = v.Operand(0)
		default:
			return false
		}
	}
}

// gepStaticallyInBounds checks that every index is a constant selecting a
// real field/element of the statically known object (first index must be 0:
// no pointer arithmetic past the object).
func gepStaticallyInBounds(baseTy core.Type, indices []core.Value) bool {
	pt, ok := baseTy.(*core.PointerType)
	if !ok {
		return false
	}
	cur := core.Type(pt.Elem)
	for k, idx := range indices {
		ci, ok := idx.(*core.ConstantInt)
		if !ok {
			return false
		}
		i := ci.SExt()
		if k == 0 {
			if i != 0 {
				return false
			}
			continue
		}
		switch t := cur.(type) {
		case *core.StructType:
			if i < 0 || int(i) >= len(t.Fields) {
				return false
			}
			cur = t.Fields[int(i)]
		case *core.ArrayType:
			if i < 0 || int(i) >= t.Len {
				return false
			}
			cur = t.Elem
		default:
			return false
		}
	}
	return true
}

func (l *LICM) runLoop(loop *analysis.Loop, pt *dsa.Result) int {
	pre := loop.Preheader()
	if pre == nil {
		return 0
	}
	// Iterate loop blocks in the function's block order, not map order: the
	// hoist sequence (and with it the preheader layout and the remark
	// stream) must not depend on Go's map iteration.
	f := loop.Header.Parent()
	var blocks []*core.BasicBlock
	for _, b := range f.Blocks {
		if loop.Blocks[b] {
			blocks = append(blocks, b)
		}
	}
	// Fixed point: hoisting one instruction can make its users invariant.
	invariant := func(v core.Value) bool {
		def, ok := v.(core.Instruction)
		if !ok {
			return true // constants, arguments, globals
		}
		return !loop.Blocks[def.Parent()]
	}
	allInvariant := func(inst core.Instruction) bool {
		for _, op := range inst.Operands() {
			if !invariant(op) {
				return false
			}
		}
		return true
	}
	mem := collectLoopMem(blocks)
	hoisted := 0
	firstRound := true
	for changed := true; changed; {
		changed = false
		for _, b := range blocks {
			for _, inst := range append([]core.Instruction(nil), b.Instrs...) {
				if inst.Parent() != b {
					continue
				}
				if ld, isLoad := inst.(*core.LoadInst); isLoad {
					if !allInvariant(inst) || !l.loadHoistable(pt, mem, ld) {
						continue
					}
					if l.rem.Enabled() {
						l.rem.Appliedf("licm",
							diag.Pos{Fn: f.Name(), Block: b.Name(), Inst: core.InstDebugString(inst)},
							"hoisted loop-invariant load to preheader %%%s: no aliasing store or modifying call in loop", pre.Name())
					}
					b.Remove(inst)
					pre.InsertAt(len(pre.Instrs)-1, inst)
					hoisted++
					changed = true
					continue
				}
				if !hoistable(inst) {
					// The one near-miss worth reporting: a division whose
					// operands are invariant but whose divisor is not
					// provably nonzero cannot be speculated into the
					// preheader. Reported once (first round) per site.
					if firstRound && l.rem.Enabled() {
						if bi, ok := inst.(*core.BinaryInst); ok &&
							(bi.Opcode() == core.OpDiv || bi.Opcode() == core.OpRem) &&
							allInvariant(inst) {
							l.rem.Missedf("licm",
								diag.Pos{Fn: f.Name(), Block: b.Name(), Inst: core.InstDebugString(inst)},
								"loop-invariant division not hoisted: divisor may be zero")
						}
					}
					continue
				}
				if !allInvariant(inst) {
					continue
				}
				if l.rem.Enabled() {
					l.rem.Appliedf("licm",
						diag.Pos{Fn: f.Name(), Block: b.Name(), Inst: core.InstDebugString(inst)},
						"hoisted loop-invariant computation to preheader %%%s", pre.Name())
				}
				// Move before the preheader's terminator.
				b.Remove(inst)
				pre.InsertAt(len(pre.Instrs)-1, inst)
				hoisted++
				changed = true
			}
		}
		firstRound = false
	}
	return hoisted
}
