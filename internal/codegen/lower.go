package codegen

import (
	"fmt"
	"slices"

	"repro/internal/core"
)

// lowerer translates IR functions to machine IR with virtual registers.
// It is reusable: lower resets it for each function and keeps the
// capacity of its maps and buffers, so lowering every function of a
// module costs a few allocations in total rather than several per
// instruction.
type lowerer struct {
	mf         MFunction
	pool       []*MBlock // blocks handed out as mf.Blocks
	blockIdx   map[*core.BasicBlock]int32
	vregs      map[core.Value]VReg
	code       []MInstr // the function's instructions, block after block
	ends       []int    // end of each block's run in code
	splits     []splitEdge
	dsts, srcs []VReg // one edge's φ copies, before sequentializing
	frameOff   int
}

// splitEdge is an edge from a block with several successors that carries
// φ copies: it gets a block of its own, after the function's blocks.
type splitEdge struct {
	pred, succ *core.BasicBlock
}

// LowerFunction produces the machine IR for f (virtual registers, no
// register allocation yet).
func LowerFunction(f *core.Function) *MFunction {
	return new(lowerer).lower(f)
}

// lower resets lo for f and returns f's machine IR. The result, its blocks
// and their instructions belong to lo and are overwritten by the next call.
func (lo *lowerer) lower(f *core.Function) *MFunction {
	// Lowering emits fewer than two machine instructions per IR
	// instruction on the workload suite; reserving that up front keeps
	// the buffer from regrowing.
	n := len(f.Args)
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	lo.code = slices.Grow(lo.code[:0], 2*n)
	if lo.vregs == nil {
		lo.vregs = make(map[core.Value]VReg, n)
		lo.blockIdx = make(map[*core.BasicBlock]int32, len(f.Blocks))
	} else {
		clear(lo.vregs)
		clear(lo.blockIdx)
	}
	lo.mf = MFunction{Name: f.Name()}
	lo.ends, lo.splits, lo.frameOff = lo.ends[:0], lo.splits[:0], 0
	for i, b := range f.Blocks {
		lo.blockIdx[b] = int32(i)
	}

	// Arguments arrive in registers/stack; materialize as vregs.
	for i, a := range f.Args {
		r := lo.vregFor(a)
		lo.emit(MInstr{Op: MArgIn, Dst: r, Imm: int64(i)})
	}
	// Each block is its body, then its terminator, which places the φ
	// copies of each outgoing edge on that edge.
	for _, b := range f.Blocks {
		for _, inst := range b.Instrs[:len(b.Instrs)-1] {
			lo.lowerInst(inst)
		}
		lo.lowerTerminator(b)
		lo.ends = append(lo.ends, len(lo.code))
	}
	// Each split edge runs its copies, then jumps to its successor.
	for _, e := range lo.splits {
		lo.copies(e.pred, e.succ)
		lo.emit(MInstr{Op: MJmp, Target: lo.blockIdx[e.succ]})
		lo.ends = append(lo.ends, len(lo.code))
	}
	if need := len(lo.ends) - len(lo.pool); need > 0 {
		slab := make([]MBlock, max(need, len(lo.pool)))
		for i := range slab {
			lo.pool = append(lo.pool, &slab[i])
		}
	}
	lo.mf.Blocks = lo.pool[:len(lo.ends)]
	setRuns(lo.mf.Blocks, lo.code, lo.ends)
	lo.mf.FrameSize = lo.frameOff
	return &lo.mf
}

// setRuns points each block at its run of code, which ends at ends[i] and
// starts where the previous block's run ends.
func setRuns(blocks []*MBlock, code []MInstr, ends []int) {
	start := 0
	for i, b := range blocks {
		b.Instrs = code[start:ends[i]:ends[i]]
		start = ends[i]
	}
}

// edgeTarget is the block a branch from pred, a block with several
// successors, takes to succ: succ itself when the edge copies nothing,
// else a new split block, so that the copies run on that edge alone.
func (lo *lowerer) edgeTarget(pred, succ *core.BasicBlock) int32 {
	copies := false
	err := edgeCopies(pred, succ, func(phi *core.PhiInst, v core.Value) error {
		copies = copies || v != core.Value(phi)
		return nil
	})
	if err == nil && !copies {
		return lo.blockIdx[succ]
	}
	// Split blocks are numbered after the function's own blocks.
	lo.splits = append(lo.splits, splitEdge{pred, succ})
	return int32(len(lo.blockIdx) + len(lo.splits) - 1)
}

// copies emits the φ copies of the edge from pred to succ as moves, in an
// order where every φ gets the value from before the edge. Integer and
// float φs never read each other, so each class is a parallel copy of its
// own. The temp that breaks a swap is the next vreg: the first move that
// names it takes it.
func (lo *lowerer) copies(pred, succ *core.BasicBlock) {
	for _, float := range [...]bool{false, true} {
		lo.dsts, lo.srcs = lo.dsts[:0], lo.srcs[:0]
		err := edgeCopies(pred, succ, func(phi *core.PhiInst, v core.Value) error {
			if core.IsFloatingPoint(phi.Type()) == float {
				lo.dsts = append(lo.dsts, lo.vregFor(phi))
				lo.srcs = append(lo.srcs, lo.useValue(v))
			}
			return nil
		})
		if err != nil {
			panic(err)
		}
		temp := VReg(lo.mf.NumVRegs)
		seqCopies(lo.dsts, lo.srcs, temp, func(d, s VReg) {
			lo.mf.NumVRegs = max(lo.mf.NumVRegs, int(max(d, s))+1)
			lo.emit(MInstr{Op: MMov, Dst: d, Src1: s, Float: float})
		})
	}
}

// MArgIn is declared here to keep the MOp list in mir.go focused; it moves
// the Imm'th incoming argument into Dst.
const MArgIn MOp = 100

func (lo *lowerer) emit(i MInstr) { lo.code = append(lo.code, i) }

func (lo *lowerer) newVReg() VReg {
	r := VReg(lo.mf.NumVRegs)
	lo.mf.NumVRegs++
	return r
}

func (lo *lowerer) vregFor(v core.Value) VReg {
	if r, ok := lo.vregs[v]; ok {
		return r
	}
	r := lo.newVReg()
	lo.vregs[v] = r
	return r
}

// useValue returns a vreg holding v, materializing constants.
func (lo *lowerer) useValue(v core.Value) VReg {
	switch c := v.(type) {
	case *core.ConstantInt:
		r := lo.newVReg()
		lo.emit(MInstr{Op: MImm, Dst: r, Imm: c.SExt()})
		return r
	case *core.ConstantBool:
		r := lo.newVReg()
		imm := int64(0)
		if c.Val {
			imm = 1
		}
		lo.emit(MInstr{Op: MImm, Dst: r, Imm: imm})
		return r
	case *core.ConstantFloat:
		r := lo.newVReg()
		lo.emit(MInstr{Op: MImm, Dst: r, Imm: int64(floatImmBits(c)), Float: true})
		return r
	case *core.ConstantNull, *core.ConstantUndef, *core.ConstantZero:
		r := lo.newVReg()
		lo.emit(MInstr{Op: MImm, Dst: r, Imm: 0})
		return r
	case *core.GlobalVariable:
		r := lo.newVReg()
		lo.emit(MInstr{Op: MLea, Dst: r, Sym: c.Name()})
		return r
	case *core.Function:
		r := lo.newVReg()
		lo.emit(MInstr{Op: MLea, Dst: r, Sym: c.Name()})
		return r
	case *core.ConstantExpr:
		return lo.lowerConstExpr(c)
	default:
		return lo.vregFor(v)
	}
}

func floatImmBits(c *core.ConstantFloat) uint64 {
	// Encoders only need the payload width; pass the IEEE bits.
	return uint64(int64(c.Val)) // representative bits; size driven by type
}

func (lo *lowerer) lowerConstExpr(c *core.ConstantExpr) VReg {
	switch c.Op {
	case core.OpCast:
		return lo.useValue(c.Operand(0))
	case core.OpGetElementPtr:
		base := lo.useValue(c.Operand(0))
		return lo.lowerGEPPath(base, c.Operand(0).Type(), c.Operands()[1:])
	}
	r := lo.newVReg()
	lo.emit(MInstr{Op: MImm, Dst: r, Imm: 0})
	return r
}

// lowerGEPPath emits address arithmetic for a GEP index path. The path
// folding itself (constant offsets, field offsets, scaled terms) lives in
// GEPPath, shared with the tier-2 execution lowering so every backend
// agrees on address arithmetic by construction; MIR lowering is
// best-effort and keeps whatever constant prefix a malformed path yields.
func (lo *lowerer) lowerGEPPath(base VReg, baseType core.Type, indices []core.Value) VReg {
	addr := base
	constOff, _ := GEPPath(baseType, indices, func(idx core.Value, scale int64) {
		iv := lo.useValue(idx)
		sc := lo.newVReg()
		lo.emit(MInstr{Op: MImm, Dst: sc, Imm: scale})
		prod := lo.newVReg()
		lo.emit(MInstr{Op: MALU, Dst: prod, Src1: iv, Src2: sc, ALU: AMul})
		next := lo.newVReg()
		lo.emit(MInstr{Op: MALU, Dst: next, Src1: addr, Src2: prod, ALU: AAdd})
		addr = next
	})
	if constOff != 0 {
		co := lo.newVReg()
		lo.emit(MInstr{Op: MImm, Dst: co, Imm: constOff})
		next := lo.newVReg()
		lo.emit(MInstr{Op: MALU, Dst: next, Src1: addr, Src2: co, ALU: AAdd})
		addr = next
	}
	return addr
}

// aluFor maps an arithmetic opcode to its ALU operation (AAdd for
// opcodes with no ALU form; shifts right are resolved by the caller).
func aluFor(op core.Opcode) ALUOp {
	switch op {
	case core.OpSub:
		return ASub
	case core.OpMul:
		return AMul
	case core.OpDiv:
		return ADiv
	case core.OpRem:
		return ARem
	case core.OpAnd:
		return AAnd
	case core.OpOr:
		return AOr
	case core.OpXor:
		return AXor
	case core.OpShl:
		return AShl
	}
	return AAdd
}

func condFor(op core.Opcode, signed bool) Cond {
	switch op {
	case core.OpSetEQ:
		return CEq
	case core.OpSetNE:
		return CNe
	case core.OpSetLT:
		if signed {
			return CLt
		}
		return CULt
	case core.OpSetGT:
		if signed {
			return CGt
		}
		return CUGt
	case core.OpSetLE:
		if signed {
			return CLe
		}
		return CULe
	default:
		if signed {
			return CGe
		}
		return CUGe
	}
}

func (lo *lowerer) lowerInst(inst core.Instruction) {
	switch i := inst.(type) {
	case *core.PhiInst:
		// Written on its incoming edges; ensure the vreg exists.
		lo.vregFor(i)

	case *core.BinaryInst:
		t := i.LHS().Type()
		a, b := lo.useValue(i.LHS()), lo.useValue(i.RHS())
		dst := lo.vregFor(i)
		if core.IsComparisonOp(i.Opcode()) {
			lo.emit(MInstr{Op: MCmp, Dst: dst, Src1: a, Src2: b,
				Cond: condFor(i.Opcode(), core.IsSigned(t)), Float: core.IsFloatingPoint(t)})
			return
		}
		alu := aluFor(i.Opcode())
		if i.Opcode() == core.OpShr {
			if core.IsSigned(t) {
				alu = AShrA
			} else {
				alu = AShrL
			}
		}
		lo.emit(MInstr{Op: MALU, Dst: dst, Src1: a, Src2: b, ALU: alu, Float: core.IsFloatingPoint(t)})

	case *core.MallocInst:
		size := lo.allocSizeVReg(i.AllocType, i.NumElems())
		lo.emit(MInstr{Op: MArg, Src1: size, Imm: 0})
		lo.emit(MInstr{Op: MCall, Dst: lo.vregFor(i), Sym: "malloc", Imm: 1})

	case *core.FreeInst:
		p := lo.useValue(i.Ptr())
		lo.emit(MInstr{Op: MArg, Src1: p, Imm: 0})
		lo.emit(MInstr{Op: MCall, Dst: NoReg, Sym: "free", Imm: 1})

	case *core.AllocaInst:
		if i.NumElems() == nil {
			// Static alloca: a fixed frame slot.
			sz := core.SizeOf(i.AllocType)
			lo.frameOff = align8(lo.frameOff) + align8(sz)
			lo.emit(MInstr{Op: MFrame, Dst: lo.vregFor(i), Imm: int64(-lo.frameOff)})
			return
		}
		size := lo.allocSizeVReg(i.AllocType, i.NumElems())
		lo.emit(MInstr{Op: MAllocaOp, Dst: lo.vregFor(i), Src1: size})

	case *core.LoadInst:
		p := lo.useValue(i.Ptr())
		lo.emit(MInstr{Op: MLoad, Dst: lo.vregFor(i), Src1: p,
			Size: int32(core.SizeOf(i.Type())), Float: core.IsFloatingPoint(i.Type())})

	case *core.StoreInst:
		v := lo.useValue(i.Val())
		p := lo.useValue(i.Ptr())
		lo.emit(MInstr{Op: MStore, Src1: v, Src2: p,
			Size: int32(core.SizeOf(i.Val().Type())), Float: core.IsFloatingPoint(i.Val().Type())})

	case *core.GetElementPtrInst:
		base := lo.useValue(i.Base())
		addr := lo.lowerGEPPath(base, i.Base().Type(), i.Indices())
		// Bind the GEP's vreg to the computed address via a move (keeps
		// one-def-per-vreg for the simple allocator).
		lo.emit(MInstr{Op: MMov, Dst: lo.vregFor(i), Src1: addr})

	case *core.CastInst:
		src := lo.useValue(i.Val())
		dst := lo.vregFor(i)
		// Same-size integer/pointer casts are free moves; width changes
		// and int<->float conversions are a conversion-flavored move the
		// encoders charge appropriately.
		lo.emit(MInstr{Op: MMov, Dst: dst, Src1: src,
			Float: core.IsFloatingPoint(i.Type()) != core.IsFloatingPoint(i.Val().Type()),
			Size:  int32(core.SizeOf(i.Type()))})

	case *core.CallInst:
		lo.lowerCall(i, i.Callee(), i.Args())

	case *core.VAArgInst:
		// va_arg loads through the list pointer and bumps it.
		p := lo.useValue(i.List())
		lo.emit(MInstr{Op: MLoad, Dst: lo.vregFor(i), Src1: p, Size: 8})

	default:
		panic(fmt.Sprintf("codegen: cannot lower %s", inst.Opcode()))
	}
}

func (lo *lowerer) allocSizeVReg(t core.Type, numElems core.Value) VReg {
	szReg := lo.newVReg()
	lo.emit(MInstr{Op: MImm, Dst: szReg, Imm: int64(core.SizeOf(t))})
	if numElems == nil {
		return szReg
	}
	n := lo.useValue(numElems)
	total := lo.newVReg()
	lo.emit(MInstr{Op: MALU, Dst: total, Src1: szReg, Src2: n, ALU: AMul})
	return total
}

func (lo *lowerer) lowerCall(result core.Instruction, callee core.Value, args []core.Value) {
	for k, a := range args {
		v := lo.useValue(a)
		lo.emit(MInstr{Op: MArg, Src1: v, Imm: int64(k)})
	}
	dst := NoReg
	if result.Type() != core.VoidType {
		dst = lo.vregFor(result)
	}
	if f, ok := callee.(*core.Function); ok {
		lo.emit(MInstr{Op: MCall, Dst: dst, Sym: f.Name(), Imm: int64(len(args))})
		return
	}
	c := lo.useValue(callee)
	lo.emit(MInstr{Op: MCallInd, Dst: dst, Src1: c, Imm: int64(len(args))})
}

// lowerTerminator lowers b's terminator. An unconditional branch runs the
// edge's φ copies just before its jump; any other edge that copies
// anything goes through a split block (edgeTarget).
func (lo *lowerer) lowerTerminator(b *core.BasicBlock) {
	switch i := b.Terminator().(type) {
	case *core.RetInst:
		if i.Value() == nil {
			lo.emit(MInstr{Op: MRet, Src1: NoReg})
		} else {
			v := lo.useValue(i.Value())
			lo.emit(MInstr{Op: MRet, Src1: v})
		}
	case *core.BranchInst:
		if !i.IsConditional() {
			lo.copies(b, i.TrueDest())
			lo.emit(MInstr{Op: MJmp, Target: lo.blockIdx[i.TrueDest()]})
			return
		}
		c := lo.useValue(i.Cond())
		lo.emit(MInstr{Op: MBr, Src1: c,
			Target: lo.edgeTarget(b, i.TrueDest()), Target2: lo.edgeTarget(b, i.FalseDest())})
	case *core.SwitchInst:
		// Compare-and-branch chain.
		v := lo.useValue(i.Value())
		for n := 0; n < i.NumCases(); n++ {
			cv, dest := i.Case(n)
			cr := lo.newVReg()
			lo.emit(MInstr{Op: MImm, Dst: cr, Imm: cv.SExt()})
			fl := lo.newVReg()
			lo.emit(MInstr{Op: MCmp, Dst: fl, Src1: v, Src2: cr, Cond: CEq})
			// Branch-taken to the case, fall through to the next test.
			lo.emit(MInstr{Op: MBr, Src1: fl, Target: lo.edgeTarget(b, dest), Target2: -1})
		}
		lo.emit(MInstr{Op: MJmp, Target: lo.edgeTarget(b, i.Default())})
	case *core.InvokeInst:
		lo.emit(MInstr{Op: MEHPush, Target: lo.edgeTarget(b, i.UnwindDest())})
		lo.lowerCall(i, i.Callee(), i.Args())
		lo.emit(MInstr{Op: MEHPop})
		lo.emit(MInstr{Op: MJmp, Target: lo.edgeTarget(b, i.NormalDest())})
	case *core.UnwindInst:
		lo.emit(MInstr{Op: MUnwind})
	default:
		panic(fmt.Sprintf("codegen: bad terminator %v", i))
	}
}

func align8(n int) int { return (n + 7) &^ 7 }
