package core

// Builder constructs IR instruction-by-instruction at an insertion point,
// in the style of LLVM's IRBuilder. All Create* methods append to the
// current block and return the new instruction (as a Value where that is
// more convenient).
type Builder struct {
	block *BasicBlock
	tmp   int
}

// NewBuilder returns a builder with no insertion point.
func NewBuilder() *Builder { return &Builder{} }

// SetInsertPoint directs subsequent instructions to the end of b.
func (bld *Builder) SetInsertPoint(b *BasicBlock) { bld.block = b }

// Block returns the current insertion block.
func (bld *Builder) Block() *BasicBlock { return bld.block }

// Insert appends inst at the insertion point and returns it.
func (bld *Builder) Insert(inst Instruction) Instruction {
	if bld.block == nil {
		panic("core.Builder: no insertion point")
	}
	bld.block.Append(inst)
	return inst
}

// CreateRet emits "ret <v>"; v may be nil for void.
func (bld *Builder) CreateRet(v Value) *RetInst {
	return bld.Insert(NewRet(v)).(*RetInst)
}

// CreateBr emits an unconditional branch.
func (bld *Builder) CreateBr(dest *BasicBlock) *BranchInst {
	return bld.Insert(NewBr(dest)).(*BranchInst)
}

// CreateCondBr emits a conditional branch.
func (bld *Builder) CreateCondBr(cond Value, t, f *BasicBlock) *BranchInst {
	return bld.Insert(NewCondBr(cond, t, f)).(*BranchInst)
}

// CreateSwitch emits a switch with the given default destination.
func (bld *Builder) CreateSwitch(v Value, def *BasicBlock) *SwitchInst {
	return bld.Insert(NewSwitch(v, def)).(*SwitchInst)
}

// CreateInvoke emits an invoke.
func (bld *Builder) CreateInvoke(callee Value, args []Value, normal, unwind *BasicBlock, name string) *InvokeInst {
	iv := NewInvoke(callee, args, normal, unwind)
	iv.SetName(name)
	return bld.Insert(iv).(*InvokeInst)
}

// CreateUnwind emits an unwind terminator.
func (bld *Builder) CreateUnwind() *UnwindInst {
	return bld.Insert(NewUnwind()).(*UnwindInst)
}

// CreateBinary emits a binary operator or comparison.
func (bld *Builder) CreateBinary(op Opcode, lhs, rhs Value, name string) *BinaryInst {
	b := NewBinary(op, lhs, rhs)
	b.SetName(name)
	return bld.Insert(b).(*BinaryInst)
}

// Convenience wrappers for the common binary operators.
func (bld *Builder) CreateAdd(l, r Value, name string) *BinaryInst {
	return bld.CreateBinary(OpAdd, l, r, name)
}
func (bld *Builder) CreateSub(l, r Value, name string) *BinaryInst {
	return bld.CreateBinary(OpSub, l, r, name)
}
func (bld *Builder) CreateMul(l, r Value, name string) *BinaryInst {
	return bld.CreateBinary(OpMul, l, r, name)
}
func (bld *Builder) CreateDiv(l, r Value, name string) *BinaryInst {
	return bld.CreateBinary(OpDiv, l, r, name)
}
func (bld *Builder) CreateRem(l, r Value, name string) *BinaryInst {
	return bld.CreateBinary(OpRem, l, r, name)
}
func (bld *Builder) CreateAnd(l, r Value, name string) *BinaryInst {
	return bld.CreateBinary(OpAnd, l, r, name)
}
func (bld *Builder) CreateOr(l, r Value, name string) *BinaryInst {
	return bld.CreateBinary(OpOr, l, r, name)
}
func (bld *Builder) CreateXor(l, r Value, name string) *BinaryInst {
	return bld.CreateBinary(OpXor, l, r, name)
}
func (bld *Builder) CreateShl(l, r Value, name string) *BinaryInst {
	return bld.CreateBinary(OpShl, l, r, name)
}
func (bld *Builder) CreateShr(l, r Value, name string) *BinaryInst {
	return bld.CreateBinary(OpShr, l, r, name)
}
func (bld *Builder) CreateSetEQ(l, r Value, name string) *BinaryInst {
	return bld.CreateBinary(OpSetEQ, l, r, name)
}
func (bld *Builder) CreateSetNE(l, r Value, name string) *BinaryInst {
	return bld.CreateBinary(OpSetNE, l, r, name)
}
func (bld *Builder) CreateSetLT(l, r Value, name string) *BinaryInst {
	return bld.CreateBinary(OpSetLT, l, r, name)
}
func (bld *Builder) CreateSetGT(l, r Value, name string) *BinaryInst {
	return bld.CreateBinary(OpSetGT, l, r, name)
}
func (bld *Builder) CreateSetLE(l, r Value, name string) *BinaryInst {
	return bld.CreateBinary(OpSetLE, l, r, name)
}
func (bld *Builder) CreateSetGE(l, r Value, name string) *BinaryInst {
	return bld.CreateBinary(OpSetGE, l, r, name)
}

// CreateMalloc emits "malloc <t>[, uint n]".
func (bld *Builder) CreateMalloc(t Type, n Value, name string) *MallocInst {
	m := NewMalloc(t, n)
	m.SetName(name)
	return bld.Insert(m).(*MallocInst)
}

// CreateAlloca emits "alloca <t>[, uint n]".
func (bld *Builder) CreateAlloca(t Type, n Value, name string) *AllocaInst {
	a := NewAlloca(t, n)
	a.SetName(name)
	return bld.Insert(a).(*AllocaInst)
}

// CreateFree emits "free <p>".
func (bld *Builder) CreateFree(p Value) *FreeInst {
	return bld.Insert(NewFree(p)).(*FreeInst)
}

// CreateLoad emits "load <p>".
func (bld *Builder) CreateLoad(p Value, name string) *LoadInst {
	l := NewLoad(p)
	l.SetName(name)
	return bld.Insert(l).(*LoadInst)
}

// CreateStore emits "store <v>, <p>".
func (bld *Builder) CreateStore(v, p Value) *StoreInst {
	return bld.Insert(NewStore(v, p)).(*StoreInst)
}

// CreateGEP emits a getelementptr.
func (bld *Builder) CreateGEP(base Value, indices []Value, name string) *GetElementPtrInst {
	g := NewGEP(base, indices...)
	g.SetName(name)
	return bld.Insert(g).(*GetElementPtrInst)
}

// CreateStructGEP emits a two-index GEP selecting field f of the struct
// pointed to by base: getelementptr base, long 0, ubyte f.
func (bld *Builder) CreateStructGEP(base Value, f int, name string) *GetElementPtrInst {
	return bld.CreateGEP(base, []Value{NewInt(LongType, 0), NewInt(UByteType, int64(f))}, name)
}

// CreatePhi emits an (initially empty) phi node.
func (bld *Builder) CreatePhi(t Type, name string) *PhiInst {
	p := NewPhi(t)
	p.SetName(name)
	return bld.Insert(p).(*PhiInst)
}

// CreateCast emits "cast <v> to <t>". If the value already has type t it is
// returned unchanged (no-op casts are never emitted).
func (bld *Builder) CreateCast(v Value, t Type, name string) Value {
	if v.Type() == t {
		return v
	}
	c := NewCast(v, t)
	c.SetName(name)
	return bld.Insert(c)
}

// CreateCall emits a call.
func (bld *Builder) CreateCall(callee Value, args []Value, name string) *CallInst {
	c := NewCall(callee, args...)
	c.SetName(name)
	return bld.Insert(c).(*CallInst)
}

// CreateVAArg emits a vaarg instruction.
func (bld *Builder) CreateVAArg(list Value, t Type, name string) *VAArgInst {
	v := NewVAArg(list, t)
	v.SetName(name)
	return bld.Insert(v).(*VAArgInst)
}

// FreshName returns a unique temporary name with the given prefix, for
// callers that want stable printable names.
func (bld *Builder) FreshName(prefix string) string {
	bld.tmp++
	return prefix + itoa(bld.tmp)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := n < 0
	if neg {
		n = -n
	}
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
