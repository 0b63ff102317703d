package core

import (
	"errors"
	"fmt"
)

// Opcode enumerates the instruction set. There are exactly 31 opcodes, as
// the paper states (§2.1): five terminators, ten arithmetic/logical ops,
// six comparisons, six memory ops, and phi/cast/call/vaarg.
type Opcode int

// The 31 opcodes of the LLVM 1.x instruction set.
const (
	// Terminators.
	OpRet Opcode = iota
	OpBr
	OpSwitch
	OpInvoke
	OpUnwind
	// Binary arithmetic (overloaded across integer and FP types).
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	// Bitwise / shifts (integer only; shift amount is ubyte).
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	// Comparisons (result bool).
	OpSetEQ
	OpSetNE
	OpSetLT
	OpSetGT
	OpSetLE
	OpSetGE
	// Memory.
	OpMalloc
	OpFree
	OpAlloca
	OpLoad
	OpStore
	OpGetElementPtr
	// Other.
	OpPhi
	OpCast
	OpCall
	OpVAArg

	numOpcodes
)

// NumOpcodes is the size of the instruction set (31).
const NumOpcodes = int(numOpcodes)

var opcodeNames = [...]string{
	OpRet: "ret", OpBr: "br", OpSwitch: "switch", OpInvoke: "invoke", OpUnwind: "unwind",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpSetEQ: "seteq", OpSetNE: "setne", OpSetLT: "setlt", OpSetGT: "setgt",
	OpSetLE: "setle", OpSetGE: "setge",
	OpMalloc: "malloc", OpFree: "free", OpAlloca: "alloca", OpLoad: "load",
	OpStore: "store", OpGetElementPtr: "getelementptr",
	OpPhi: "phi", OpCast: "cast", OpCall: "call", OpVAArg: "vaarg",
}

// String returns the assembly mnemonic for the opcode.
func (op Opcode) String() string {
	if op >= 0 && int(op) < len(opcodeNames) {
		return opcodeNames[op]
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// OpcodeByName maps a mnemonic back to its Opcode; ok is false for unknown
// mnemonics.
func OpcodeByName(name string) (Opcode, bool) {
	for op, n := range opcodeNames {
		if n == name {
			return Opcode(op), true
		}
	}
	return 0, false
}

// IsTerminatorOp reports whether op ends a basic block.
func IsTerminatorOp(op Opcode) bool { return op <= OpUnwind }

// IsBinaryOp reports whether op is one of the ten binary arithmetic/logical
// operators.
func IsBinaryOp(op Opcode) bool { return op >= OpAdd && op <= OpShr }

// IsComparisonOp reports whether op is one of the six set* comparisons.
func IsComparisonOp(op Opcode) bool { return op >= OpSetEQ && op <= OpSetGE }

// IsCommutative reports whether the binary operator commutes.
func IsCommutative(op Opcode) bool {
	switch op {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor, OpSetEQ, OpSetNE:
		return true
	}
	return false
}

// Instruction is a single IR operation. Instructions live in basic blocks
// and are Users (they reference operands) and Values (their result may be
// used by other instructions; instructions of void type produce no value).
type Instruction interface {
	User
	Opcode() Opcode
	Parent() *BasicBlock
	setParent(*BasicBlock)
	IsTerminator() bool
	// ID returns the instruction's number within its function (see
	// Function.NumInstIDs); 0 if it was never inserted into a function.
	ID() int
	setID(int32)
}

// instrBase supplies the shared Instruction plumbing.
type instrBase struct {
	userBase
	parent *BasicBlock
	op     Opcode
}

func (i *instrBase) Opcode() Opcode          { return i.op }
func (i *instrBase) Parent() *BasicBlock     { return i.parent }
func (i *instrBase) setParent(b *BasicBlock) { i.parent = b }
func (i *instrBase) ID() int                 { return int(i.id) }
func (i *instrBase) setID(id int32)          { i.id = id }
func (i *instrBase) IsTerminator() bool      { return IsTerminatorOp(i.op) }

// ---------------------------------------------------------------------------
// Terminators

// RetInst returns from the function, optionally with a value.
// Operands: [value] or [].
type RetInst struct{ instrBase }

// NewRet creates "ret <ty> <val>" or "ret void" when v is nil.
func NewRet(v Value) *RetInst {
	r := &RetInst{}
	r.op = OpRet
	r.typ = VoidType
	if v != nil {
		r.setOperands(r, []Value{v})
	}
	return r
}

// SetOperand replaces the i'th operand.
func (i *RetInst) SetOperand(n int, v Value) { i.setOperandAt(i, n, v) }

// Value returns the returned value, or nil for "ret void".
func (i *RetInst) Value() Value {
	if len(i.ops) == 0 {
		return nil
	}
	return i.ops[0]
}

// BranchInst is a conditional or unconditional branch.
// Operands: [dest] or [cond, ifTrue, ifFalse].
type BranchInst struct{ instrBase }

// NewBr creates an unconditional branch to dest.
func NewBr(dest *BasicBlock) *BranchInst {
	b := &BranchInst{}
	b.op = OpBr
	b.typ = VoidType
	b.setOperands(b, []Value{dest})
	return b
}

// NewCondBr creates "br bool %cond, label %ifTrue, label %ifFalse".
func NewCondBr(cond Value, ifTrue, ifFalse *BasicBlock) *BranchInst {
	b := &BranchInst{}
	b.op = OpBr
	b.typ = VoidType
	b.setOperands(b, []Value{cond, ifTrue, ifFalse})
	return b
}

// SetOperand replaces the i'th operand.
func (i *BranchInst) SetOperand(n int, v Value) { i.setOperandAt(i, n, v) }

// IsConditional reports whether the branch has a condition.
func (i *BranchInst) IsConditional() bool { return len(i.ops) == 3 }

// Cond returns the branch condition (conditional branches only).
func (i *BranchInst) Cond() Value { return i.ops[0] }

// TrueDest returns the taken-destination of a conditional branch, or the
// sole destination of an unconditional one.
func (i *BranchInst) TrueDest() *BasicBlock {
	if i.IsConditional() {
		return i.ops[1].(*BasicBlock)
	}
	return i.ops[0].(*BasicBlock)
}

// FalseDest returns the not-taken destination (conditional branches only).
func (i *BranchInst) FalseDest() *BasicBlock {
	return i.ops[2].(*BasicBlock)
}

// MakeUnconditional rewrites a conditional branch into "br label %dest".
func (i *BranchInst) MakeUnconditional(dest *BasicBlock) {
	i.dropOperandsFrom(i)
	i.setOperands(i, []Value{dest})
	edited(i, true)
}

// SwitchInst is a multiway branch on an integer value.
// Operands: [val, defaultDest, case0Val, case0Dest, case1Val, case1Dest...].
type SwitchInst struct{ instrBase }

// NewSwitch creates a switch on v with the given default destination.
func NewSwitch(v Value, def *BasicBlock) *SwitchInst {
	s := &SwitchInst{}
	s.op = OpSwitch
	s.typ = VoidType
	s.setOperands(s, []Value{v, def})
	return s
}

// SetOperand replaces the i'th operand.
func (i *SwitchInst) SetOperand(n int, v Value) { i.setOperandAt(i, n, v) }

// Value returns the switched-on value.
func (i *SwitchInst) Value() Value { return i.ops[0] }

// Default returns the default destination.
func (i *SwitchInst) Default() *BasicBlock { return i.ops[1].(*BasicBlock) }

// NumCases returns the number of non-default cases.
func (i *SwitchInst) NumCases() int { return (len(i.ops) - 2) / 2 }

// Case returns the i'th case's value and destination.
func (i *SwitchInst) Case(n int) (*ConstantInt, *BasicBlock) {
	return i.ops[2+2*n].(*ConstantInt), i.ops[3+2*n].(*BasicBlock)
}

// AddCase appends a case.
func (i *SwitchInst) AddCase(val *ConstantInt, dest *BasicBlock) {
	i.appendOperand(i, val)
	i.appendOperand(i, dest)
}

// RemoveCase deletes the n'th case.
func (i *SwitchInst) RemoveCase(n int) {
	// Shift remaining cases down, then truncate.
	for j := 2 + 2*n; j+2 < len(i.ops); j++ {
		i.setOperandAt(i, j, i.ops[j+2])
	}
	i.truncateOperands(i, len(i.ops)-2)
}

// InvokeInst is a call with exceptional control flow: control transfers to
// the normal label on return, or to the unwind label if the callee (or
// anything below it) executes unwind.
// Operands: [callee, args..., normalDest, unwindDest].
type InvokeInst struct{ instrBase }

// NewInvoke creates "invoke <ty> %callee(args) to label %normal unwind to
// label %unwind".
func NewInvoke(callee Value, args []Value, normal, unwind *BasicBlock) *InvokeInst {
	iv := &InvokeInst{}
	iv.op = OpInvoke
	iv.typ = calleeReturnType(callee)
	ops := make([]Value, 0, len(args)+3)
	ops = append(ops, callee)
	ops = append(ops, args...)
	ops = append(ops, normal, unwind)
	iv.setOperands(iv, ops)
	return iv
}

// SetOperand replaces the i'th operand.
func (i *InvokeInst) SetOperand(n int, v Value) { i.setOperandAt(i, n, v) }

// Callee returns the invoked function (pointer).
func (i *InvokeInst) Callee() Value { return i.ops[0] }

// Args returns the argument operands.
func (i *InvokeInst) Args() []Value { return i.ops[1 : len(i.ops)-2] }

// NormalDest returns the label control reaches after a normal return.
func (i *InvokeInst) NormalDest() *BasicBlock { return i.ops[len(i.ops)-2].(*BasicBlock) }

// UnwindDest returns the label control reaches on unwind.
func (i *InvokeInst) UnwindDest() *BasicBlock { return i.ops[len(i.ops)-1].(*BasicBlock) }

// UnwindInst unwinds the stack to the nearest dynamically-enclosing invoke.
type UnwindInst struct{ instrBase }

// NewUnwind creates an "unwind" terminator.
func NewUnwind() *UnwindInst {
	u := &UnwindInst{}
	u.op = OpUnwind
	u.typ = VoidType
	return u
}

// SetOperand replaces the i'th operand.
func (i *UnwindInst) SetOperand(n int, v Value) { i.setOperandAt(i, n, v) }

// ---------------------------------------------------------------------------
// Binary operators and comparisons

// BinaryInst covers the ten arithmetic/logical binary operators and the six
// comparisons; the opcode distinguishes them. Comparisons produce bool, the
// others produce the operand type. Operands: [lhs, rhs].
type BinaryInst struct{ instrBase }

// NewBinary creates a binary operator instruction. For comparison opcodes
// the result type is bool; otherwise it is lhs's type.
func NewBinary(op Opcode, lhs, rhs Value) *BinaryInst {
	if !IsBinaryOp(op) && !IsComparisonOp(op) {
		panic("core.NewBinary: bad opcode " + op.String())
	}
	b := &BinaryInst{}
	b.op = op
	if IsComparisonOp(op) {
		b.typ = BoolType
	} else {
		b.typ = lhs.Type()
	}
	b.setOperands(b, []Value{lhs, rhs})
	return b
}

// SetOperand replaces the i'th operand.
func (i *BinaryInst) SetOperand(n int, v Value) { i.setOperandAt(i, n, v) }

// LHS returns the first operand.
func (i *BinaryInst) LHS() Value { return i.ops[0] }

// RHS returns the second operand.
func (i *BinaryInst) RHS() Value { return i.ops[1] }

// ---------------------------------------------------------------------------
// Memory

// MallocInst allocates AllocType (or an array of them) on the heap and
// yields a typed pointer. Operands: [] or [numElems].
type MallocInst struct {
	instrBase
	AllocType Type
}

// NewMalloc creates "malloc <ty>" or "malloc <ty>, uint %n" when n != nil.
func NewMalloc(t Type, n Value) *MallocInst {
	m := &MallocInst{AllocType: t}
	m.op = OpMalloc
	m.typ = NewPointer(t)
	if n != nil {
		m.setOperands(m, []Value{n})
	}
	return m
}

// SetOperand replaces the i'th operand.
func (i *MallocInst) SetOperand(n int, v Value) { i.setOperandAt(i, n, v) }

// NumElems returns the element-count operand, or nil for a single element.
func (i *MallocInst) NumElems() Value {
	if len(i.ops) == 0 {
		return nil
	}
	return i.ops[0]
}

// AllocaInst allocates AllocType in the current stack frame; the memory is
// freed automatically on return. Operands: [] or [numElems].
type AllocaInst struct {
	instrBase
	AllocType Type
}

// NewAlloca creates "alloca <ty>" or "alloca <ty>, uint %n" when n != nil.
func NewAlloca(t Type, n Value) *AllocaInst {
	a := &AllocaInst{AllocType: t}
	a.op = OpAlloca
	a.typ = NewPointer(t)
	if n != nil {
		a.setOperands(a, []Value{n})
	}
	return a
}

// SetOperand replaces the i'th operand.
func (i *AllocaInst) SetOperand(n int, v Value) { i.setOperandAt(i, n, v) }

// NumElems returns the element-count operand, or nil for a single element.
func (i *AllocaInst) NumElems() Value {
	if len(i.ops) == 0 {
		return nil
	}
	return i.ops[0]
}

// FreeInst releases memory obtained from malloc. Operands: [ptr].
type FreeInst struct{ instrBase }

// NewFree creates "free <ty>* %p".
func NewFree(ptr Value) *FreeInst {
	f := &FreeInst{}
	f.op = OpFree
	f.typ = VoidType
	f.setOperands(f, []Value{ptr})
	return f
}

// SetOperand replaces the i'th operand.
func (i *FreeInst) SetOperand(n int, v Value) { i.setOperandAt(i, n, v) }

// Ptr returns the freed pointer.
func (i *FreeInst) Ptr() Value { return i.ops[0] }

// LoadInst reads through a typed pointer. Operands: [ptr].
type LoadInst struct{ instrBase }

// NewLoad creates "load <ty>* %p"; the result type is the pointee type.
func NewLoad(ptr Value) *LoadInst {
	pt, ok := ptr.Type().(*PointerType)
	if !ok {
		panic("core.NewLoad: non-pointer operand of type " + ptr.Type().String())
	}
	l := &LoadInst{}
	l.op = OpLoad
	l.typ = pt.Elem
	l.setOperands(l, []Value{ptr})
	return l
}

// SetOperand replaces the i'th operand.
func (i *LoadInst) SetOperand(n int, v Value) { i.setOperandAt(i, n, v) }

// Ptr returns the loaded-from pointer.
func (i *LoadInst) Ptr() Value { return i.ops[0] }

// StoreInst writes through a typed pointer. Operands: [val, ptr].
type StoreInst struct{ instrBase }

// NewStore creates "store <ty> %v, <ty>* %p".
func NewStore(val, ptr Value) *StoreInst {
	s := &StoreInst{}
	s.op = OpStore
	s.typ = VoidType
	s.setOperands(s, []Value{val, ptr})
	return s
}

// SetOperand replaces the i'th operand.
func (i *StoreInst) SetOperand(n int, v Value) { i.setOperandAt(i, n, v) }

// Val returns the stored value.
func (i *StoreInst) Val() Value { return i.ops[0] }

// Ptr returns the stored-to pointer.
func (i *StoreInst) Ptr() Value { return i.ops[1] }

// GetElementPtrInst performs typed address arithmetic: given a pointer to an
// aggregate, it computes the address of a sub-element without accessing
// memory, preserving type information (§2.2 of the paper). The first index
// steps over the pointer itself; subsequent indices select struct fields
// (constant ubyte) or array elements (long).
// Operands: [base, idx0, idx1, ...].
type GetElementPtrInst struct{ instrBase }

// NewGEP creates a getelementptr instruction. It panics if the index path
// does not match the pointed-to type; use GEPResultType to validate first.
func NewGEP(base Value, indices ...Value) *GetElementPtrInst {
	rt, err := GEPResultType(base.Type(), indices)
	if err != nil {
		panic("core.NewGEP: " + err.Error())
	}
	g := &GetElementPtrInst{}
	g.op = OpGetElementPtr
	g.typ = rt
	ops := make([]Value, 0, len(indices)+1)
	ops = append(ops, base)
	ops = append(ops, indices...)
	g.setOperands(g, ops)
	return g
}

// SetOperand replaces the i'th operand.
func (i *GetElementPtrInst) SetOperand(n int, v Value) { i.setOperandAt(i, n, v) }

// Base returns the base pointer.
func (i *GetElementPtrInst) Base() Value { return i.ops[0] }

// Indices returns the index operands.
func (i *GetElementPtrInst) Indices() []Value { return i.ops[1:] }

// GEPResultType computes the pointer type produced by indexing baseType
// (which must be a pointer) with the given index path, or an error if the
// path is invalid.
func GEPResultType(baseType Type, indices []Value) (Type, error) {
	pt, ok := baseType.(*PointerType)
	if !ok {
		return nil, fmt.Errorf("getelementptr base is not a pointer: %s", baseType)
	}
	if len(indices) == 0 {
		return nil, errors.New("getelementptr requires at least one index")
	}
	cur := pt.Elem
	for k, idx := range indices {
		if k == 0 {
			// First index steps over the pointer; any integer works.
			if !IsInteger(idx.Type()) {
				return nil, fmt.Errorf("getelementptr index 0 must be an integer, got %s", idx.Type())
			}
			continue
		}
		switch ct := cur.(type) {
		case *StructType:
			ci, ok := idx.(*ConstantInt)
			if !ok {
				return nil, errors.New("getelementptr struct index must be a constant")
			}
			f := int(ci.SExt())
			if f < 0 || f >= len(ct.Fields) {
				return nil, fmt.Errorf("getelementptr struct index %d out of range (%d fields)", f, len(ct.Fields))
			}
			cur = ct.Fields[f]
		case *ArrayType:
			if !IsInteger(idx.Type()) {
				return nil, fmt.Errorf("getelementptr array index must be an integer, got %s", idx.Type())
			}
			cur = ct.Elem
		default:
			return nil, fmt.Errorf("getelementptr cannot index into %s", cur)
		}
	}
	return NewPointer(cur), nil
}

// ---------------------------------------------------------------------------
// Other

// PhiInst is the SSA φ-function: it selects among incoming values based on
// the predecessor through which control entered the block.
// Operands: [val0, pred0, val1, pred1, ...].
type PhiInst struct{ instrBase }

// NewPhi creates an empty phi of type t; add incoming edges with AddIncoming.
func NewPhi(t Type) *PhiInst {
	p := &PhiInst{}
	p.op = OpPhi
	p.typ = t
	return p
}

// SetOperand replaces the i'th operand.
func (i *PhiInst) SetOperand(n int, v Value) { i.setOperandAt(i, n, v) }

// AddIncoming appends an (value, predecessor) pair.
func (i *PhiInst) AddIncoming(v Value, pred *BasicBlock) {
	i.appendOperand(i, v)
	i.appendOperand(i, pred)
}

// NumIncoming returns the number of incoming edges.
func (i *PhiInst) NumIncoming() int { return len(i.ops) / 2 }

// Incoming returns the n'th (value, predecessor) pair.
func (i *PhiInst) Incoming(n int) (Value, *BasicBlock) {
	return i.ops[2*n], i.ops[2*n+1].(*BasicBlock)
}

// IncomingFor returns the value flowing in from pred, or nil if pred is not
// an incoming block.
func (i *PhiInst) IncomingFor(pred *BasicBlock) Value {
	for n := 0; n < i.NumIncoming(); n++ {
		if v, b := i.Incoming(n); b == pred {
			return v
		}
	}
	return nil
}

// incomingIndex returns the first incoming entry for pred, or -1.
func (i *PhiInst) incomingIndex(pred *BasicBlock) int {
	for n := 1; n < len(i.ops); n += 2 {
		if i.ops[n] == Value(pred) {
			return n / 2
		}
	}
	return -1
}

// incomingCount returns the number of incoming entries for pred.
func (i *PhiInst) incomingCount(pred *BasicBlock) int {
	c := 0
	for n := 1; n < len(i.ops); n += 2 {
		if i.ops[n] == Value(pred) {
			c++
		}
	}
	return c
}

// RemoveIncoming deletes the n'th incoming pair.
func (i *PhiInst) RemoveIncoming(n int) {
	for j := 2 * n; j+2 < len(i.ops); j++ {
		i.setOperandAt(i, j, i.ops[j+2])
	}
	i.truncateOperands(i, len(i.ops)-2)
}

// CastInst converts a value to another type; it is the only way to perform
// type conversions, making all of them explicit (§2.2).
// Operands: [val]. The destination type is the instruction's type.
type CastInst struct{ instrBase }

// NewCast creates "cast <ty> %v to <destTy>".
func NewCast(v Value, dest Type) *CastInst {
	c := &CastInst{}
	c.op = OpCast
	c.typ = dest
	c.setOperands(c, []Value{v})
	return c
}

// SetOperand replaces the i'th operand.
func (i *CastInst) SetOperand(n int, v Value) { i.setOperandAt(i, n, v) }

// Val returns the value being converted.
func (i *CastInst) Val() Value { return i.ops[0] }

// IsLossless reports whether this cast provably preserves information.
func (i *CastInst) IsLossless() bool { return IsLosslesslyConvertible(i.Val().Type(), i.typ) }

// CallInst calls through a typed function pointer, abstracting the machine
// calling convention. Operands: [callee, args...].
type CallInst struct{ instrBase }

// NewCall creates "call <retty> %callee(args...)".
func NewCall(callee Value, args ...Value) *CallInst {
	c := &CallInst{}
	c.op = OpCall
	c.typ = calleeReturnType(callee)
	ops := make([]Value, 0, len(args)+1)
	ops = append(ops, callee)
	ops = append(ops, args...)
	c.setOperands(c, ops)
	return c
}

// SetOperand replaces the i'th operand.
func (i *CallInst) SetOperand(n int, v Value) { i.setOperandAt(i, n, v) }

// Callee returns the called function (pointer) operand.
func (i *CallInst) Callee() Value { return i.ops[0] }

// Args returns the argument operands.
func (i *CallInst) Args() []Value { return i.ops[1:] }

// CalledFunction returns the statically-known callee Function, or nil for
// indirect calls.
func (i *CallInst) CalledFunction() *Function {
	f, _ := i.ops[0].(*Function)
	return f
}

// CalledFunctionOf returns the direct callee of a call or invoke, or nil.
func CalledFunctionOf(inst Instruction) *Function {
	switch c := inst.(type) {
	case *CallInst:
		return c.CalledFunction()
	case *InvokeInst:
		f, _ := c.Callee().(*Function)
		return f
	}
	return nil
}

// VAArgInst extracts the next argument from a variadic argument list.
// Operands: [valist]. The result type is the instruction's type.
type VAArgInst struct{ instrBase }

// NewVAArg creates "vaarg <ty>* %ap, <argty>".
func NewVAArg(valist Value, t Type) *VAArgInst {
	v := &VAArgInst{}
	v.op = OpVAArg
	v.typ = t
	v.setOperands(v, []Value{valist})
	return v
}

// SetOperand replaces the i'th operand.
func (i *VAArgInst) SetOperand(n int, v Value) { i.setOperandAt(i, n, v) }

// List returns the va_list operand.
func (i *VAArgInst) List() Value { return i.ops[0] }

// calleeReturnType extracts the return type from a function-pointer value.
func calleeReturnType(callee Value) Type {
	t := callee.Type()
	if pt, ok := t.(*PointerType); ok {
		t = pt.Elem
	}
	if ft, ok := t.(*FunctionType); ok {
		return ft.Ret
	}
	panic("core: callee is not a function pointer: " + callee.Type().String())
}

// CalleeFunctionType extracts the FunctionType from a function-pointer
// value's type, or nil if it is not one.
func CalleeFunctionType(callee Value) *FunctionType {
	t := callee.Type()
	if pt, ok := t.(*PointerType); ok {
		t = pt.Elem
	}
	ft, _ := t.(*FunctionType)
	return ft
}
