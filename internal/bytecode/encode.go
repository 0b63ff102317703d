package bytecode

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/wire"
)

// Constant record kinds.
const (
	ckModRef byte = iota // reference to a module-level function/global
	ckInt
	ckFloat
	ckBool
	ckNull
	ckUndef
	ckZero
	ckArray
	ckStruct
	ckExprCast
	ckExprGEP
)

// Global/function header flag bits.
const (
	flagConst    = 1 << 0
	flagInternal = 1 << 1
	flagHasInit  = 1 << 2 // globals: has initializer; functions: has body
)

// Compact-instruction field limits: [0|opcode:5|type:9|op1:8|op2:9].
const (
	maxCompactType = 510
	noOp1          = 255 // sentinel: no operands
	maxCompactOp1  = 254
	noOp2          = 511 // sentinel: one operand
	maxCompactOp2  = 510
)

// Encode serializes the module, including the symbol tables that preserve
// local value and block names (lossless round trip). A module containing
// constructs the format cannot represent is reported as an error, never a
// panic.
func Encode(m *core.Module) ([]byte, error) { return EncodeWithOptions(m, false) }

// EncodeStripped serializes the module without local symbol names, like a
// stripped executable; module-level symbols are always kept (they define
// linkage identity).
func EncodeStripped(m *core.Module) ([]byte, error) { return EncodeWithOptions(m, true) }

// EncodeWithOptions serializes with explicit control over symbol stripping.
func EncodeWithOptions(m *core.Module, strip bool) ([]byte, error) {
	e := &encoder{
		m:      m,
		strs:   newStringTable(),
		types:  newTypeTable(),
		modIDs: map[core.Value]uint64{},
		strip:  strip,
	}
	return e.run()
}

type encoder struct {
	m      *core.Module
	strs   *stringTable
	types  *typeTable
	modIDs map[core.Value]uint64
	strip  bool
}

func (e *encoder) run() ([]byte, error) {
	for i, f := range e.m.Funcs {
		e.modIDs[f] = uint64(i)
	}
	for i, g := range e.m.Globals {
		e.modIDs[g] = uint64(len(e.m.Funcs) + i)
	}

	var hdr, inits, bodies wire.Writer

	// Named module types.
	names := e.m.TypeNames()
	hdr.Uvarint(uint64(len(names)))
	for _, n := range names {
		t, _ := e.m.NamedType(n)
		hdr.Uvarint(e.strs.id(n))
		hdr.Uvarint(e.types.id(t))
	}

	// Global headers.
	hdr.Uvarint(uint64(len(e.m.Globals)))
	for _, g := range e.m.Globals {
		hdr.Uvarint(e.strs.id(g.Name()))
		hdr.Uvarint(e.types.id(g.ValueType))
		var flags byte
		if g.IsConst {
			flags |= flagConst
		}
		if g.Linkage == core.InternalLinkage {
			flags |= flagInternal
		}
		if g.Init != nil {
			flags |= flagHasInit
		}
		hdr.Byte(flags)
	}

	// Function headers.
	hdr.Uvarint(uint64(len(e.m.Funcs)))
	for _, f := range e.m.Funcs {
		hdr.Uvarint(e.strs.id(f.Name()))
		hdr.Uvarint(e.types.id(f.Sig))
		var flags byte
		if f.Linkage == core.InternalLinkage {
			flags |= flagInternal
		}
		if !f.IsDeclaration() {
			flags |= flagHasInit
		}
		hdr.Byte(flags)
	}

	// Global initializers.
	for _, g := range e.m.Globals {
		if g.Init != nil {
			if err := e.writeConstant(&inits, g.Init); err != nil {
				return nil, fmt.Errorf("global %%%s: %w", g.Name(), err)
			}
		}
	}

	// Function bodies.
	for _, f := range e.m.Funcs {
		if !f.IsDeclaration() {
			if err := e.writeFunctionBody(&bodies, f); err != nil {
				return nil, fmt.Errorf("function %%%s: %w", f.Name(), err)
			}
		}
	}

	// Serialize the type table before the string table is emitted: a named
	// struct may appear only inside the type graph, so writing its record
	// can register a string the table must still include.
	var typesBuf wire.Writer
	if err := e.types.write(&typesBuf, e.strs); err != nil {
		return nil, err
	}

	// Assemble: magic, version, strings, types, header, inits, bodies.
	var out wire.Writer
	out.Raw(Magic[:])
	out.Byte(Version)
	out.Uvarint(uint64(len(e.strs.list)))
	for _, s := range e.strs.list {
		out.Str(s)
	}
	out.Str(e.m.Name)
	out.Raw(typesBuf.Bytes())
	out.Raw(hdr.Bytes())
	out.Raw(inits.Bytes())
	out.Raw(bodies.Bytes())
	return out.Bytes(), nil
}

// writeConstant emits a constant record (recursively for aggregates).
func (e *encoder) writeConstant(w *wire.Writer, c core.Constant) error {
	switch cc := c.(type) {
	case *core.Function, *core.GlobalVariable:
		w.Byte(ckModRef)
		w.Uvarint(e.modIDs[c])
	case *core.ConstantInt:
		w.Byte(ckInt)
		w.Uvarint(e.types.id(cc.Type()))
		w.Svarint(cc.SExt())
	case *core.ConstantFloat:
		w.Byte(ckFloat)
		w.Uvarint(e.types.id(cc.Type()))
		w.F64(cc.Val)
	case *core.ConstantBool:
		w.Byte(ckBool)
		w.Bool(cc.Val)
	case *core.ConstantNull:
		w.Byte(ckNull)
		w.Uvarint(e.types.id(cc.Type()))
	case *core.ConstantUndef:
		w.Byte(ckUndef)
		w.Uvarint(e.types.id(cc.Type()))
	case *core.ConstantZero:
		w.Byte(ckZero)
		w.Uvarint(e.types.id(cc.Type()))
	case *core.ConstantArray:
		w.Byte(ckArray)
		w.Uvarint(e.types.id(cc.Type()))
		for _, el := range cc.Elems {
			if err := e.writeConstant(w, el); err != nil {
				return err
			}
		}
	case *core.ConstantStruct:
		w.Byte(ckStruct)
		w.Uvarint(e.types.id(cc.Type()))
		for _, f := range cc.Fields {
			if err := e.writeConstant(w, f); err != nil {
				return err
			}
		}
	case *core.ConstantExpr:
		switch cc.Op {
		case core.OpCast:
			w.Byte(ckExprCast)
			w.Uvarint(e.types.id(cc.Type()))
			return e.writeConstant(w, cc.Operand(0).(core.Constant))
		case core.OpGetElementPtr:
			w.Byte(ckExprGEP)
			ops := cc.Operands()
			w.Uvarint(uint64(len(ops) - 1))
			for _, op := range ops {
				if err := e.writeConstant(w, op.(core.Constant)); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("bytecode: unsupported constant expression %s", cc.Op)
		}
	default:
		return fmt.Errorf("bytecode: cannot encode constant %T", c)
	}
	return nil
}

// funcLayout numbers every value in a function: constant-pool entries,
// then arguments, then instructions in block order.
type funcLayout struct {
	pool     []core.Constant
	valueIDs map[core.Value]uint64
	blockIDs map[*core.BasicBlock]uint64
	poolKeys map[string]uint64
}

func (e *encoder) layoutFunction(f *core.Function) *funcLayout {
	l := &funcLayout{
		valueIDs: map[core.Value]uint64{},
		blockIDs: map[*core.BasicBlock]uint64{},
		poolKeys: map[string]uint64{},
	}
	for i, b := range f.Blocks {
		l.blockIDs[b] = uint64(i)
	}
	// Collect constant operands into the pool.
	f.ForEachInst(func(inst core.Instruction) bool {
		for _, op := range inst.Operands() {
			if c, ok := op.(core.Constant); ok {
				e.poolAdd(l, c)
			}
		}
		return true
	})
	next := uint64(len(l.pool))
	for _, a := range f.Args {
		l.valueIDs[a] = next
		next++
	}
	for _, b := range f.Blocks {
		for _, inst := range b.Instrs {
			l.valueIDs[inst] = next
			next++
		}
	}
	return l
}

// poolAdd registers a constant in the pool, deduplicating simple literals
// by value and everything else by identity.
func (e *encoder) poolAdd(l *funcLayout, c core.Constant) uint64 {
	if id, ok := l.valueIDs[c]; ok {
		return id
	}
	key := e.poolKey(c)
	if key != "" {
		if id, ok := l.poolKeys[key]; ok {
			l.valueIDs[c] = id
			return id
		}
	}
	id := uint64(len(l.pool))
	l.pool = append(l.pool, c)
	l.valueIDs[c] = id
	if key != "" {
		l.poolKeys[key] = id
	}
	return id
}

func (e *encoder) poolKey(c core.Constant) string {
	switch cc := c.(type) {
	case *core.ConstantInt:
		return fmt.Sprintf("i|%d|%d", e.types.id(cc.Type()), cc.Val)
	case *core.ConstantFloat:
		return fmt.Sprintf("f|%d|%x", e.types.id(cc.Type()), cc.Val)
	case *core.ConstantBool:
		return fmt.Sprintf("b|%v", cc.Val)
	case *core.ConstantNull:
		return fmt.Sprintf("n|%d", e.types.id(cc.Type()))
	case *core.ConstantUndef:
		return fmt.Sprintf("u|%d", e.types.id(cc.Type()))
	case *core.ConstantZero:
		return fmt.Sprintf("z|%d", e.types.id(cc.Type()))
	case *core.Function, *core.GlobalVariable:
		return fmt.Sprintf("m|%d", e.modIDs[c])
	}
	return "" // aggregates and expressions: identity only
}

func (e *encoder) writeFunctionBody(w *wire.Writer, f *core.Function) error {
	l := e.layoutFunction(f)

	w.Uvarint(uint64(len(f.Blocks)))
	w.Uvarint(uint64(len(l.pool)))
	for _, c := range l.pool {
		if err := e.writeConstant(w, c); err != nil {
			return err
		}
	}
	for _, b := range f.Blocks {
		w.Uvarint(uint64(len(b.Instrs)))
	}
	for _, b := range f.Blocks {
		for _, inst := range b.Instrs {
			if err := e.writeInstruction(w, l, inst); err != nil {
				return err
			}
		}
	}

	// Symbol table.
	if e.strip {
		w.Uvarint(0)
		w.Uvarint(0)
		return nil
	}
	var named []core.Value
	for _, a := range f.Args {
		if a.Name() != "" {
			named = append(named, a)
		}
	}
	f.ForEachInst(func(inst core.Instruction) bool {
		if inst.Name() != "" && inst.Type() != core.VoidType {
			named = append(named, inst)
		}
		return true
	})
	w.Uvarint(uint64(len(named)))
	for _, v := range named {
		w.Uvarint(l.valueIDs[v])
		w.Uvarint(e.strs.id(v.Name()))
	}
	var namedBlocks []*core.BasicBlock
	for _, b := range f.Blocks {
		if b.Name() != "" {
			namedBlocks = append(namedBlocks, b)
		}
	}
	w.Uvarint(uint64(len(namedBlocks)))
	for _, b := range namedBlocks {
		w.Uvarint(l.blockIDs[b])
		w.Uvarint(e.strs.id(b.Name()))
	}
	return nil
}

// writeInstruction emits one instruction: a single 32-bit word when the
// opcode, type id, and operand ids fit and all operands are backward
// references; otherwise the variable-length escape form (high bit set on
// the first byte).
func (e *encoder) writeInstruction(w *wire.Writer, l *funcLayout, inst core.Instruction) error {
	if word, ok := e.compactWord(l, inst); ok {
		w.U32(word)
		return nil
	}
	return e.writeEscape(w, l, inst)
}

// compactWord attempts the one-word encoding.
func (e *encoder) compactWord(l *funcLayout, inst core.Instruction) (uint32, bool) {
	myID := l.valueIDs[inst]
	fit := func(id uint64, max uint64) bool { return id <= max }
	backward := func(v core.Value) bool {
		id, ok := l.valueIDs[v]
		return ok && id < myID
	}

	var typeID, op1, op2 uint64 = 0, noOp1, noOp2
	switch i := inst.(type) {
	case *core.RetInst:
		if v := i.Value(); v != nil {
			if !backward(v) {
				return 0, false
			}
			op1 = l.valueIDs[v]
		}
	case *core.BranchInst:
		if i.IsConditional() {
			return 0, false
		}
		op1 = l.blockIDs[i.TrueDest()]
	case *core.UnwindInst:
		// no fields
	case *core.BinaryInst:
		if !backward(i.LHS()) || !backward(i.RHS()) {
			return 0, false
		}
		typeID = e.types.id(i.LHS().Type())
		op1, op2 = l.valueIDs[i.LHS()], l.valueIDs[i.RHS()]
	case *core.MallocInst:
		typeID = e.types.id(i.AllocType)
		if n := i.NumElems(); n != nil {
			if !backward(n) {
				return 0, false
			}
			op1 = l.valueIDs[n]
		}
	case *core.AllocaInst:
		typeID = e.types.id(i.AllocType)
		if n := i.NumElems(); n != nil {
			if !backward(n) {
				return 0, false
			}
			op1 = l.valueIDs[n]
		}
	case *core.FreeInst:
		if !backward(i.Ptr()) {
			return 0, false
		}
		op1 = l.valueIDs[i.Ptr()]
	case *core.LoadInst:
		if !backward(i.Ptr()) {
			return 0, false
		}
		op1 = l.valueIDs[i.Ptr()]
	case *core.StoreInst:
		if !backward(i.Val()) || !backward(i.Ptr()) {
			return 0, false
		}
		op1, op2 = l.valueIDs[i.Val()], l.valueIDs[i.Ptr()]
	case *core.CastInst:
		if !backward(i.Val()) {
			return 0, false
		}
		typeID = e.types.id(i.Type())
		op1 = l.valueIDs[i.Val()]
	case *core.VAArgInst:
		if !backward(i.List()) {
			return 0, false
		}
		typeID = e.types.id(i.Type())
		op1 = l.valueIDs[i.List()]
	default:
		return 0, false // switch, invoke, gep, phi, call: always escape
	}

	if !fit(typeID, maxCompactType) || (op1 != noOp1 && !fit(op1, maxCompactOp1)) ||
		(op2 != noOp2 && !fit(op2, maxCompactOp2)) {
		return 0, false
	}
	word := uint32(inst.Opcode())<<26 | uint32(typeID)<<17 | uint32(op1)<<9 | uint32(op2)
	return word, true
}

// typedOperand emits (type id, value id).
func (e *encoder) typedOperand(w *wire.Writer, l *funcLayout, v core.Value) {
	w.Uvarint(e.types.id(v.Type()))
	w.Uvarint(l.valueIDs[v])
}

func (e *encoder) writeEscape(w *wire.Writer, l *funcLayout, inst core.Instruction) error {
	w.Byte(0x80 | byte(inst.Opcode()))
	switch i := inst.(type) {
	case *core.RetInst:
		if v := i.Value(); v != nil {
			w.Byte(1)
			e.typedOperand(w, l, v)
		} else {
			w.Byte(0)
		}
	case *core.BranchInst:
		if i.IsConditional() {
			w.Byte(1)
			e.typedOperand(w, l, i.Cond())
			w.Uvarint(l.blockIDs[i.TrueDest()])
			w.Uvarint(l.blockIDs[i.FalseDest()])
		} else {
			w.Byte(0)
			w.Uvarint(l.blockIDs[i.TrueDest()])
		}
	case *core.SwitchInst:
		e.typedOperand(w, l, i.Value())
		w.Uvarint(l.blockIDs[i.Default()])
		w.Uvarint(uint64(i.NumCases()))
		for n := 0; n < i.NumCases(); n++ {
			val, dest := i.Case(n)
			w.Uvarint(l.valueIDs[val])
			w.Uvarint(l.blockIDs[dest])
		}
	case *core.InvokeInst:
		e.typedOperand(w, l, i.Callee())
		args := i.Args()
		w.Uvarint(uint64(len(args)))
		for _, a := range args {
			e.typedOperand(w, l, a)
		}
		w.Uvarint(l.blockIDs[i.NormalDest()])
		w.Uvarint(l.blockIDs[i.UnwindDest()])
	case *core.UnwindInst:
		// no payload
	case *core.BinaryInst:
		w.Uvarint(e.types.id(i.LHS().Type()))
		w.Uvarint(l.valueIDs[i.LHS()])
		w.Uvarint(l.valueIDs[i.RHS()])
	case *core.MallocInst:
		w.Uvarint(e.types.id(i.AllocType))
		if n := i.NumElems(); n != nil {
			w.Byte(1)
			e.typedOperand(w, l, n)
		} else {
			w.Byte(0)
		}
	case *core.AllocaInst:
		w.Uvarint(e.types.id(i.AllocType))
		if n := i.NumElems(); n != nil {
			w.Byte(1)
			e.typedOperand(w, l, n)
		} else {
			w.Byte(0)
		}
	case *core.FreeInst:
		e.typedOperand(w, l, i.Ptr())
	case *core.LoadInst:
		e.typedOperand(w, l, i.Ptr())
	case *core.StoreInst:
		e.typedOperand(w, l, i.Val())
		e.typedOperand(w, l, i.Ptr())
	case *core.GetElementPtrInst:
		e.typedOperand(w, l, i.Base())
		idx := i.Indices()
		w.Uvarint(uint64(len(idx)))
		for _, ix := range idx {
			e.typedOperand(w, l, ix)
		}
	case *core.PhiInst:
		w.Uvarint(e.types.id(i.Type()))
		w.Uvarint(uint64(i.NumIncoming()))
		for n := 0; n < i.NumIncoming(); n++ {
			v, blk := i.Incoming(n)
			w.Uvarint(l.valueIDs[v])
			w.Uvarint(l.blockIDs[blk])
		}
	case *core.CastInst:
		w.Uvarint(e.types.id(i.Type()))
		e.typedOperand(w, l, i.Val())
	case *core.CallInst:
		e.typedOperand(w, l, i.Callee())
		args := i.Args()
		w.Uvarint(uint64(len(args)))
		for _, a := range args {
			e.typedOperand(w, l, a)
		}
	case *core.VAArgInst:
		w.Uvarint(e.types.id(i.Type()))
		e.typedOperand(w, l, i.List())
	default:
		return fmt.Errorf("bytecode: cannot encode instruction %T", inst)
	}
	return nil
}
