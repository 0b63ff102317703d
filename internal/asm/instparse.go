package asm

import (
	"strconv"

	"repro/internal/core"
)

// ---------------------------------------------------------------------------
// Function bodies

func (p *parser) parseFunctionBody(f *core.Function) error {
	p.fn = f
	p.locals = map[string]core.Value{}
	p.blocks = map[string]*core.BasicBlock{}
	p.fwd = map[string]*core.Placeholder{}
	defer func() { p.fn = nil; p.locals = nil; p.blocks = nil; p.fwd = nil }()

	for _, a := range f.Args {
		if a.Name() != "" {
			p.locals[a.Name()] = a
		}
	}

	var cur *core.BasicBlock
	for !p.atPunct("}") {
		if p.tok.kind == tokEOF {
			return p.errf("unexpected end of input in function body")
		}
		// A label is a word or integer followed by ':'.
		if p.tok.kind == tokWord || p.tok.kind == tokInt {
			name := p.tok.text
			save := *p.lx
			saveTok := p.tok
			if err := p.advance(); err != nil {
				return err
			}
			if p.atPunct(":") {
				if err := p.advance(); err != nil {
					return err
				}
				cur = p.getBlock(name)
				if cur.Parent() != nil {
					return p.errf("redefinition of label %q", name)
				}
				f.AddBlock(cur)
				continue
			}
			*p.lx = save
			p.tok = saveTok
		}
		if cur == nil {
			// Entry block with an implicit label.
			cur = p.getBlock("entry")
			f.AddBlock(cur)
		}
		inst, err := p.parseInstruction()
		if err != nil {
			return err
		}
		cur.Append(inst)
	}

	// Resolve local forward references; leftovers become module-level.
	for name, ph := range p.fwd {
		if v, ok := p.locals[name]; ok {
			core.ReplaceAllUses(ph, v)
			continue
		}
		if prev, ok := p.modFwd[name]; ok {
			core.ReplaceAllUses(ph, prev)
		} else {
			p.modFwd[name] = ph
		}
	}
	return nil
}

// getBlock returns the block with the given label, creating it if needed.
func (p *parser) getBlock(name string) *core.BasicBlock {
	if b, ok := p.blocks[name]; ok {
		return b
	}
	b := core.NewBlock(name)
	p.blocks[name] = b
	return b
}

// defineLocal registers a result value under its name.
func (p *parser) defineLocal(name string, v core.Value) error {
	if name == "" {
		return nil
	}
	if _, dup := p.locals[name]; dup {
		return p.errf("redefinition of %%%s", name)
	}
	v.SetName(name)
	p.locals[name] = v
	return nil
}

// localRef resolves a %name reference of the expected type: argument,
// earlier instruction, global, or a forward-ref placeholder.
func (p *parser) localRef(name string, t core.Type) core.Value {
	if v, ok := p.locals[name]; ok {
		return v
	}
	if f := p.m.Func(name); f != nil {
		return f
	}
	if g := p.m.Global(name); g != nil {
		return g
	}
	if ph, ok := p.fwd[name]; ok {
		return ph
	}
	ph := core.NewPlaceholder(name, t)
	p.fwd[name] = ph
	return ph
}

// ---------------------------------------------------------------------------
// Instructions

func (p *parser) parseInstruction() (core.Instruction, error) {
	result := ""
	if p.tok.kind == tokLocal {
		result = p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
	}
	if p.tok.kind != tokWord {
		return nil, p.errf("expected instruction opcode, got %q", p.tok.text)
	}
	opName := p.tok.text
	op, ok := core.OpcodeByName(opName)
	if !ok {
		return nil, p.errf("unknown opcode %q", opName)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}

	var inst core.Instruction
	var err error
	switch {
	case op == core.OpRet:
		inst, err = p.parseRet()
	case op == core.OpBr:
		inst, err = p.parseBr()
	case op == core.OpSwitch:
		inst, err = p.parseSwitch()
	case op == core.OpInvoke:
		inst, err = p.parseCallLike(true)
	case op == core.OpUnwind:
		inst = core.NewUnwind()
	case core.IsBinaryOp(op) || core.IsComparisonOp(op):
		inst, err = p.parseBinary(op)
	case op == core.OpMalloc || op == core.OpAlloca:
		inst, err = p.parseAlloc(op)
	case op == core.OpFree:
		var ptr core.Value
		ptr, err = p.parseTypedOperand()
		if err == nil {
			inst = core.NewFree(ptr)
		}
	case op == core.OpLoad:
		var ptr core.Value
		ptr, err = p.parseTypedOperand()
		if err == nil {
			if ptr.Type().Kind() != core.PointerKind {
				return nil, p.errf("load operand is not a pointer")
			}
			inst = core.NewLoad(ptr)
		}
	case op == core.OpStore:
		inst, err = p.parseStore()
	case op == core.OpGetElementPtr:
		inst, err = p.parseGEP()
	case op == core.OpPhi:
		inst, err = p.parsePhi()
	case op == core.OpCast:
		inst, err = p.parseCast()
	case op == core.OpCall:
		inst, err = p.parseCallLike(false)
	case op == core.OpVAArg:
		inst, err = p.parseVAArg()
	default:
		return nil, p.errf("unhandled opcode %q", opName)
	}
	if err != nil {
		return nil, err
	}
	if err := p.defineLocal(result, inst); err != nil {
		return nil, err
	}
	return inst, nil
}

func (p *parser) parseRet() (core.Instruction, error) {
	if ok, err := p.eatWord("void"); err != nil {
		return nil, err
	} else if ok {
		return core.NewRet(nil), nil
	}
	v, err := p.parseTypedOperand()
	if err != nil {
		return nil, err
	}
	return core.NewRet(v), nil
}

// parseLabelRef parses "label %name".
func (p *parser) parseLabelRef() (*core.BasicBlock, error) {
	if !p.atWord("label") {
		return nil, p.errf("expected 'label', got %q", p.tok.text)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.tok.kind != tokLocal {
		return nil, p.errf("expected label name")
	}
	b := p.getBlock(p.tok.text)
	return b, p.advance()
}

func (p *parser) parseBr() (core.Instruction, error) {
	if p.atWord("label") {
		dest, err := p.parseLabelRef()
		if err != nil {
			return nil, err
		}
		return core.NewBr(dest), nil
	}
	cond, err := p.parseTypedOperand()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	t, err := p.parseLabelRef()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	f, err := p.parseLabelRef()
	if err != nil {
		return nil, err
	}
	return core.NewCondBr(cond, t, f), nil
}

func (p *parser) parseSwitch() (core.Instruction, error) {
	v, err := p.parseTypedOperand()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	def, err := p.parseLabelRef()
	if err != nil {
		return nil, err
	}
	sw := core.NewSwitch(v, def)
	if err := p.expectPunct("["); err != nil {
		return nil, err
	}
	for !p.atPunct("]") {
		cv, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		ci, ok := cv.(*core.ConstantInt)
		if !ok {
			return nil, p.errf("switch case value must be an integer constant")
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		dest, err := p.parseLabelRef()
		if err != nil {
			return nil, err
		}
		sw.AddCase(ci, dest)
	}
	return sw, p.expectPunct("]")
}

func (p *parser) parseBinary(op core.Opcode) (core.Instruction, error) {
	t, err := p.parseType()
	if err != nil {
		return nil, err
	}
	lhs, err := p.parseOperand(t)
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	rt := t
	if op == core.OpShl || op == core.OpShr {
		rt = core.UByteType
	}
	// Shift amounts print with an explicit "ubyte" type; plain binary ops
	// reuse the LHS type for the RHS. Accept both forms.
	if (op == core.OpShl || op == core.OpShr) && p.looksLikeType() {
		rt, err = p.parseType()
		if err != nil {
			return nil, err
		}
	}
	rhs, err := p.parseOperand(rt)
	if err != nil {
		return nil, err
	}
	return core.NewBinary(op, lhs, rhs), nil
}

func (p *parser) parseAlloc(op core.Opcode) (core.Instruction, error) {
	t, err := p.parseType()
	if err != nil {
		return nil, err
	}
	var n core.Value
	if p.atPunct(",") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		n, err = p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
	}
	if op == core.OpMalloc {
		return core.NewMalloc(t, n), nil
	}
	return core.NewAlloca(t, n), nil
}

func (p *parser) parseStore() (core.Instruction, error) {
	v, err := p.parseTypedOperand()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	ptr, err := p.parseTypedOperand()
	if err != nil {
		return nil, err
	}
	return core.NewStore(v, ptr), nil
}

func (p *parser) parseGEP() (core.Instruction, error) {
	base, err := p.parseTypedOperand()
	if err != nil {
		return nil, err
	}
	var indices []core.Value
	for p.atPunct(",") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		idx, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		indices = append(indices, idx)
	}
	if _, err := core.GEPResultType(base.Type(), indices); err != nil {
		return nil, p.errf("%v", err)
	}
	return core.NewGEP(base, indices...), nil
}

func (p *parser) parsePhi() (core.Instruction, error) {
	t, err := p.parseType()
	if err != nil {
		return nil, err
	}
	phi := core.NewPhi(t)
	for {
		if err := p.expectPunct("["); err != nil {
			return nil, err
		}
		v, err := p.parseOperand(t)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
		if p.tok.kind != tokLocal {
			return nil, p.errf("expected block name in phi")
		}
		blk := p.getBlock(p.tok.text)
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		phi.AddIncoming(v, blk)
		if !p.atPunct(",") {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	return phi, nil
}

func (p *parser) parseCast() (core.Instruction, error) {
	v, err := p.parseTypedOperand()
	if err != nil {
		return nil, err
	}
	if !p.atWord("to") {
		return nil, p.errf("expected 'to' in cast")
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	t, err := p.parseType()
	if err != nil {
		return nil, err
	}
	return core.NewCast(v, t), nil
}

// parseCallLike parses call and invoke instructions.
func (p *parser) parseCallLike(isInvoke bool) (core.Instruction, error) {
	declared, err := p.parseType()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokLocal {
		return nil, p.errf("expected callee name")
	}
	calleeName := p.tok.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var args []core.Value
	for !p.atPunct(")") {
		if len(args) > 0 {
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
		a, err := p.parseTypedOperand()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}

	// Reconstruct the callee's function-pointer type: either it was spelled
	// in full ("int (sbyte*, ...)*"), or only the return type was given.
	var calleeType core.Type
	if pt, ok := declared.(*core.PointerType); ok {
		if _, isFn := pt.Elem.(*core.FunctionType); isFn {
			calleeType = pt
		}
	}
	if calleeType == nil {
		params := make([]core.Type, len(args))
		for i, a := range args {
			params[i] = a.Type()
		}
		calleeType = core.NewPointer(core.NewFunctionType(declared, params...))
	}
	callee := p.localRef(calleeName, calleeType)
	if core.CalleeFunctionType(callee) == nil {
		return nil, p.errf("callee %%%s is not a function pointer", calleeName)
	}

	if !isInvoke {
		return core.NewCall(callee, args...), nil
	}
	if !p.atWord("to") {
		return nil, p.errf("expected 'to' in invoke")
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	normal, err := p.parseLabelRef()
	if err != nil {
		return nil, err
	}
	if !p.atWord("unwind") {
		return nil, p.errf("expected 'unwind' in invoke")
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if !p.atWord("to") {
		return nil, p.errf("expected 'to' after 'unwind'")
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	uw, err := p.parseLabelRef()
	if err != nil {
		return nil, err
	}
	return core.NewInvoke(callee, args, normal, uw), nil
}

func (p *parser) parseVAArg() (core.Instruction, error) {
	list, err := p.parseTypedOperand()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	t, err := p.parseType()
	if err != nil {
		return nil, err
	}
	return core.NewVAArg(list, t), nil
}

// ---------------------------------------------------------------------------
// Operands

// parseTypedOperand parses "type value".
func (p *parser) parseTypedOperand() (core.Value, error) {
	t, err := p.parseType()
	if err != nil {
		return nil, err
	}
	return p.parseOperand(t)
}

// parseOperand parses a value of the given (already-parsed) type.
func (p *parser) parseOperand(t core.Type) (core.Value, error) {
	switch p.tok.kind {
	case tokLocal:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.localRef(name, t), nil
	default:
		return p.parseConstantOperand(t)
	}
}

// parseConstantOperand parses a constant of the given type (integer, float,
// bool, null, undef, zeroinitializer, string, aggregate literal, or
// constant expression). Outside functions (global initializers) %name
// references resolve to globals/functions, with placeholders for forward
// references.
func (p *parser) parseConstantOperand(t core.Type) (core.Constant, error) {
	switch {
	case p.tok.kind == tokInt:
		text := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if core.IsFloatingPoint(t) {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return nil, p.errf("bad float %q", text)
			}
			return core.NewFloat(t, f), nil
		}
		if !core.IsInteger(t) {
			return nil, p.errf("integer literal for non-integer type %s", t)
		}
		if core.IsUnsigned(t) {
			u, err := strconv.ParseUint(text, 10, 64)
			if err != nil {
				return nil, p.errf("bad integer %q", text)
			}
			return core.NewInt(t, int64(u)), nil
		}
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return nil, p.errf("bad integer %q", text)
		}
		return core.NewInt(t, v), nil

	case p.tok.kind == tokFloat:
		f, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return nil, p.errf("bad float %q", p.tok.text)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if !core.IsFloatingPoint(t) {
			return nil, p.errf("float literal for non-float type %s", t)
		}
		return core.NewFloat(t, f), nil

	case p.atWord("true") || p.atWord("false"):
		v := p.tok.text == "true"
		if err := p.advance(); err != nil {
			return nil, err
		}
		return core.NewBool(v), nil

	case p.atWord("null"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		pt, ok := t.(*core.PointerType)
		if !ok {
			return nil, p.errf("null literal for non-pointer type %s", t)
		}
		return core.NewNull(pt), nil

	case p.atWord("undef"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return core.NewUndef(t), nil

	case p.atWord("zeroinitializer"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return core.NewZero(t), nil

	case p.tok.kind == tokString:
		data := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		// The bytes are sbyte unless the expected type says ubyte.
		elem := core.Type(core.SByteType)
		if at, ok := t.(*core.ArrayType); ok && at.Elem.Kind() == core.UByteKind {
			elem = core.UByteType
		}
		elems := make([]core.Constant, len(data))
		for i := 0; i < len(data); i++ {
			elems[i] = core.NewInt(elem, int64(data[i]))
		}
		return core.NewArrayConst(elem, elems), nil

	case p.atPunct("["):
		at, ok := t.(*core.ArrayType)
		if !ok {
			return nil, p.errf("array literal for non-array type %s", t)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		var elems []core.Constant
		for !p.atPunct("]") {
			if len(elems) > 0 {
				if err := p.expectPunct(","); err != nil {
					return nil, err
				}
			}
			e, err := p.parseTypedConstant()
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		if len(elems) != at.Len {
			return nil, p.errf("array literal has %d elements, type wants %d", len(elems), at.Len)
		}
		return core.NewArrayConst(at.Elem, elems), nil

	case p.atPunct("{"):
		st, ok := t.(*core.StructType)
		if !ok {
			return nil, p.errf("struct literal for non-struct type %s", t)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		var fields []core.Constant
		for !p.atPunct("}") {
			if len(fields) > 0 {
				if err := p.expectPunct(","); err != nil {
					return nil, err
				}
			}
			f, err := p.parseTypedConstant()
			if err != nil {
				return nil, err
			}
			fields = append(fields, f)
		}
		if err := p.expectPunct("}"); err != nil {
			return nil, err
		}
		return core.NewStructConst(st, fields), nil

	case p.atWord("cast"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		v, err := p.parseTypedConstant()
		if err != nil {
			return nil, err
		}
		if !p.atWord("to") {
			return nil, p.errf("expected 'to' in constant cast")
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		dt, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return core.NewConstCast(v, dt), nil

	case p.atWord("getelementptr"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		base, err := p.parseTypedConstant()
		if err != nil {
			return nil, err
		}
		var idx []core.Constant
		for p.atPunct(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			i, err := p.parseTypedConstant()
			if err != nil {
				return nil, err
			}
			idx = append(idx, i)
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		ivals := make([]core.Value, len(idx))
		for i, x := range idx {
			ivals[i] = x
		}
		if _, err := core.GEPResultType(base.Type(), ivals); err != nil {
			return nil, p.errf("%v", err)
		}
		return core.NewConstGEP(base, idx...), nil

	case p.tok.kind == tokLocal:
		// Global symbol reference inside a constant.
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if f := p.m.Func(name); f != nil {
			return f, nil
		}
		if g := p.m.Global(name); g != nil {
			return g, nil
		}
		if ph, ok := p.modFwd[name]; ok {
			return ph, nil
		}
		ph := core.NewPlaceholder(name, t)
		p.modFwd[name] = ph
		return ph, nil
	}
	return nil, p.errf("expected constant, got %q", p.tok.text)
}

// parseTypedConstant parses "type constant".
func (p *parser) parseTypedConstant() (core.Constant, error) {
	t, err := p.parseType()
	if err != nil {
		return nil, err
	}
	return p.parseConstantOperand(t)
}

// ---------------------------------------------------------------------------
// Forward-reference resolution

func (p *parser) resolveModuleForwardRefs() error {
	for name, ph := range p.modFwd {
		var target core.Value
		if f := p.m.Func(name); f != nil {
			target = f
		} else if g := p.m.Global(name); g != nil {
			target = g
		} else {
			return p.errf("undefined symbol %%%s", name)
		}
		core.ReplaceAllUses(ph, target)
	}
	// Fix placeholders buried inside aggregate initializers, which do not
	// participate in use lists.
	for _, g := range p.m.Globals {
		if g.Init != nil {
			fixed, err := p.fixConstant(g.Init)
			if err != nil {
				return err
			}
			g.Init = fixed
		}
	}
	return nil
}

func (p *parser) fixConstant(c core.Constant) (core.Constant, error) {
	switch cc := c.(type) {
	case *core.Placeholder:
		if f := p.m.Func(cc.Name()); f != nil {
			return f, nil
		}
		if g := p.m.Global(cc.Name()); g != nil {
			return g, nil
		}
		return nil, p.errf("undefined symbol %%%s in initializer", cc.Name())
	case *core.ConstantArray:
		for i, e := range cc.Elems {
			fe, err := p.fixConstant(e)
			if err != nil {
				return nil, err
			}
			cc.Elems[i] = fe
		}
	case *core.ConstantStruct:
		for i, f := range cc.Fields {
			ff, err := p.fixConstant(f)
			if err != nil {
				return nil, err
			}
			cc.Fields[i] = ff
		}
	}
	return c, nil
}

// Functions and GlobalVariables used as Constants in initializers: they
// already implement Value; they are also valid initializer references. The
// core package treats them as constants for this purpose via these shims.
var (
	_ core.Value = (*core.Function)(nil)
	_ core.Value = (*core.GlobalVariable)(nil)
)
