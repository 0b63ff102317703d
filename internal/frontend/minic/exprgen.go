package minic

import (
	"repro/internal/core"
)

// ---------------------------------------------------------------------------
// Expressions

// expr generates an rvalue.
func (g *irgen) expr(e Expr) (core.Value, error) {
	switch x := e.(type) {
	case *IntLit:
		return core.NewInt(core.IntType, x.Val), nil
	case *FloatLit:
		return core.NewFloat(core.DoubleType, x.Val), nil
	case *StrLit:
		gv := g.stringGlobal(x.Val)
		return core.NewConstGEP(gv, core.NewInt(core.LongType, 0), core.NewInt(core.LongType, 0)), nil

	case *Ident:
		if lv := g.lookup(x.Name); lv != nil {
			return g.loadFrom(lv.addr, lv.ty)
		}
		if gv := g.m.Global(x.Name); gv != nil {
			return g.loadFrom(gv, gv.ValueType)
		}
		if f := g.m.Func(x.Name); f != nil {
			return f, nil // function name as a value: function pointer
		}
		return nil, g.errf("undefined identifier %q", x.Name)

	case *Unary:
		return g.unary(x)

	case *Binary:
		return g.binary(x)

	case *Assign:
		return g.assign(x)

	case *Call:
		return g.call(x)

	case *Index, *Member:
		addr, ty, err := g.lvalue(e)
		if err != nil {
			return nil, err
		}
		return g.loadFrom(addr, ty)

	case *CastExpr:
		return g.castExpr(x)

	case *SizeOf:
		t, err := g.resolveType(x.Type)
		if err != nil {
			return nil, err
		}
		return core.NewInt(core.UIntType, int64(core.SizeOf(t))), nil
	}
	return nil, g.errf("unhandled expression %T", e)
}

// loadFrom reads a value of type ty at addr; arrays decay to element
// pointers instead of loading.
func (g *irgen) loadFrom(addr core.Value, ty core.Type) (core.Value, error) {
	if _, isArr := ty.(*core.ArrayType); isArr {
		return g.b.CreateGEP(addr, []core.Value{
			core.NewInt(core.LongType, 0), core.NewInt(core.LongType, 0)}, ""), nil
	}
	if !core.IsFirstClass(ty) {
		return nil, g.errf("cannot load aggregate of type %s", ty)
	}
	return g.b.CreateLoad(addr, ""), nil
}

// lvalue returns (address, pointee type) for an assignable expression.
func (g *irgen) lvalue(e Expr) (core.Value, core.Type, error) {
	switch x := e.(type) {
	case *Ident:
		if lv := g.lookup(x.Name); lv != nil {
			return lv.addr, lv.ty, nil
		}
		if gv := g.m.Global(x.Name); gv != nil {
			return gv, gv.ValueType, nil
		}
		return nil, nil, g.errf("undefined identifier %q", x.Name)

	case *Unary:
		if x.Op == "*" {
			p, err := g.expr(x.X)
			if err != nil {
				return nil, nil, err
			}
			pt, ok := p.Type().(*core.PointerType)
			if !ok {
				return nil, nil, g.errf("dereference of non-pointer %s", p.Type())
			}
			return p, pt.Elem, nil
		}

	case *Index:
		idx, err := g.expr(x.I)
		if err != nil {
			return nil, nil, err
		}
		idx, err = g.convert(idx, core.LongType)
		if err != nil {
			return nil, nil, err
		}
		// Index a true array in place (keeping the array type visible to
		// analyses like bounds checking, §3.2's "expose arrays") when the
		// base is an array lvalue; otherwise decay to pointer indexing.
		if g.isArrayLValue(x.X) {
			addr, ty, err := g.lvalue(x.X)
			if err == nil {
				if at, ok := ty.(*core.ArrayType); ok {
					p := g.b.CreateGEP(addr, []core.Value{core.NewInt(core.LongType, 0), idx}, "")
					return p, at.Elem, nil
				}
			}
		}
		base, err := g.expr(x.X)
		if err != nil {
			return nil, nil, err
		}
		pt, ok := base.Type().(*core.PointerType)
		if !ok {
			return nil, nil, g.errf("indexing non-pointer %s", base.Type())
		}
		addr := g.b.CreateGEP(base, []core.Value{idx}, "")
		return addr, pt.Elem, nil

	case *Member:
		var base core.Value
		var sty core.Type
		if x.Arrow {
			p, err := g.expr(x.X)
			if err != nil {
				return nil, nil, err
			}
			pt, ok := p.Type().(*core.PointerType)
			if !ok {
				return nil, nil, g.errf("-> on non-pointer %s", p.Type())
			}
			base, sty = p, pt.Elem
		} else {
			addr, ty, err := g.lvalue(x.X)
			if err != nil {
				return nil, nil, err
			}
			base, sty = addr, ty
		}
		st, ok := sty.(*core.StructType)
		if !ok {
			return nil, nil, g.errf("member access on non-struct %s", sty)
		}
		si := g.structs[st.Name]
		if si == nil {
			return nil, nil, g.errf("unknown struct %s", st.Name)
		}
		fi, ok := si.fields[x.Name]
		if !ok {
			return nil, nil, g.errf("struct %s has no field %q", st.Name, x.Name)
		}
		addr := g.b.CreateStructGEP(base, fi, "")
		return addr, st.Fields[fi], nil
	}
	return nil, nil, g.errf("expression is not assignable")
}

func (g *irgen) unary(x *Unary) (core.Value, error) {
	switch x.Op {
	case "-":
		v, err := g.expr(x.X)
		if err != nil {
			return nil, err
		}
		if core.IsFloatingPoint(v.Type()) {
			return g.b.CreateSub(core.NewFloat(v.Type(), 0), v, ""), nil
		}
		v, err = g.promote(v)
		if err != nil {
			return nil, err
		}
		return g.b.CreateSub(core.NewInt(v.Type(), 0), v, ""), nil
	case "~":
		v, err := g.expr(x.X)
		if err != nil {
			return nil, err
		}
		v, err = g.promote(v)
		if err != nil {
			return nil, err
		}
		return g.b.CreateXor(v, core.NewInt(v.Type(), -1), ""), nil
	case "!":
		c, err := g.condition(x.X)
		if err != nil {
			return nil, err
		}
		nb := g.b.CreateXor(c, core.True(), "")
		return g.b.CreateCast(nb, core.IntType, ""), nil
	case "*":
		addr, ty, err := g.lvalue(x)
		if err != nil {
			return nil, err
		}
		return g.loadFrom(addr, ty)
	case "&":
		addr, _, err := g.lvalue(x.X)
		if err != nil {
			return nil, err
		}
		return addr, nil
	case "++", "--":
		addr, ty, err := g.lvalue(x.X)
		if err != nil {
			return nil, err
		}
		old, err := g.loadFrom(addr, ty)
		if err != nil {
			return nil, err
		}
		var nv core.Value
		switch {
		case core.IsInteger(ty):
			one := core.NewInt(ty, 1)
			if x.Op == "++" {
				nv = g.b.CreateAdd(old, one, "")
			} else {
				nv = g.b.CreateSub(old, one, "")
			}
		case core.IsFloatingPoint(ty):
			one := core.NewFloat(ty, 1)
			if x.Op == "++" {
				nv = g.b.CreateAdd(old, one, "")
			} else {
				nv = g.b.CreateSub(old, one, "")
			}
		case ty.Kind() == core.PointerKind:
			d := int64(1)
			if x.Op == "--" {
				d = -1
			}
			nv = g.b.CreateGEP(old, []core.Value{core.NewInt(core.LongType, d)}, "")
		default:
			return nil, g.errf("cannot %s value of type %s", x.Op, ty)
		}
		g.b.CreateStore(nv, addr)
		if x.Postfix {
			return old, nil
		}
		return nv, nil
	}
	return nil, g.errf("unhandled unary %q", x.Op)
}

func (g *irgen) binary(x *Binary) (core.Value, error) {
	switch x.Op {
	case "&&", "||":
		return g.shortCircuit(x)
	}
	l, err := g.expr(x.L)
	if err != nil {
		return nil, err
	}
	r, err := g.expr(x.R)
	if err != nil {
		return nil, err
	}

	// Pointer arithmetic: p + i, p - i, p == q etc.
	if l.Type().Kind() == core.PointerKind || r.Type().Kind() == core.PointerKind {
		return g.pointerBinary(x.Op, l, r)
	}

	l, r, err = g.usualArith(l, r)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case "+":
		return g.b.CreateAdd(l, r, ""), nil
	case "-":
		return g.b.CreateSub(l, r, ""), nil
	case "*":
		return g.b.CreateMul(l, r, ""), nil
	case "/":
		return g.b.CreateDiv(l, r, ""), nil
	case "%":
		return g.b.CreateRem(l, r, ""), nil
	case "&":
		return g.b.CreateAnd(l, r, ""), nil
	case "|":
		return g.b.CreateOr(l, r, ""), nil
	case "^":
		return g.b.CreateXor(l, r, ""), nil
	case "<<", ">>":
		amt, err := g.convert(r, core.UByteType)
		if err != nil {
			return nil, err
		}
		if x.Op == "<<" {
			return g.b.CreateShl(l, amt, ""), nil
		}
		return g.b.CreateShr(l, amt, ""), nil
	case "==", "!=", "<", ">", "<=", ">=":
		cmp := g.b.CreateBinary(cmpOpcode(x.Op), l, r, "")
		return g.b.CreateCast(cmp, core.IntType, ""), nil
	}
	return nil, g.errf("unhandled binary %q", x.Op)
}

func cmpOpcode(op string) core.Opcode {
	switch op {
	case "==":
		return core.OpSetEQ
	case "!=":
		return core.OpSetNE
	case "<":
		return core.OpSetLT
	case ">":
		return core.OpSetGT
	case "<=":
		return core.OpSetLE
	default:
		return core.OpSetGE
	}
}

func (g *irgen) pointerBinary(op string, l, r core.Value) (core.Value, error) {
	lp := l.Type().Kind() == core.PointerKind
	rp := r.Type().Kind() == core.PointerKind
	switch op {
	case "+", "-":
		if lp && !rp {
			idx, err := g.convert(r, core.LongType)
			if err != nil {
				return nil, err
			}
			if op == "-" {
				idx = g.b.CreateSub(core.NewInt(core.LongType, 0), idx, "")
			}
			return g.b.CreateGEP(l, []core.Value{idx}, ""), nil
		}
		if rp && !lp && op == "+" {
			idx, err := g.convert(l, core.LongType)
			if err != nil {
				return nil, err
			}
			return g.b.CreateGEP(r, []core.Value{idx}, ""), nil
		}
		if lp && rp && op == "-" {
			// Pointer difference in elements.
			elemSz := int64(core.SizeOf(l.Type().(*core.PointerType).Elem))
			li := g.b.CreateCast(l, core.LongType, "")
			ri := g.b.CreateCast(r, core.LongType, "")
			d := g.b.CreateSub(li, ri, "")
			if elemSz > 1 {
				return g.b.CreateDiv(d, core.NewInt(core.LongType, elemSz), ""), nil
			}
			return d, nil
		}
	case "==", "!=", "<", ">", "<=", ">=":
		// Make both sides the same pointer type (allow null/int 0).
		if !rp {
			var err error
			r, err = g.convert(r, l.Type())
			if err != nil {
				return nil, err
			}
		} else if !lp {
			var err error
			l, err = g.convert(l, r.Type())
			if err != nil {
				return nil, err
			}
		} else if l.Type() != r.Type() {
			r = g.b.CreateCast(r, l.Type(), "")
		}
		cmp := g.b.CreateBinary(cmpOpcode(op), l, r, "")
		return g.b.CreateCast(cmp, core.IntType, ""), nil
	}
	return nil, g.errf("invalid pointer operation %q", op)
}

func (g *irgen) shortCircuit(x *Binary) (core.Value, error) {
	lc, err := g.condition(x.L)
	if err != nil {
		return nil, err
	}
	lBlock := g.b.Block()
	rhsB := g.newBlock("sc.rhs")
	endB := g.newBlock("sc.end")
	if x.Op == "&&" {
		g.b.CreateCondBr(lc, rhsB, endB)
	} else {
		g.b.CreateCondBr(lc, endB, rhsB)
	}
	g.b.SetInsertPoint(rhsB)
	rc, err := g.condition(x.R)
	if err != nil {
		return nil, err
	}
	rBlock := g.b.Block() // condition may have added blocks
	if !g.terminated() {
		g.b.CreateBr(endB)
	}
	g.b.SetInsertPoint(endB)
	phi := g.b.CreatePhi(core.BoolType, "")
	short := core.NewBool(x.Op == "||")
	phi.AddIncoming(short, lBlock)
	phi.AddIncoming(rc, rBlock)
	return g.b.CreateCast(phi, core.IntType, ""), nil
}

func (g *irgen) assign(x *Assign) (core.Value, error) {
	addr, ty, err := g.lvalue(x.L)
	if err != nil {
		return nil, err
	}
	var v core.Value
	if x.Op == "" {
		v, err = g.expr(x.R)
		if err != nil {
			return nil, err
		}
	} else {
		// Compound assignment: load, combine, store.
		v, err = g.binary(&Binary{Op: x.Op, L: x.L, R: x.R})
		if err != nil {
			return nil, err
		}
	}
	v, err = g.convert(v, ty)
	if err != nil {
		return nil, err
	}
	g.b.CreateStore(v, addr)
	return v, nil
}

// call handles direct calls, indirect calls through function pointers, and
// the malloc/free lowering to the typed allocation instructions (§2.3: the
// front-end emits malloc/free instructions; native codegen turns them back
// into library calls).
func (g *irgen) call(x *Call) (core.Value, error) {
	if id, ok := x.Fun.(*Ident); ok {
		switch id.Name {
		case "malloc":
			if len(x.Args) != 1 {
				return nil, g.errf("malloc takes one argument")
			}
			return g.genMalloc(core.SByteType, x.Args[0])
		case "free":
			if len(x.Args) != 1 {
				return nil, g.errf("free takes one argument")
			}
			p, err := g.expr(x.Args[0])
			if err != nil {
				return nil, err
			}
			if p.Type().Kind() != core.PointerKind {
				return nil, g.errf("free of non-pointer")
			}
			g.b.CreateFree(p)
			return core.NewInt(core.IntType, 0), nil
		}
	}

	var callee core.Value
	if id, ok := x.Fun.(*Ident); ok {
		if lv := g.lookup(id.Name); lv != nil {
			// Function-pointer variable.
			v, err := g.loadFrom(lv.addr, lv.ty)
			if err != nil {
				return nil, err
			}
			callee = v
		} else if f := g.m.Func(id.Name); f != nil {
			callee = f
		} else if gv := g.m.Global(id.Name); gv != nil {
			v, err := g.loadFrom(gv, gv.ValueType)
			if err != nil {
				return nil, err
			}
			callee = v
		} else {
			return nil, g.errf("call to undeclared function %q", id.Name)
		}
	} else {
		v, err := g.expr(x.Fun)
		if err != nil {
			return nil, err
		}
		callee = v
	}

	ft := core.CalleeFunctionType(callee)
	if ft == nil {
		return nil, g.errf("called value is not a function")
	}
	if len(x.Args) < len(ft.Params) || (!ft.Variadic && len(x.Args) != len(ft.Params)) {
		return nil, g.errf("wrong number of arguments")
	}
	var args []core.Value
	for i, ae := range x.Args {
		v, err := g.expr(ae)
		if err != nil {
			return nil, err
		}
		if i < len(ft.Params) {
			v, err = g.convert(v, ft.Params[i])
			if err != nil {
				return nil, err
			}
		} else {
			// Default argument promotions for variadics.
			switch {
			case v.Type().Kind() == core.FloatKind:
				v = g.b.CreateCast(v, core.DoubleType, "")
			case core.IsInteger(v.Type()) && core.BitWidth(v.Type()) < 32:
				v = g.b.CreateCast(v, core.IntType, "")
			case v.Type().Kind() == core.BoolKind:
				v = g.b.CreateCast(v, core.IntType, "")
			}
		}
		args = append(args, v)
	}
	return g.b.CreateCall(callee, args, ""), nil
}

// genMalloc emits "malloc elemType, n" computing n from the byte-count
// argument when it is sizeof-shaped; otherwise a byte allocation.
func (g *irgen) genMalloc(elem core.Type, sizeArg Expr) (core.Value, error) {
	n, err := g.expr(sizeArg)
	if err != nil {
		return nil, err
	}
	n, err = g.convert(n, core.UIntType)
	if err != nil {
		return nil, err
	}
	return g.b.CreateMalloc(elem, n, ""), nil
}

// castExpr handles (T)x, including the allocation-raising peephole:
// (T*)malloc(sizeof(T)) and (T*)malloc(n * sizeof(T)) become typed malloc
// instructions, like llvm-gcc's RaiseAllocations pass.
func (g *irgen) castExpr(x *CastExpr) (core.Value, error) {
	t, err := g.resolveType(x.Type)
	if err != nil {
		return nil, err
	}
	if pt, ok := t.(*core.PointerType); ok {
		if call, ok := x.X.(*Call); ok {
			if id, ok := call.Fun.(*Ident); ok && id.Name == "malloc" && len(call.Args) == 1 {
				if count, ok := g.matchSizeofCount(call.Args[0], pt.Elem); ok {
					n, err := g.expr(count)
					if err != nil {
						return nil, err
					}
					n, err = g.convert(n, core.UIntType)
					if err != nil {
						return nil, err
					}
					return g.b.CreateMalloc(pt.Elem, n, ""), nil
				}
				if g.matchSizeofExact(call.Args[0], pt.Elem) {
					return g.b.CreateMalloc(pt.Elem, nil, ""), nil
				}
			}
		}
	}
	v, err := g.expr(x.X)
	if err != nil {
		return nil, err
	}
	if v.Type() == t {
		return v, nil
	}
	if t == core.VoidType {
		return v, nil // (void)expr: discard
	}
	return g.b.CreateCast(v, t, ""), nil
}

// matchSizeofExact recognizes "sizeof(T)" for the given T.
func (g *irgen) matchSizeofExact(e Expr, want core.Type) bool {
	so, ok := e.(*SizeOf)
	if !ok {
		return false
	}
	t, err := g.resolveType(so.Type)
	return err == nil && t == want
}

// matchSizeofCount recognizes "n * sizeof(T)" or "sizeof(T) * n".
func (g *irgen) matchSizeofCount(e Expr, want core.Type) (Expr, bool) {
	b, ok := e.(*Binary)
	if !ok || b.Op != "*" {
		return nil, false
	}
	if g.matchSizeofExact(b.R, want) {
		return b.L, true
	}
	if g.matchSizeofExact(b.L, want) {
		return b.R, true
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// Conversions

// condition evaluates e as a branch condition (bool).
func (g *irgen) condition(e Expr) (core.Value, error) {
	v, err := g.expr(e)
	if err != nil {
		return nil, err
	}
	t := v.Type()
	switch {
	case t.Kind() == core.BoolKind:
		return v, nil
	case core.IsInteger(t):
		return g.b.CreateSetNE(v, core.NewInt(t, 0), ""), nil
	case core.IsFloatingPoint(t):
		return g.b.CreateSetNE(v, core.NewFloat(t, 0), ""), nil
	case t.Kind() == core.PointerKind:
		return g.b.CreateSetNE(v, core.NewNull(t.(*core.PointerType)), ""), nil
	}
	return nil, g.errf("invalid condition type %s", t)
}

// convert coerces v to type t (C-style implicit conversion).
func (g *irgen) convert(v core.Value, t core.Type) (core.Value, error) {
	if v.Type() == t {
		return v, nil
	}
	from := v.Type()
	switch {
	case core.IsFirstClass(from) && core.IsFirstClass(t):
		// Integer literal to pointer: only 0 makes sense, but cast covers.
		if ci, ok := v.(*core.ConstantInt); ok {
			if core.IsInteger(t) {
				return core.NewInt(t, ci.SExt()), nil
			}
			if t.Kind() == core.PointerKind && ci.IsZero() {
				return core.NewNull(t.(*core.PointerType)), nil
			}
			if core.IsFloatingPoint(t) {
				return core.NewFloat(t, float64(ci.SExt())), nil
			}
		}
		return g.b.CreateCast(v, t, ""), nil
	}
	return nil, g.errf("cannot convert %s to %s", from, t)
}

// intRank orders integer types for the usual arithmetic conversions.
func intRank(t core.Type) int {
	switch core.BitWidth(t) {
	case 8:
		return 1
	case 16:
		return 2
	case 32:
		return 3
	default:
		return 4
	}
}

// promote applies the C integer promotions (small ints -> int).
func (g *irgen) promote(v core.Value) (core.Value, error) {
	t := v.Type()
	if t.Kind() == core.BoolKind {
		return g.convert(v, core.IntType)
	}
	if core.IsInteger(t) && core.BitWidth(t) < 32 {
		if core.IsUnsigned(t) {
			return g.convert(v, core.IntType)
		}
		return g.convert(v, core.IntType)
	}
	return v, nil
}

// usualArith applies the usual arithmetic conversions to a pair.
func (g *irgen) usualArith(l, r core.Value) (core.Value, core.Value, error) {
	var err error
	if l, err = g.promote(l); err != nil {
		return nil, nil, err
	}
	if r, err = g.promote(r); err != nil {
		return nil, nil, err
	}
	lt, rt := l.Type(), r.Type()
	if lt == rt {
		return l, r, nil
	}
	// Floating point dominates.
	switch {
	case lt.Kind() == core.DoubleKind || rt.Kind() == core.DoubleKind:
		if l, err = g.convert(l, core.DoubleType); err != nil {
			return nil, nil, err
		}
		r, err = g.convert(r, core.DoubleType)
		return l, r, err
	case lt.Kind() == core.FloatKind || rt.Kind() == core.FloatKind:
		if l, err = g.convert(l, core.FloatType); err != nil {
			return nil, nil, err
		}
		r, err = g.convert(r, core.FloatType)
		return l, r, err
	}
	// Integer: higher rank wins; unsigned wins ties.
	target := lt
	lr, rr := intRank(lt), intRank(rt)
	switch {
	case rr > lr:
		target = rt
	case lr > rr:
		target = lt
	case core.IsUnsigned(rt):
		target = rt
	}
	if l, err = g.convert(l, target); err != nil {
		return nil, nil, err
	}
	r, err = g.convert(r, target)
	return l, r, err
}

// lvalueType statically determines the type of a simple lvalue expression
// without generating code, or nil when it cannot. Used to decide whether
// indexing can stay on the array type (preserving bounds information)
// rather than decaying to a pointer.
func (g *irgen) lvalueType(e Expr) core.Type {
	switch x := e.(type) {
	case *Ident:
		if lv := g.lookup(x.Name); lv != nil {
			return lv.ty
		}
		if gv := g.m.Global(x.Name); gv != nil {
			return gv.ValueType
		}
	case *Member:
		var sty core.Type
		if x.Arrow {
			bt := g.lvalueType(x.X)
			pt, ok := bt.(*core.PointerType)
			if !ok {
				return nil
			}
			sty = pt.Elem
		} else {
			sty = g.lvalueType(x.X)
		}
		st, ok := sty.(*core.StructType)
		if !ok {
			return nil
		}
		si := g.structs[st.Name]
		if si == nil {
			return nil
		}
		fi, ok := si.fields[x.Name]
		if !ok {
			return nil
		}
		return st.Fields[fi]
	case *Index:
		if at, ok := g.lvalueType(x.X).(*core.ArrayType); ok {
			return at.Elem
		}
	case *Unary:
		if x.Op == "*" {
			if pt, ok := g.lvalueType(x.X).(*core.PointerType); ok {
				return pt.Elem
			}
		}
	}
	return nil
}

// isArrayLValue reports whether e is an lvalue of array type.
func (g *irgen) isArrayLValue(e Expr) bool {
	_, ok := g.lvalueType(e).(*core.ArrayType)
	return ok
}
