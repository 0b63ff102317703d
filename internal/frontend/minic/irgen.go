package minic

import (
	"fmt"

	"repro/internal/core"
)

// Compile parses and translates MiniC source into an IR module. The output
// is unoptimized front-end code: locals are stack allocas, no SSA
// construction is performed (§3.2 of the paper: the stack promotion and
// scalar expansion passes build SSA later).
func Compile(moduleName, src string) (*core.Module, error) {
	decls, err := Parse(src)
	if err != nil {
		return nil, err
	}
	g := &irgen{
		m:       core.NewModule(moduleName),
		structs: map[string]*structInfo{},
		strings: map[string]*core.GlobalVariable{},
	}
	if err := g.program(decls); err != nil {
		return nil, err
	}
	return g.m, nil
}

type structInfo struct {
	ty     *core.StructType
	fields map[string]int
}

type localVar struct {
	addr core.Value // alloca (or argument alloca)
	ty   core.Type  // variable type (pointee of addr)
}

type irgen struct {
	m       *core.Module
	structs map[string]*structInfo
	strings map[string]*core.GlobalVariable

	b         *core.Builder
	fn        *core.Function
	entry     *core.BasicBlock
	allocaPos int
	locals    []map[string]*localVar
	breaks    []*core.BasicBlock
	continues []*core.BasicBlock
	blockN    int
	strN      int
}

func (g *irgen) errf(format string, args ...interface{}) error {
	where := ""
	if g.fn != nil {
		where = " in function " + g.fn.Name()
	}
	return fmt.Errorf("minic%s: %s", where, fmt.Sprintf(format, args...))
}

// ---------------------------------------------------------------------------
// Types

func (g *irgen) resolveType(te *TypeExpr) (core.Type, error) {
	if te.IsFuncPtr {
		ret, err := g.resolveType(te.Ret)
		if err != nil {
			return nil, err
		}
		var params []core.Type
		for _, pt := range te.Params {
			p, err := g.resolveType(pt)
			if err != nil {
				return nil, err
			}
			params = append(params, p)
		}
		return core.NewPointer(core.FunctionTypeOf(ret, params, te.Variadic)), nil
	}
	var t core.Type
	if te.IsStruct {
		si, ok := g.structs[te.Base]
		if !ok {
			return nil, g.errf("unknown struct %q", te.Base)
		}
		t = si.ty
	} else {
		switch te.Base {
		case "void":
			t = core.VoidType
		case "char":
			if te.Unsigned {
				t = core.UByteType
			} else {
				t = core.SByteType
			}
		case "short":
			if te.Unsigned {
				t = core.UShortType
			} else {
				t = core.ShortType
			}
		case "int":
			if te.Unsigned {
				t = core.UIntType
			} else {
				t = core.IntType
			}
		case "long":
			if te.Unsigned {
				t = core.ULongType
			} else {
				t = core.LongType
			}
		case "float":
			t = core.FloatType
		case "double":
			t = core.DoubleType
		default:
			return nil, g.errf("unknown type %q", te.Base)
		}
	}
	for i := 0; i < te.Ptr; i++ {
		t = core.NewPointer(t)
	}
	for i := len(te.ArrayLen) - 1; i >= 0; i-- {
		t = core.NewArray(t, te.ArrayLen[i])
	}
	return t, nil
}

// ---------------------------------------------------------------------------
// Top level

func (g *irgen) program(decls []Decl) error {
	// Structs first (single pass is enough: MiniC requires declaration
	// before use; self-references go through pointers which we patch).
	for _, d := range decls {
		sd, ok := d.(*StructDecl)
		if !ok {
			continue
		}
		st := &core.StructType{Name: sd.Name}
		g.m.AddTypeName(sd.Name, st)
		g.structs[sd.Name] = &structInfo{ty: st, fields: map[string]int{}}
	}
	for _, d := range decls {
		sd, ok := d.(*StructDecl)
		if !ok {
			continue
		}
		si := g.structs[sd.Name]
		for i, f := range sd.Fields {
			ft, err := g.resolveType(f.Type)
			if err != nil {
				return err
			}
			si.ty.Fields = append(si.ty.Fields, ft)
			si.fields[f.Name] = i
		}
	}

	// Function prototypes (so forward calls resolve).
	for _, d := range decls {
		fd, ok := d.(*FuncDecl)
		if !ok {
			continue
		}
		if err := g.declareFunction(fd); err != nil {
			return err
		}
	}
	// Globals.
	for _, d := range decls {
		vd, ok := d.(*VarDecl)
		if !ok {
			continue
		}
		if err := g.globalVar(vd); err != nil {
			return err
		}
	}
	// Bodies.
	for _, d := range decls {
		fd, ok := d.(*FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if err := g.functionBody(fd); err != nil {
			return err
		}
	}
	return nil
}

func (g *irgen) declareFunction(fd *FuncDecl) error {
	ret, err := g.resolveType(fd.Ret)
	if err != nil {
		return err
	}
	var params []core.Type
	for _, p := range fd.Params {
		pt, err := g.resolveType(p.Type)
		if err != nil {
			return err
		}
		params = append(params, pt)
	}
	sig := core.FunctionTypeOf(ret, params, fd.Variadic)
	if existing := g.m.Func(fd.Name); existing != nil {
		if existing.Sig != sig {
			return g.errf("conflicting declarations of %q", fd.Name)
		}
		return nil
	}
	f := core.NewFunction(fd.Name, sig)
	if fd.Static {
		f.Linkage = core.InternalLinkage
	}
	for i, p := range fd.Params {
		f.Args[i].SetName(p.Name)
	}
	g.m.AddFunc(f)
	return nil
}

func (g *irgen) globalVar(vd *VarDecl) error {
	t, err := g.resolveType(vd.Type)
	if err != nil {
		return err
	}
	var init core.Constant
	if !vd.Extern {
		init, err = g.constInit(t, vd.Init, vd.InitList)
		if err != nil {
			return err
		}
	}
	gv := core.NewGlobal(vd.Name, t, init)
	gv.IsConst = vd.Const
	if vd.Static {
		gv.Linkage = core.InternalLinkage
	}
	g.m.AddGlobal(gv)
	return nil
}

// constInit builds a global initializer.
func (g *irgen) constInit(t core.Type, init Expr, list []Expr) (core.Constant, error) {
	if init == nil && list == nil {
		return core.ZeroValueOf(t), nil
	}
	if list != nil {
		switch tt := t.(type) {
		case *core.ArrayType:
			elems := make([]core.Constant, tt.Len)
			for i := 0; i < tt.Len; i++ {
				if i < len(list) {
					e, err := g.constExpr(tt.Elem, list[i])
					if err != nil {
						return nil, err
					}
					elems[i] = e
				} else {
					elems[i] = core.ZeroValueOf(tt.Elem)
				}
			}
			return core.NewArrayConst(tt.Elem, elems), nil
		case *core.StructType:
			fields := make([]core.Constant, len(tt.Fields))
			for i := range tt.Fields {
				if i < len(list) {
					e, err := g.constExpr(tt.Fields[i], list[i])
					if err != nil {
						return nil, err
					}
					fields[i] = e
				} else {
					fields[i] = core.ZeroValueOf(tt.Fields[i])
				}
			}
			return core.NewStructConst(tt, fields), nil
		}
		return nil, g.errf("initializer list for non-aggregate type %s", t)
	}
	return g.constExpr(t, init)
}

// constExpr evaluates a compile-time constant expression.
func (g *irgen) constExpr(t core.Type, e Expr) (core.Constant, error) {
	switch x := e.(type) {
	case *IntLit:
		if core.IsFloatingPoint(t) {
			return core.NewFloat(t, float64(x.Val)), nil
		}
		if core.IsInteger(t) {
			return core.NewInt(t, x.Val), nil
		}
		if t.Kind() == core.PointerKind && x.Val == 0 {
			return core.NewNull(t.(*core.PointerType)), nil
		}
		if t.Kind() == core.BoolKind {
			return core.NewBool(x.Val != 0), nil
		}
	case *FloatLit:
		if core.IsFloatingPoint(t) {
			return core.NewFloat(t, x.Val), nil
		}
	case *StrLit:
		gv := g.stringGlobal(x.Val)
		return core.NewConstGEP(gv, core.NewInt(core.LongType, 0), core.NewInt(core.LongType, 0)), nil
	case *Unary:
		if x.Op == "-" {
			inner, err := g.constExpr(t, x.X)
			if err != nil {
				return nil, err
			}
			if ci, ok := inner.(*core.ConstantInt); ok {
				return core.NewInt(t, -ci.SExt()), nil
			}
			if cf, ok := inner.(*core.ConstantFloat); ok {
				return core.NewFloat(t, -cf.Val), nil
			}
		}
		if x.Op == "&" {
			if id, ok := x.X.(*Ident); ok {
				if gv := g.m.Global(id.Name); gv != nil {
					return gv, nil
				}
			}
		}
	case *SizeOf:
		st, err := g.resolveType(x.Type)
		if err != nil {
			return nil, err
		}
		return core.NewInt(t, int64(core.SizeOf(st))), nil
	case *Ident:
		if f := g.m.Func(x.Name); f != nil {
			return f, nil
		}
	}
	return nil, g.errf("unsupported constant initializer")
}

func (g *irgen) stringGlobal(s string) *core.GlobalVariable {
	if gv, ok := g.strings[s]; ok {
		return gv
	}
	g.strN++
	gv := core.NewGlobal(g.m.UniqueSymbol(fmt.Sprintf(".str%d", g.strN)), core.NewArray(core.SByteType, len(s)+1), core.NewString(s))
	gv.IsConst = true
	gv.Linkage = core.InternalLinkage
	g.m.AddGlobal(gv)
	g.strings[s] = gv
	return gv
}

// ---------------------------------------------------------------------------
// Function bodies

func (g *irgen) functionBody(fd *FuncDecl) error {
	f := g.m.Func(fd.Name)
	g.fn = f
	g.b = core.NewBuilder()
	g.entry = core.NewBlock("entry")
	f.AddBlock(g.entry)
	g.b.SetInsertPoint(g.entry)
	g.allocaPos = 0
	g.locals = []map[string]*localVar{{}}
	g.blockN = 0

	// Parameters get stack homes so they are assignable (mem2reg cleans
	// this up).
	for i, p := range fd.Params {
		if p.Name == "" {
			continue
		}
		a := g.newAlloca(f.Args[i].Type(), p.Name+".addr")
		g.b.CreateStore(f.Args[i], a)
		g.locals[0][p.Name] = &localVar{addr: a, ty: f.Args[i].Type()}
	}

	if err := g.block(fd.Body); err != nil {
		return err
	}
	// Implicit return.
	if g.b.Block().Terminator() == nil {
		if f.Sig.Ret == core.VoidType {
			g.b.CreateRet(nil)
		} else {
			g.b.CreateRet(core.ZeroValueOf(f.Sig.Ret))
		}
	}
	g.fn = nil
	return nil
}

// newAlloca inserts an alloca at the top of the entry block.
func (g *irgen) newAlloca(t core.Type, name string) *core.AllocaInst {
	a := core.NewAlloca(t, nil)
	a.SetName(name)
	g.entry.InsertAt(g.allocaPos, a)
	g.allocaPos++
	return a
}

func (g *irgen) newBlock(hint string) *core.BasicBlock {
	g.blockN++
	b := core.NewBlock(fmt.Sprintf("%s%d", hint, g.blockN))
	g.fn.AddBlock(b)
	return b
}

func (g *irgen) pushScope() { g.locals = append(g.locals, map[string]*localVar{}) }
func (g *irgen) popScope()  { g.locals = g.locals[:len(g.locals)-1] }

func (g *irgen) lookup(name string) *localVar {
	for i := len(g.locals) - 1; i >= 0; i-- {
		if v, ok := g.locals[i][name]; ok {
			return v
		}
	}
	return nil
}

// terminated reports whether the current block already ends control flow.
func (g *irgen) terminated() bool { return g.b.Block().Terminator() != nil }

// seal starts a fresh (unreachable) block if the current one is terminated,
// so statement generation can continue.
func (g *irgen) seal() {
	if g.terminated() {
		g.b.SetInsertPoint(g.newBlock("dead"))
	}
}

func (g *irgen) block(b *BlockStmt) error {
	g.pushScope()
	defer g.popScope()
	for _, s := range b.Stmts {
		if err := g.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *irgen) stmt(s Stmt) error {
	g.seal()
	switch st := s.(type) {
	case *BlockStmt:
		return g.block(st)
	case *LocalDecl:
		return g.localDecl(st)
	case *ExprStmt:
		_, err := g.expr(st.X)
		return err
	case *ReturnStmt:
		if st.Value == nil {
			g.b.CreateRet(nil)
			return nil
		}
		v, err := g.expr(st.Value)
		if err != nil {
			return err
		}
		v, err = g.convert(v, g.fn.Sig.Ret)
		if err != nil {
			return err
		}
		g.b.CreateRet(v)
		return nil
	case *IfStmt:
		return g.ifStmt(st)
	case *WhileStmt:
		return g.whileStmt(st)
	case *DoWhileStmt:
		return g.doWhileStmt(st)
	case *ForStmt:
		return g.forStmt(st)
	case *BreakStmt:
		if len(g.breaks) == 0 {
			return g.errf("break outside loop/switch")
		}
		g.b.CreateBr(g.breaks[len(g.breaks)-1])
		return nil
	case *ContinueStmt:
		if len(g.continues) == 0 {
			return g.errf("continue outside loop")
		}
		g.b.CreateBr(g.continues[len(g.continues)-1])
		return nil
	case *SwitchStmt:
		return g.switchStmt(st)
	}
	return g.errf("unhandled statement %T", s)
}

func (g *irgen) localDecl(st *LocalDecl) error {
	t, err := g.resolveType(st.Type)
	if err != nil {
		return err
	}
	a := g.newAlloca(t, st.Name)
	g.locals[len(g.locals)-1][st.Name] = &localVar{addr: a, ty: t}
	if st.Init != nil {
		v, err := g.expr(st.Init)
		if err != nil {
			return err
		}
		v, err = g.convert(v, t)
		if err != nil {
			return err
		}
		g.b.CreateStore(v, a)
	}
	if st.InitList != nil {
		at, ok := t.(*core.ArrayType)
		if !ok {
			return g.errf("initializer list for non-array local %q", st.Name)
		}
		for i, e := range st.InitList {
			v, err := g.expr(e)
			if err != nil {
				return err
			}
			v, err = g.convert(v, at.Elem)
			if err != nil {
				return err
			}
			p := g.b.CreateGEP(a, []core.Value{core.NewInt(core.LongType, 0), core.NewInt(core.LongType, int64(i))}, "")
			g.b.CreateStore(v, p)
		}
	}
	return nil
}

func (g *irgen) ifStmt(st *IfStmt) error {
	cond, err := g.condition(st.Cond)
	if err != nil {
		return err
	}
	thenB := g.newBlock("if.then")
	endB := g.newBlock("if.end")
	elseB := endB
	if st.Else != nil {
		elseB = g.newBlock("if.else")
	}
	g.b.CreateCondBr(cond, thenB, elseB)

	g.b.SetInsertPoint(thenB)
	if err := g.stmt(st.Then); err != nil {
		return err
	}
	if !g.terminated() {
		g.b.CreateBr(endB)
	}
	if st.Else != nil {
		g.b.SetInsertPoint(elseB)
		if err := g.stmt(st.Else); err != nil {
			return err
		}
		if !g.terminated() {
			g.b.CreateBr(endB)
		}
	}
	g.b.SetInsertPoint(endB)
	return nil
}

func (g *irgen) whileStmt(st *WhileStmt) error {
	condB := g.newBlock("while.cond")
	bodyB := g.newBlock("while.body")
	endB := g.newBlock("while.end")
	g.b.CreateBr(condB)
	g.b.SetInsertPoint(condB)
	cond, err := g.condition(st.Cond)
	if err != nil {
		return err
	}
	g.b.CreateCondBr(cond, bodyB, endB)

	g.breaks = append(g.breaks, endB)
	g.continues = append(g.continues, condB)
	g.b.SetInsertPoint(bodyB)
	if err := g.stmt(st.Body); err != nil {
		return err
	}
	if !g.terminated() {
		g.b.CreateBr(condB)
	}
	g.breaks = g.breaks[:len(g.breaks)-1]
	g.continues = g.continues[:len(g.continues)-1]
	g.b.SetInsertPoint(endB)
	return nil
}

func (g *irgen) doWhileStmt(st *DoWhileStmt) error {
	bodyB := g.newBlock("do.body")
	condB := g.newBlock("do.cond")
	endB := g.newBlock("do.end")
	g.b.CreateBr(bodyB)

	g.breaks = append(g.breaks, endB)
	g.continues = append(g.continues, condB)
	g.b.SetInsertPoint(bodyB)
	if err := g.stmt(st.Body); err != nil {
		return err
	}
	if !g.terminated() {
		g.b.CreateBr(condB)
	}
	g.breaks = g.breaks[:len(g.breaks)-1]
	g.continues = g.continues[:len(g.continues)-1]

	g.b.SetInsertPoint(condB)
	cond, err := g.condition(st.Cond)
	if err != nil {
		return err
	}
	g.b.CreateCondBr(cond, bodyB, endB)
	g.b.SetInsertPoint(endB)
	return nil
}

func (g *irgen) forStmt(st *ForStmt) error {
	g.pushScope()
	defer g.popScope()
	if st.Init != nil {
		if err := g.stmt(st.Init); err != nil {
			return err
		}
	}
	condB := g.newBlock("for.cond")
	bodyB := g.newBlock("for.body")
	postB := g.newBlock("for.post")
	endB := g.newBlock("for.end")
	g.b.CreateBr(condB)

	g.b.SetInsertPoint(condB)
	if st.Cond != nil {
		cond, err := g.condition(st.Cond)
		if err != nil {
			return err
		}
		g.b.CreateCondBr(cond, bodyB, endB)
	} else {
		g.b.CreateBr(bodyB)
	}

	g.breaks = append(g.breaks, endB)
	g.continues = append(g.continues, postB)
	g.b.SetInsertPoint(bodyB)
	if err := g.stmt(st.Body); err != nil {
		return err
	}
	if !g.terminated() {
		g.b.CreateBr(postB)
	}
	g.breaks = g.breaks[:len(g.breaks)-1]
	g.continues = g.continues[:len(g.continues)-1]

	g.b.SetInsertPoint(postB)
	if st.Post != nil {
		if _, err := g.expr(st.Post); err != nil {
			return err
		}
	}
	g.b.CreateBr(condB)
	g.b.SetInsertPoint(endB)
	return nil
}

func (g *irgen) switchStmt(st *SwitchStmt) error {
	v, err := g.expr(st.Value)
	if err != nil {
		return err
	}
	if !core.IsInteger(v.Type()) {
		return g.errf("switch on non-integer")
	}
	endB := g.newBlock("sw.end")

	// Arms in source order (cases with default spliced at DefaultPos).
	type arm struct {
		body    []Stmt
		block   *core.BasicBlock
		caseVal *core.ConstantInt
	}
	var arms []arm
	for i, c := range st.Cases {
		if i == st.DefaultPos && st.Default != nil {
			arms = append(arms, arm{body: st.Default, block: g.newBlock("sw.default")})
		}
		arms = append(arms, arm{body: c.Body, block: g.newBlock("sw.case"),
			caseVal: core.NewInt(v.Type(), c.Value)})
	}
	if st.DefaultPos >= len(st.Cases) && st.Default != nil {
		arms = append(arms, arm{body: st.Default, block: g.newBlock("sw.default")})
	}

	defaultB := endB
	for _, a := range arms {
		if a.caseVal == nil {
			defaultB = a.block
		}
	}
	sw := g.b.CreateSwitch(v, defaultB)
	for _, a := range arms {
		if a.caseVal != nil {
			sw.AddCase(a.caseVal, a.block)
		}
	}

	g.breaks = append(g.breaks, endB)
	for i, a := range arms {
		g.b.SetInsertPoint(a.block)
		for _, s := range a.body {
			if err := g.stmt(s); err != nil {
				return err
			}
		}
		if !g.terminated() {
			// C fallthrough into the next arm (or the end).
			if i+1 < len(arms) {
				g.b.CreateBr(arms[i+1].block)
			} else {
				g.b.CreateBr(endB)
			}
		}
	}
	g.breaks = g.breaks[:len(g.breaks)-1]
	g.b.SetInsertPoint(endB)
	return nil
}
