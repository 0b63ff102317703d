package core

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPrimitiveTypeProperties(t *testing.T) {
	cases := []struct {
		t      Type
		str    string
		signed bool
		width  int
		size   int
	}{
		{VoidType, "void", false, 0, 0},
		{BoolType, "bool", false, 1, 1},
		{SByteType, "sbyte", true, 8, 1},
		{UByteType, "ubyte", false, 8, 1},
		{ShortType, "short", true, 16, 2},
		{UShortType, "ushort", false, 16, 2},
		{IntType, "int", true, 32, 4},
		{UIntType, "uint", false, 32, 4},
		{LongType, "long", true, 64, 8},
		{ULongType, "ulong", false, 64, 8},
		{FloatType, "float", false, 32, 4},
		{DoubleType, "double", false, 64, 8},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
		if got := IsSigned(c.t); got != c.signed {
			t.Errorf("IsSigned(%s) = %v, want %v", c.str, got, c.signed)
		}
		if got := BitWidth(c.t); got != c.width {
			t.Errorf("BitWidth(%s) = %d, want %d", c.str, got, c.width)
		}
		if got := SizeOf(c.t); got != c.size {
			t.Errorf("SizeOf(%s) = %d, want %d", c.str, got, c.size)
		}
	}
}

func TestDerivedTypeStrings(t *testing.T) {
	pt := NewPointer(IntType)
	if pt.String() != "int*" {
		t.Errorf("pointer: %q", pt.String())
	}
	at := NewArray(SByteType, 10)
	if at.String() != "[10 x sbyte]" {
		t.Errorf("array: %q", at.String())
	}
	st := NewStruct(IntType, NewPointer(FloatType))
	if st.String() != "{ int, float* }" {
		t.Errorf("struct: %q", st.String())
	}
	ft := NewFunctionType(IntType, IntType, NewPointer(SByteType))
	if ft.String() != "int (int, sbyte*)" {
		t.Errorf("func: %q", ft.String())
	}
	vt := FunctionTypeOf(VoidType, []Type{NewPointer(SByteType)}, true)
	if vt.String() != "void (sbyte*, ...)" {
		t.Errorf("variadic: %q", vt.String())
	}
}

func TestStructLayout(t *testing.T) {
	// { sbyte, int, sbyte, long } -> offsets 0, 4, 8, 16; size 24 (align 8).
	st := NewStruct(SByteType, IntType, SByteType, LongType)
	wantOff := []int{0, 4, 8, 16}
	for i, w := range wantOff {
		if got := FieldOffset(st, i); got != w {
			t.Errorf("FieldOffset(%d) = %d, want %d", i, got, w)
		}
	}
	if got := SizeOf(st); got != 24 {
		t.Errorf("SizeOf = %d, want 24", got)
	}
	if got := AlignOf(st); got != 8 {
		t.Errorf("AlignOf = %d, want 8", got)
	}
}

func TestTypeIdentity(t *testing.T) {
	a := NewPointer(NewArray(IntType, 4))
	b := NewPointer(NewArray(IntType, 4))
	if a != b {
		t.Error("two constructions of [4 x int]* are different objects")
	}
	c := NewPointer(NewArray(IntType, 5))
	if a == c {
		t.Error("different array lengths compare equal")
	}
	if NewStruct(IntType, a) != NewStruct(IntType, b) {
		t.Error("two constructions of a literal struct are different objects")
	}
	if NewFunctionType(IntType, a) == FunctionTypeOf(IntType, []Type{a}, true) {
		t.Error("a variadic function type equals its fixed-arity twin")
	}
	// Named structs are nominal: equal bodies do not make equal types.
	s1 := &StructType{Name: "pair", Fields: []Type{IntType, IntType}}
	s2 := &StructType{Name: "pair", Fields: []Type{IntType, IntType}}
	if s1 == s2 || NewPointer(s1) == NewPointer(s2) {
		t.Error("two named structs with one body compare equal")
	}
	if NewStruct(IntType, IntType) == s1 {
		t.Error("a literal struct equals a named one with its body")
	}
	// Canonical types are keyed on their components' identity, so
	// permuting a named struct in place leaves the types built on it.
	p := NewPointer(s1)
	m := NewModule("m")
	m.AddTypeName("pair", s1)
	m.PermuteFields(s1, []int{1, 0})
	if NewPointer(s1) != p {
		t.Error("permuting a named struct changed the pointer to it")
	}
}

func TestRecursiveType(t *testing.T) {
	// %list = type { int, %list* }
	list := &StructType{Name: "list"}
	list.Fields = []Type{IntType, NewPointer(list)}
	if got := list.String(); got != "%list" {
		t.Errorf("recursive struct String() = %q", got)
	}
	if got := list.LiteralString(); got != "{ int, %list* }" {
		t.Errorf("LiteralString() = %q", got)
	}
	if SizeOf(list) != 16 {
		t.Errorf("SizeOf(list) = %d, want 16", SizeOf(list))
	}
}

func TestConstantIntSExt(t *testing.T) {
	c := NewInt(SByteType, -1)
	if c.Val != 0xFF {
		t.Errorf("stored bits = %#x, want 0xFF", c.Val)
	}
	if c.SExt() != -1 {
		t.Errorf("SExt = %d, want -1", c.SExt())
	}
	u := NewInt(UByteType, 255)
	if u.SExt() != 255 {
		t.Errorf("unsigned SExt = %d, want 255", u.SExt())
	}
	if got := c.String(); got != "-1" {
		t.Errorf("signed String = %q", got)
	}
	if got := u.String(); got != "255" {
		t.Errorf("unsigned String = %q", got)
	}
}

func TestConstantTruncationProperty(t *testing.T) {
	// Property: for any int64, an int-typed constant round-trips through
	// SExt, and a truncated type keeps only the low bits.
	f := func(v int64) bool {
		c := NewInt(IntType, v)
		return c.SExt() == int64(int32(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(v int64) bool {
		c := NewInt(UShortType, v)
		return c.Val == uint64(uint16(v))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestStringConstant(t *testing.T) {
	s := NewString("hello")
	at := s.Type().(*ArrayType)
	if at.Len != 6 || at.Elem != SByteType {
		t.Fatalf("string type = %s", at)
	}
	back, ok := s.AsString()
	if !ok || back != "hello" {
		t.Fatalf("AsString = %q, %v", back, ok)
	}
	if got := s.String(); got != `c"hello\00"` {
		t.Errorf("String() = %q", got)
	}
}

func TestUseDefChains(t *testing.T) {
	a := NewInt(IntType, 1)
	b := NewInt(IntType, 2)
	add := NewBinary(OpAdd, a, b)
	if NumUses(a) != 1 || NumUses(b) != 1 {
		t.Fatalf("uses after create: a=%d b=%d", NumUses(a), NumUses(b))
	}
	c := NewInt(IntType, 3)
	add.SetOperand(0, c)
	if NumUses(a) != 0 {
		t.Errorf("old operand still has %d uses", NumUses(a))
	}
	if NumUses(c) != 1 {
		t.Errorf("new operand has %d uses, want 1", NumUses(c))
	}
	// ReplaceAllUses.
	mul := NewBinary(OpMul, add, add)
	if NumUses(add) != 2 {
		t.Fatalf("add uses = %d, want 2", NumUses(add))
	}
	repl := NewBinary(OpSub, c, b)
	ReplaceAllUses(add, repl)
	if NumUses(add) != 0 || NumUses(repl) != 2 {
		t.Errorf("after RAUW: add=%d repl=%d", NumUses(add), NumUses(repl))
	}
	if mul.LHS() != Value(repl) || mul.RHS() != Value(repl) {
		t.Error("mul operands not rewritten")
	}
}

func TestGEPResultType(t *testing.T) {
	// %xty = { int, float, [4 x short] }, X: %xty*
	xty := NewStruct(IntType, FloatType, NewArray(ShortType, 4))
	base := NewGlobal("X", NewArray(xty, 10), nil)

	// getelementptr [10 x %xty]* %X, long %i, ubyte 2, long %j -> short*
	rt, err := GEPResultType(base.Type(), []Value{
		NewInt(LongType, 0), NewInt(LongType, 3), NewInt(UByteType, 2), NewInt(LongType, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.String() != "short*" {
		t.Errorf("GEP result = %s, want short*", rt)
	}
	// Out-of-range struct index.
	_, err = GEPResultType(NewPointer(xty), []Value{NewInt(LongType, 0), NewInt(UByteType, 9)})
	if err == nil {
		t.Error("out-of-range field index not rejected")
	}
	// Non-constant struct index.
	arg := &Argument{}
	arg.typ = LongType
	_, err = GEPResultType(NewPointer(xty), []Value{NewInt(LongType, 0), arg})
	if err == nil {
		t.Error("non-constant struct index not rejected")
	}
}

// buildTestFunction creates:
//
//	int %sum(int %n) {
//	entry:   br label %loop
//	loop:    %i = phi int [0,entry],[%i2,loop]
//	         %s = phi int [0,entry],[%s2,loop]
//	         %s2 = add int %s, %i
//	         %i2 = add int %i, 1
//	         %c = setlt int %i2, %n
//	         br bool %c, label %loop, label %exit
//	exit:    ret int %s2
//	}
func buildTestFunction() (*Module, *Function) {
	m := NewModule("test")
	f := NewFunction("sum", NewFunctionType(IntType, IntType))
	f.Args[0].SetName("n")
	m.AddFunc(f)

	entry := NewBlock("entry")
	loop := NewBlock("loop")
	exit := NewBlock("exit")
	f.AddBlock(entry)
	f.AddBlock(loop)
	f.AddBlock(exit)

	b := NewBuilder()
	b.SetInsertPoint(entry)
	b.CreateBr(loop)

	b.SetInsertPoint(loop)
	i := b.CreatePhi(IntType, "i")
	s := b.CreatePhi(IntType, "s")
	s2 := b.CreateAdd(s, i, "s2")
	i2 := b.CreateAdd(i, NewInt(IntType, 1), "i2")
	c := b.CreateSetLT(i2, f.Args[0], "c")
	b.CreateCondBr(c, loop, exit)

	i.AddIncoming(NewInt(IntType, 0), entry)
	i.AddIncoming(i2, loop)
	s.AddIncoming(NewInt(IntType, 0), entry)
	s.AddIncoming(s2, loop)

	b.SetInsertPoint(exit)
	b.CreateRet(s2)
	return m, f
}

func TestBuilderAndVerifier(t *testing.T) {
	m, f := buildTestFunction()
	if err := Verify(m); err != nil {
		t.Fatalf("valid module rejected: %v", err)
	}
	if f.NumInstructions() != 8 {
		t.Errorf("instruction count = %d, want 8", f.NumInstructions())
	}
}

func TestCFGEdges(t *testing.T) {
	_, f := buildTestFunction()
	entry, loop, exit := f.Blocks[0], f.Blocks[1], f.Blocks[2]
	if s := entry.Succs(); len(s) != 1 || s[0] != loop {
		t.Errorf("entry succs = %v", s)
	}
	if s := loop.Succs(); len(s) != 2 || s[0] != loop || s[1] != exit {
		t.Errorf("loop succs wrong")
	}
	preds := loop.Preds()
	if len(preds) != 2 {
		t.Errorf("loop preds = %d, want 2", len(preds))
	}
	if p := exit.Preds(); len(p) != 1 || p[0] != loop {
		t.Errorf("exit preds wrong")
	}
	if len(exit.Succs()) != 0 {
		t.Error("ret should have no successors")
	}
}

func TestVerifierCatchesTypeMismatch(t *testing.T) {
	m := NewModule("bad")
	f := NewFunction("f", NewFunctionType(IntType))
	m.AddFunc(f)
	bb := NewBlock("entry")
	f.AddBlock(bb)
	bld := NewBuilder()
	bld.SetInsertPoint(bb)
	// add int, long operands differ.
	bad := NewBinary(OpAdd, NewInt(IntType, 1), NewInt(LongType, 2))
	bb.Append(bad)
	bld.CreateRet(bad)
	err := Verify(m)
	if err == nil {
		t.Fatal("type mismatch not caught")
	}
	if !strings.Contains(err.Error(), "operand types differ") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestVerifierCatchesMissingTerminator(t *testing.T) {
	m := NewModule("bad")
	f := NewFunction("f", NewFunctionType(VoidType))
	m.AddFunc(f)
	bb := NewBlock("entry")
	f.AddBlock(bb)
	bb.Append(NewBinary(OpAdd, NewInt(IntType, 1), NewInt(IntType, 2)))
	err := Verify(m)
	if err == nil || !strings.Contains(err.Error(), "terminator") {
		t.Fatalf("missing terminator not caught: %v", err)
	}
}

func TestVerifierCatchesDominanceViolation(t *testing.T) {
	m := NewModule("bad")
	f := NewFunction("f", NewFunctionType(IntType, BoolType))
	m.AddFunc(f)
	entry := NewBlock("entry")
	thenB := NewBlock("then")
	join := NewBlock("join")
	f.AddBlock(entry)
	f.AddBlock(thenB)
	f.AddBlock(join)
	b := NewBuilder()
	b.SetInsertPoint(entry)
	b.CreateCondBr(f.Args[0], thenB, join)
	b.SetInsertPoint(thenB)
	x := b.CreateAdd(NewInt(IntType, 1), NewInt(IntType, 2), "x")
	b.CreateBr(join)
	b.SetInsertPoint(join)
	b.CreateRet(x) // x does not dominate join
	err := Verify(m)
	if err == nil || !strings.Contains(err.Error(), "dominate") {
		t.Fatalf("dominance violation not caught: %v", err)
	}
}

func TestVerifierCatchesBadPhi(t *testing.T) {
	_, f := buildTestFunction()
	loop := f.Blocks[1]
	phi := loop.Phis()[0]
	phi.RemoveIncoming(0) // now missing the entry edge
	err := VerifyFunction(f)
	if err == nil || !strings.Contains(err.Error(), "missing entry") {
		t.Fatalf("bad phi not caught: %v", err)
	}
}

func TestPrinterOutput(t *testing.T) {
	m, _ := buildTestFunction()
	out := m.String()
	for _, want := range []string{
		"int %sum(int %n) {",
		"%i = phi int [ 0, %entry ], [ %i2, %loop ]",
		"%s2 = add int %s, %i",
		"%c = setlt int %i2, %n",
		"br bool %c, label %loop, label %exit",
		"ret int %s2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("printer output missing %q\n%s", want, out)
		}
	}
}

func TestPhiEditing(t *testing.T) {
	phi := NewPhi(IntType)
	b1, b2, b3 := NewBlock("a"), NewBlock("b"), NewBlock("c")
	v1, v2, v3 := NewInt(IntType, 1), NewInt(IntType, 2), NewInt(IntType, 3)
	phi.AddIncoming(v1, b1)
	phi.AddIncoming(v2, b2)
	phi.AddIncoming(v3, b3)
	if phi.NumIncoming() != 3 {
		t.Fatal("wrong incoming count")
	}
	if got := phi.IncomingFor(b2); got != Value(v2) {
		t.Error("IncomingFor wrong")
	}
	phi.RemoveIncoming(1)
	if phi.NumIncoming() != 2 {
		t.Fatal("remove failed")
	}
	if v, blk := phi.Incoming(1); v != Value(v3) || blk != b3 {
		t.Error("incoming pairs shifted wrong")
	}
	if NumUses(v2) != 0 {
		t.Error("removed value still used")
	}
	if NumUses(b3) != 1 {
		t.Errorf("b3 uses = %d, want 1", NumUses(b3))
	}
}

func TestSwitchEditing(t *testing.T) {
	def, c1, c2 := NewBlock("def"), NewBlock("c1"), NewBlock("c2")
	sw := NewSwitch(NewInt(IntType, 0), def)
	sw.AddCase(NewInt(IntType, 1), c1)
	sw.AddCase(NewInt(IntType, 2), c2)
	if sw.NumCases() != 2 {
		t.Fatal("case count")
	}
	sw.RemoveCase(0)
	if sw.NumCases() != 1 {
		t.Fatal("remove case")
	}
	v, d := sw.Case(0)
	if v.SExt() != 2 || d != c2 {
		t.Error("wrong remaining case")
	}
}

func TestFunctionAddressTaken(t *testing.T) {
	m := NewModule("t")
	callee := NewFunction("callee", NewFunctionType(VoidType))
	m.AddFunc(callee)
	caller := NewFunction("caller", NewFunctionType(VoidType))
	m.AddFunc(caller)
	bb := NewBlock("entry")
	caller.AddBlock(bb)
	b := NewBuilder()
	b.SetInsertPoint(bb)
	call := b.CreateCall(callee, nil, "")
	b.CreateRet(nil)
	if callee.HasAddressTaken() {
		t.Error("direct call should not count as address-taken")
	}
	if len(callee.Callers()) != 1 {
		t.Error("caller not found")
	}
	_ = call
	// Storing the function pointer takes its address.
	g := NewGlobal("fp", callee.Type(), nil)
	m.AddGlobal(g)
	bb.InsertAt(1, NewStore(callee, g))
	if !callee.HasAddressTaken() {
		t.Error("stored function pointer should be address-taken")
	}
}

func TestModuleSymbolTables(t *testing.T) {
	m := NewModule("t")
	f := NewFunction("f", NewFunctionType(VoidType))
	m.AddFunc(f)
	if m.Func("f") != f {
		t.Error("function lookup failed")
	}
	g := NewGlobal("g", IntType, NewInt(IntType, 7))
	m.AddGlobal(g)
	if m.Global("g") != g {
		t.Error("global lookup failed")
	}
	if got := m.UniqueSymbol("f"); got != "f.1" {
		t.Errorf("UniqueSymbol = %q", got)
	}
	m.RenameFunc(f, "f2")
	if m.Func("f2") != f || m.Func("f") != nil {
		t.Error("rename broke lookup")
	}
	m.RemoveFunc(f)
	if m.Func("f2") != nil || len(m.Funcs) != 0 {
		t.Error("remove broke lookup")
	}
}

func TestEraseInstruction(t *testing.T) {
	_, f := buildTestFunction()
	loop := f.Blocks[1]
	// Erase %c's defining compare after replacing its use.
	var cmp Instruction
	for _, inst := range loop.Instrs {
		if inst.Name() == "c" {
			cmp = inst
		}
	}
	ReplaceAllUses(cmp, NewBool(true))
	loop.Erase(cmp)
	if err := VerifyFunction(f); err != nil {
		t.Fatalf("function invalid after erase: %v", err)
	}
	if loop.IndexOf(cmp) != -1 {
		t.Error("instruction still in block")
	}
}

func TestVerifierRejectsEntryPredecessors(t *testing.T) {
	m := NewModule("bad")
	f := NewFunction("f", NewFunctionType(VoidType))
	m.AddFunc(f)
	entry := NewBlock("entry")
	f.AddBlock(entry)
	b := NewBuilder()
	b.SetInsertPoint(entry)
	b.CreateBr(entry) // loop back to entry
	err := Verify(m)
	if err == nil || !strings.Contains(err.Error(), "entry block") {
		t.Fatalf("entry predecessor not rejected: %v", err)
	}
}

func TestValidateTypeGraph(t *testing.T) {
	// Legal: recursion through a named struct behind a pointer.
	list := &StructType{Name: "list"}
	list.Fields = []Type{IntType, NewPointer(list)}
	if err := ValidateTypeGraph(list); err != nil {
		t.Errorf("legal recursive type rejected: %v", err)
	}
	// Illegal: struct containing itself by value.
	inf := &StructType{Name: "inf"}
	inf.Fields = []Type{IntType, inf}
	if err := ValidateTypeGraph(inf); err == nil {
		t.Error("infinite-size struct accepted")
	}
	// Illegal: array containing its own struct by value through nesting.
	s := &StructType{Name: "s"}
	s.Fields = []Type{NewArray(s, 2)}
	if err := ValidateTypeGraph(s); err == nil {
		t.Error("array-embedded self-containment accepted")
	}
}
