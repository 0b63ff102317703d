package core

import (
	"strings"
	"testing"
)

// Regression tests for the memory-instruction preconditions the static
// checker relies on: free takes a sized-pointee pointer, loads and stores
// never go through void*, and allocations have a computable size.

// badFn builds a void function whose entry block runs build() then returns,
// and asserts Verify rejects it with a message containing want.
func badFn(t *testing.T, want string, build func(bb *BasicBlock)) {
	t.Helper()
	m := NewModule("bad")
	f := NewFunction("f", NewFunctionType(VoidType))
	m.AddFunc(f)
	bb := NewBlock("entry")
	f.AddBlock(bb)
	build(bb)
	bb.Append(NewRet(nil))
	err := Verify(m)
	if err == nil {
		t.Fatalf("verifier accepted invalid IR, want %q", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

func TestVerifierRejectsFreeOfNonPointer(t *testing.T) {
	badFn(t, "free of non-pointer", func(bb *BasicBlock) {
		bb.Append(NewFree(NewInt(IntType, 3)))
	})
}

func TestVerifierRejectsFreeThroughVoidPtr(t *testing.T) {
	badFn(t, "no allocation size", func(bb *BasicBlock) {
		p := NewMalloc(IntType, nil)
		bb.Append(p)
		c := NewCast(p, NewPointer(VoidType))
		bb.Append(c)
		bb.Append(NewFree(c))
	})
}

func TestVerifierRejectsFreeOfFunctionPointer(t *testing.T) {
	badFn(t, "no allocation size", func(bb *BasicBlock) {
		g := NewFunction("g", NewFunctionType(VoidType))
		bb.Parent().Parent().AddFunc(g)
		bb.Append(NewFree(g))
	})
}

func TestVerifierRejectsLoadThroughVoidPtr(t *testing.T) {
	badFn(t, "void*-typed address", func(bb *BasicBlock) {
		p := NewMalloc(IntType, nil)
		bb.Append(p)
		c := NewCast(p, NewPointer(VoidType))
		bb.Append(c)
		bb.Append(NewLoad(c))
	})
}

func TestVerifierRejectsStoreThroughVoidPtr(t *testing.T) {
	badFn(t, "store through void*", func(bb *BasicBlock) {
		p := NewMalloc(IntType, nil)
		bb.Append(p)
		c := NewCast(p, NewPointer(VoidType))
		bb.Append(c)
		bb.Append(NewStore(NewInt(IntType, 1), c))
	})
}

func TestVerifierRejectsUnsizedMalloc(t *testing.T) {
	badFn(t, "malloc of unsized", func(bb *BasicBlock) {
		bb.Append(NewMalloc(VoidType, nil))
	})
}

func TestVerifierRejectsUnsizedAlloca(t *testing.T) {
	badFn(t, "alloca of unsized", func(bb *BasicBlock) {
		bb.Append(NewAlloca(NewFunctionType(VoidType), nil))
	})
}

func TestVerifierAcceptsSizedAllocAndFree(t *testing.T) {
	m := NewModule("ok")
	f := NewFunction("f", NewFunctionType(VoidType))
	m.AddFunc(f)
	bb := NewBlock("entry")
	f.AddBlock(bb)
	st := NewStruct(IntType, NewPointer(IntType))
	p := NewMalloc(st, nil)
	bb.Append(p)
	bb.Append(NewFree(p))
	bb.Append(NewRet(nil))
	if err := Verify(m); err != nil {
		t.Fatalf("valid IR rejected: %v", err)
	}
}

func TestIsSized(t *testing.T) {
	cases := []struct {
		t    Type
		want bool
	}{
		{IntType, true},
		{VoidType, false},
		{LabelType, false},
		{NewPointer(VoidType), true}, // the pointer itself is sized
		{NewArray(IntType, 4), true},
		{NewStruct(IntType, DoubleType), true},
		{NewFunctionType(IntType), false},
	}
	for _, c := range cases {
		if got := IsSized(c.t); got != c.want {
			t.Errorf("IsSized(%s) = %v, want %v", c.t, got, c.want)
		}
	}
}

// TestVerifierDiagnosticsPinned pins the exact diagnostics, and their
// order, for functions that break the structural, phi and dominance rules
// at once. Uses in unreachable code are not dominance-checked.
func TestVerifierDiagnosticsPinned(t *testing.T) {
	m := NewModule("broken")
	add := func(b *BasicBlock, name string, x, y Value) *BinaryInst {
		i := NewBinary(OpAdd, x, y)
		i.SetName(name)
		b.Append(i)
		return i
	}
	one := NewInt(IntType, 1)

	// %dom: dominance and phi-edge problems.
	f := NewFunction("dom", NewFunctionType(IntType, BoolType, IntType))
	m.AddFunc(f)
	c, a := f.Args[0], f.Args[1]
	c.SetName("c")
	a.SetName("a")
	entry, then, els, join, dead := NewBlock("entry"), NewBlock("then"), NewBlock("else"), NewBlock("join"), NewBlock("dead")
	for _, b := range []*BasicBlock{entry, then, els, join, dead} {
		f.AddBlock(b)
	}
	u := add(entry, "u", one, one)
	late := add(entry, "late", a, one)
	u.SetOperand(0, late)
	entry.Append(NewCondBr(c, then, els))
	tv := add(then, "t", a, one)
	then.Append(NewBr(join))
	ev := add(els, "e", tv, one)
	els.Append(NewBr(join))
	p := NewPhi(IntType)
	p.SetName("p")
	p.AddIncoming(tv, then)
	p.AddIncoming(a, entry)
	join.Append(p)
	q := NewPhi(IntType)
	q.SetName("q")
	q.AddIncoming(tv, then)
	q.AddIncoming(ev, els)
	join.Append(q)
	r := NewPhi(IntType)
	r.SetName("r")
	r.AddIncoming(ev, then)
	r.AddIncoming(ev, els)
	r.AddIncoming(tv, then)
	join.Append(r)
	join.Append(NewRet(p))
	d := add(dead, "d", one, one)
	dd := add(dead, "dd", a, one)
	d.SetOperand(0, dd)
	dead.Append(NewRet(d))

	// %shape: block structure problems.
	g := NewFunction("shape", NewFunctionType(IntType, BoolType))
	m.AddFunc(g)
	gc := g.Args[0]
	gc.SetName("c")
	g0, g1, g2, g3 := NewBlock("entry"), NewBlock("mid"), NewBlock("empty"), NewBlock("open")
	for _, b := range []*BasicBlock{g0, g1, g2, g3} {
		g.AddBlock(b)
	}
	g0.Append(NewCondBr(gc, g1, g3))
	g1.Append(NewBr(g0))
	x := add(g1, "x", one, one)
	late2 := NewPhi(IntType)
	late2.SetName("late")
	late2.AddIncoming(x, g1)
	g1.Append(late2)
	g1.Append(NewRet(NewBool(true)))
	g3.Append(NewBr(dead))
	add(g3, "y", one, one)

	err := Verify(m)
	if err == nil {
		t.Fatal("verifier accepted broken module")
	}
	want := []string{
		"in %dom: phi %p in block %join missing entry for predecessor %else",
		"in %dom: phi %p in block %join has entry for non-predecessor %entry",
		"in %dom: phi %r in block %join has duplicate entries for %then",
		"in %dom: use of %late in block %entry before its definition",
		"in %dom: definition of %t (block %then) does not dominate use in block %else",
		"in %dom: phi %r incoming %e does not dominate predecessor %then",
		"in %shape: entry block %entry has predecessors",
		"in %shape: terminator br in the middle of block %mid",
		"in %shape: phi after non-phi instruction in block %mid",
		"in %shape: ret bool in function returning int",
		"in %shape: block %empty is empty",
		"in %shape: terminator br in the middle of block %open",
		"in %shape: br references block %dead from another function",
		"in %shape: block %open does not end with a terminator",
	}
	got := err.(*VerifyError).Problems
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("diagnostics:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// TestVerifierChecksIDs: IR placed in a function behind the numbering
// mutators (here by writing the slices directly) fails verification.
func TestVerifierChecksIDs(t *testing.T) {
	m := NewModule("ids")
	f := NewFunction("f", NewFunctionType(VoidType))
	m.AddFunc(f)
	entry := NewBlock("entry")
	f.AddBlock(entry)
	entry.Instrs = append(entry.Instrs, NewBr(entry))
	entry.Instrs[0].setParent(entry)
	f.Blocks = append(f.Blocks, entry)
	err := Verify(m)
	if err == nil {
		t.Fatal("verifier accepted unnumbered IR")
	}
	for _, want := range []string{
		"in %f: br in block %entry has ID 0 outside [1, 1)",
		"in %f: block %entry reuses ID 1",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
