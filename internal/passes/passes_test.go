package passes

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/obs"
)

func parse(t *testing.T, src string) *core.Module {
	t.Helper()
	m, err := asm.ParseModule("t", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return m
}

func mustVerify(t *testing.T, m *core.Module) {
	t.Helper()
	if err := core.Verify(m); err != nil {
		t.Fatalf("module invalid after pass: %v\n%s", err, m)
	}
}

func countOps(f *core.Function, op core.Opcode) int {
	n := 0
	f.ForEachInst(func(inst core.Instruction) bool {
		if inst.Opcode() == op {
			n++
		}
		return true
	})
	return n
}

// ---------------------------------------------------------------------------
// InstCombine

func TestInstCombineConstantFolding(t *testing.T) {
	m := parse(t, `
int %f() {
entry:
	%a = add int 2, 3
	%b = mul int %a, 4
	%c = sub int %b, 5
	ret int %c
}
`)
	f := m.Func("f")
	NewInstCombine().RunOnFunction(f)
	mustVerify(t, m)
	ret := f.Entry().Terminator().(*core.RetInst)
	ci, ok := ret.Value().(*core.ConstantInt)
	if !ok || ci.SExt() != 15 {
		t.Fatalf("folded to %v, want 15\n%s", ret.Value(), m)
	}
	if f.NumInstructions() != 1 {
		t.Errorf("dead folded instructions remain:\n%s", m)
	}
}

func TestInstCombineIdentities(t *testing.T) {
	m := parse(t, `
int %f(int %x) {
entry:
	%a = add int %x, 0
	%b = mul int %a, 1
	%c = or int %b, 0
	%d = and int %c, -1
	ret int %d
}
`)
	f := m.Func("f")
	NewInstCombine().RunOnFunction(f)
	mustVerify(t, m)
	ret := f.Entry().Terminator().(*core.RetInst)
	if ret.Value() != core.Value(f.Args[0]) {
		t.Fatalf("identities not simplified:\n%s", m)
	}
}

func TestInstCombineXIdentities(t *testing.T) {
	m := parse(t, `
bool %f(int %x) {
entry:
	%z = sub int %x, %x
	%c = seteq int %z, 0
	ret bool %c
}
`)
	f := m.Func("f")
	NewInstCombine().RunOnFunction(f)
	mustVerify(t, m)
	ret := f.Entry().Terminator().(*core.RetInst)
	cb, ok := ret.Value().(*core.ConstantBool)
	if !ok || !cb.Val {
		t.Fatalf("x-x==0 not folded to true:\n%s", m)
	}
}

func TestInstCombineFloatSafety(t *testing.T) {
	// x * 0.0 must NOT fold (NaN), x == x must not fold for floats.
	m := parse(t, `
bool %f(double %x) {
entry:
	%m = mul double %x, 0.0
	%c = seteq double %m, %m
	ret bool %c
}
`)
	f := m.Func("f")
	NewInstCombine().RunOnFunction(f)
	mustVerify(t, m)
	if countOps(f, core.OpMul) != 1 || countOps(f, core.OpSetEQ) != 1 {
		t.Fatalf("unsafe FP folding occurred:\n%s", m)
	}
}

func TestInstCombineReassociation(t *testing.T) {
	m := parse(t, `
int %f(int %x) {
entry:
	%a = add int %x, 3
	%b = add int %a, 4
	ret int %b
}
`)
	f := m.Func("f")
	NewInstCombine().RunOnFunction(f)
	NewADCE().RunOnFunction(f)
	mustVerify(t, m)
	if countOps(f, core.OpAdd) != 1 {
		t.Fatalf("(x+3)+4 not reassociated to x+7:\n%s", m)
	}
}

func TestInstCombineCastPairs(t *testing.T) {
	m := parse(t, `
int %f(int %x) {
entry:
	%a = cast int %x to long
	%b = cast long %a to int
	ret int %b
}
`)
	f := m.Func("f")
	NewInstCombine().RunOnFunction(f)
	mustVerify(t, m)
	ret := f.Entry().Terminator().(*core.RetInst)
	if ret.Value() != core.Value(f.Args[0]) {
		t.Fatalf("lossless cast round trip not eliminated:\n%s", m)
	}
}

func TestInstCombineLossyCastPairNotFolded(t *testing.T) {
	m := parse(t, `
int %f(int %x) {
entry:
	%a = cast int %x to sbyte
	%b = cast sbyte %a to int
	ret int %b
}
`)
	f := m.Func("f")
	NewInstCombine().RunOnFunction(f)
	mustVerify(t, m)
	if countOps(f, core.OpCast) != 2 {
		t.Fatalf("lossy cast pair wrongly eliminated:\n%s", m)
	}
}

// ---------------------------------------------------------------------------
// SimplifyCFG

func TestSimplifyCFGConstantBranch(t *testing.T) {
	m := parse(t, `
int %f() {
entry:
	br bool true, label %a, label %b
a:
	ret int 1
b:
	ret int 2
}
`)
	f := m.Func("f")
	n := NewSimplifyCFG().RunOnFunction(f)
	mustVerify(t, m)
	if n == 0 || len(f.Blocks) != 1 {
		t.Fatalf("constant branch not folded (blocks=%d):\n%s", len(f.Blocks), m)
	}
	ret := f.Entry().Terminator().(*core.RetInst)
	if ret.Value().(*core.ConstantInt).SExt() != 1 {
		t.Fatal("wrong arm taken")
	}
}

func TestSimplifyCFGConstantSwitch(t *testing.T) {
	m := parse(t, `
int %f() {
entry:
	switch int 5, label %def [
		int 5, label %five
		int 6, label %six ]
five:
	ret int 50
six:
	ret int 60
def:
	ret int 0
}
`)
	f := m.Func("f")
	NewSimplifyCFG().RunOnFunction(f)
	mustVerify(t, m)
	if len(f.Blocks) != 1 {
		t.Fatalf("switch not collapsed:\n%s", m)
	}
	if f.Entry().Terminator().(*core.RetInst).Value().(*core.ConstantInt).SExt() != 50 {
		t.Fatal("wrong case taken")
	}
}

func TestSimplifyCFGMergeAndPhis(t *testing.T) {
	m := parse(t, `
int %f(bool %c) {
entry:
	br bool %c, label %a, label %b
a:
	br label %join
b:
	br label %join
join:
	%x = phi int [ 1, %a ], [ 2, %b ]
	ret int %x
}
`)
	f := m.Func("f")
	NewSimplifyCFG().RunOnFunction(f)
	mustVerify(t, m)
	// The diamond with empty arms cannot fully merge (phi needs two
	// preds), but the module must stay valid and not grow.
	if len(f.Blocks) > 4 {
		t.Fatalf("blocks grew: %d", len(f.Blocks))
	}
}

func TestSimplifyCFGUnreachable(t *testing.T) {
	m := parse(t, `
int %f() {
entry:
	ret int 0
dead1:
	%x = add int 1, 2
	br label %dead2
dead2:
	%y = add int %x, 3
	br label %dead1
}
`)
	f := m.Func("f")
	NewSimplifyCFG().RunOnFunction(f)
	mustVerify(t, m)
	if len(f.Blocks) != 1 {
		t.Fatalf("unreachable cycle not removed:\n%s", m)
	}
}

// ---------------------------------------------------------------------------
// Mem2Reg

func TestMem2RegStraightLine(t *testing.T) {
	m := parse(t, `
int %f(int %x) {
entry:
	%p = alloca int
	store int %x, int* %p
	%v = load int* %p
	%w = add int %v, 1
	store int %w, int* %p
	%r = load int* %p
	ret int %r
}
`)
	f := m.Func("f")
	n := NewMem2Reg().RunOnFunction(f)
	mustVerify(t, m)
	if n != 1 {
		t.Fatalf("promoted %d allocas, want 1", n)
	}
	if countOps(f, core.OpAlloca)+countOps(f, core.OpLoad)+countOps(f, core.OpStore) != 0 {
		t.Fatalf("memory ops remain:\n%s", m)
	}
}

func TestMem2RegPhiInsertion(t *testing.T) {
	m := parse(t, `
int %f(bool %c) {
entry:
	%p = alloca int
	br bool %c, label %a, label %b
a:
	store int 1, int* %p
	br label %join
b:
	store int 2, int* %p
	br label %join
join:
	%v = load int* %p
	ret int %v
}
`)
	f := m.Func("f")
	NewMem2Reg().RunOnFunction(f)
	mustVerify(t, m)
	if countOps(f, core.OpAlloca) != 0 {
		t.Fatalf("alloca not promoted:\n%s", m)
	}
	if countOps(f, core.OpPhi) != 1 {
		t.Fatalf("expected 1 phi, got %d:\n%s", countOps(f, core.OpPhi), m)
	}
}

func TestMem2RegLoop(t *testing.T) {
	m := parse(t, `
int %sum(int %n) {
entry:
	%i = alloca int
	%s = alloca int
	store int 0, int* %i
	store int 0, int* %s
	br label %cond
cond:
	%iv = load int* %i
	%c = setlt int %iv, %n
	br bool %c, label %body, label %done
body:
	%sv = load int* %s
	%s2 = add int %sv, %iv
	store int %s2, int* %s
	%i2 = add int %iv, 1
	store int %i2, int* %i
	br label %cond
done:
	%r = load int* %s
	ret int %r
}
`)
	f := m.Func("sum")
	n := NewMem2Reg().RunOnFunction(f)
	mustVerify(t, m)
	if n != 2 {
		t.Fatalf("promoted %d, want 2", n)
	}
	if countOps(f, core.OpPhi) != 2 {
		t.Fatalf("want 2 phis in loop header, got %d:\n%s", countOps(f, core.OpPhi), m)
	}
}

func TestMem2RegEscapedNotPromoted(t *testing.T) {
	m := parse(t, `
declare void %take(int*)

int %f() {
entry:
	%p = alloca int
	store int 1, int* %p
	call void %take(int* %p)
	%v = load int* %p
	ret int %v
}
`)
	f := m.Func("f")
	n := NewMem2Reg().RunOnFunction(f)
	mustVerify(t, m)
	if n != 0 || countOps(f, core.OpAlloca) != 1 {
		t.Fatalf("escaped alloca wrongly promoted:\n%s", m)
	}
}

func TestMem2RegUninitializedLoadGetsUndef(t *testing.T) {
	m := parse(t, `
int %f() {
entry:
	%p = alloca int
	%v = load int* %p
	ret int %v
}
`)
	f := m.Func("f")
	NewMem2Reg().RunOnFunction(f)
	mustVerify(t, m)
	ret := f.Entry().Terminator().(*core.RetInst)
	if _, ok := ret.Value().(*core.ConstantUndef); !ok {
		t.Fatalf("uninitialized load should be undef, got %T", ret.Value())
	}
}

// ---------------------------------------------------------------------------
// SROA

func TestSROAStruct(t *testing.T) {
	m := parse(t, `
int %f(int %x, int %y) {
entry:
	%pair = alloca { int, int }
	%a = getelementptr { int, int }* %pair, long 0, ubyte 0
	%b = getelementptr { int, int }* %pair, long 0, ubyte 1
	store int %x, int* %a
	store int %y, int* %b
	%va = load int* %a
	%vb = load int* %b
	%s = add int %va, %vb
	ret int %s
}
`)
	f := m.Func("f")
	n := NewSROA().RunOnFunction(f)
	mustVerify(t, m)
	if n != 1 {
		t.Fatalf("expanded %d aggregates, want 1", n)
	}
	if countOps(f, core.OpGetElementPtr) != 0 {
		t.Fatalf("GEPs remain after SROA:\n%s", m)
	}
	// Now mem2reg finishes the job.
	if NewMem2Reg().RunOnFunction(f) != 2 {
		t.Fatalf("expanded fields not promotable:\n%s", m)
	}
	mustVerify(t, m)
}

func TestSROANestedStruct(t *testing.T) {
	m := parse(t, `
int %f(int %x) {
entry:
	%o = alloca { int, { int, int } }
	%p = getelementptr { int, { int, int } }* %o, long 0, ubyte 1, ubyte 0
	store int %x, int* %p
	%v = load int* %p
	ret int %v
}
`)
	f := m.Func("f")
	total := NewSROA().RunOnFunction(f)
	mustVerify(t, m)
	if total < 2 {
		t.Fatalf("nested expansion count = %d, want >= 2:\n%s", total, m)
	}
	NewMem2Reg().RunOnFunction(f)
	NewADCE().RunOnFunction(f)
	mustVerify(t, m)
	if countOps(f, core.OpAlloca) != 0 {
		t.Fatalf("nested SROA left allocas:\n%s", m)
	}
}

func TestSROAEscapedStructNotExpanded(t *testing.T) {
	m := parse(t, `
declare void %take({ int, int }*)

void %f() {
entry:
	%pair = alloca { int, int }
	call void %take({ int, int }* %pair)
	ret void
}
`)
	f := m.Func("f")
	if n := NewSROA().RunOnFunction(f); n != 0 {
		t.Fatalf("escaped struct expanded (%d)", n)
	}
	mustVerify(t, m)
}

// ---------------------------------------------------------------------------
// ADCE

func TestADCE(t *testing.T) {
	m := parse(t, `
declare void %effect()

int %f(int %x) {
entry:
	%dead1 = add int %x, 1
	%dead2 = mul int %dead1, 2
	%live = add int %x, 5
	call void %effect()
	ret int %live
}
`)
	f := m.Func("f")
	n := NewADCE().RunOnFunction(f)
	mustVerify(t, m)
	if n != 2 {
		t.Fatalf("deleted %d, want 2:\n%s", n, m)
	}
	if countOps(f, core.OpCall) != 1 {
		t.Fatal("side-effecting call removed")
	}
}

func TestADCEDeadPhiCycle(t *testing.T) {
	m := parse(t, `
int %f(int %n) {
entry:
	br label %loop
loop:
	%dead = phi int [ 0, %entry ], [ %dead2, %loop ]
	%i = phi int [ 0, %entry ], [ %i2, %loop ]
	%dead2 = add int %dead, 1
	%i2 = add int %i, 1
	%c = setlt int %i2, %n
	br bool %c, label %loop, label %exit
exit:
	ret int %i2
}
`)
	f := m.Func("f")
	n := NewADCE().RunOnFunction(f)
	mustVerify(t, m)
	if n != 2 {
		t.Fatalf("dead phi cycle: deleted %d, want 2:\n%s", n, m)
	}
}

// ---------------------------------------------------------------------------
// SCCP

func TestSCCPThroughDeadBranch(t *testing.T) {
	// x is 5 on both executable paths; the classic SCCP win is proving it
	// despite the (never-taken) else arm assigning a different value...
	// here the condition is constant so only one arm executes.
	m := parse(t, `
int %f() {
entry:
	br bool true, label %a, label %b
a:
	br label %join
b:
	br label %join
join:
	%x = phi int [ 5, %a ], [ 99, %b ]
	%y = add int %x, 1
	ret int %y
}
`)
	f := m.Func("f")
	n := NewSCCP().RunOnFunction(f)
	mustVerify(t, m)
	if n == 0 {
		t.Fatal("SCCP found nothing")
	}
	ret := f.Blocks[len(f.Blocks)-1].Terminator().(*core.RetInst)
	ci, ok := ret.Value().(*core.ConstantInt)
	if !ok || ci.SExt() != 6 {
		t.Fatalf("SCCP did not prove 6 through dead branch:\n%s", m)
	}
}

func TestSCCPLoopInvariant(t *testing.T) {
	// A phi that always receives the same constant around a loop.
	m := parse(t, `
int %f(int %n) {
entry:
	br label %loop
loop:
	%k = phi int [ 7, %entry ], [ %k, %loop ]
	%i = phi int [ 0, %entry ], [ %i2, %loop ]
	%i2 = add int %i, %k
	%c = setlt int %i2, %n
	br bool %c, label %loop, label %exit
exit:
	ret int %k
}
`)
	f := m.Func("f")
	NewSCCP().RunOnFunction(f)
	mustVerify(t, m)
	var exitRet *core.RetInst
	f.ForEachInst(func(inst core.Instruction) bool {
		if r, ok := inst.(*core.RetInst); ok {
			exitRet = r
		}
		return true
	})
	ci, ok := exitRet.Value().(*core.ConstantInt)
	if !ok || ci.SExt() != 7 {
		t.Fatalf("loop-invariant phi not proven constant:\n%s", m)
	}
}

// ---------------------------------------------------------------------------
// CSE

func TestCSE(t *testing.T) {
	m := parse(t, `
int %f(int %a, int %b) {
entry:
	%x = add int %a, %b
	%y = add int %a, %b
	%z = add int %b, %a
	%s1 = add int %x, %y
	%s2 = add int %s1, %z
	ret int %s2
}
`)
	f := m.Func("f")
	n := NewCSE().RunOnFunction(f)
	mustVerify(t, m)
	if n != 2 {
		t.Fatalf("CSE removed %d, want 2 (incl. commuted):\n%s", n, m)
	}
}

func TestCSEAcrossDominator(t *testing.T) {
	m := parse(t, `
int %f(int %a, bool %c) {
entry:
	%x = mul int %a, %a
	br bool %c, label %t, label %e
t:
	%y = mul int %a, %a
	ret int %y
e:
	ret int %x
}
`)
	f := m.Func("f")
	if n := NewCSE().RunOnFunction(f); n != 1 {
		t.Fatalf("dominated duplicate not eliminated (%d)", n)
	}
	mustVerify(t, m)
}

func TestCSENotAcrossSiblings(t *testing.T) {
	m := parse(t, `
int %f(int %a, bool %c) {
entry:
	br bool %c, label %t, label %e
t:
	%x = mul int %a, %a
	ret int %x
e:
	%y = mul int %a, %a
	ret int %y
}
`)
	f := m.Func("f")
	if n := NewCSE().RunOnFunction(f); n != 0 {
		t.Fatalf("CSE across non-dominating siblings (%d)", n)
	}
	mustVerify(t, m)
}

func TestCSEGEP(t *testing.T) {
	m := parse(t, `
int %f(int* %p) {
entry:
	%a = getelementptr int* %p, long 1
	%b = getelementptr int* %p, long 1
	%v1 = load int* %a
	%v2 = load int* %b
	%s = add int %v1, %v2
	ret int %s
}
`)
	f := m.Func("f")
	// Two eliminations: the duplicate GEP, and then the second load —
	// its address must-aliases the first load's with no clobber between.
	if n := NewCSE().RunOnFunction(f); n != 2 {
		t.Fatalf("duplicate GEP + redundant load not eliminated (%d)", n)
	}
	mustVerify(t, m)
}

// ---------------------------------------------------------------------------
// Inline

func TestInlineSimple(t *testing.T) {
	m := parse(t, `
internal int %double(int %x) {
entry:
	%r = mul int %x, 2
	ret int %r
}

int %main(int %a) {
entry:
	%v = call int %double(int %a)
	%w = add int %v, 1
	ret int %w
}
`)
	inl := NewInline(DefaultInlineThreshold)
	inl.RunOnModule(m)
	mustVerify(t, m)
	if inl.NumInlined != 1 {
		t.Fatalf("inlined %d, want 1", inl.NumInlined)
	}
	if inl.NumDeleted != 1 {
		t.Fatalf("deleted %d, want 1 (single internal callee)", inl.NumDeleted)
	}
	if m.Func("double") != nil {
		t.Fatal("dead callee not removed")
	}
	if countOps(m.Func("main"), core.OpCall) != 0 {
		t.Fatalf("call remains:\n%s", m)
	}
}

func TestInlineMultipleReturns(t *testing.T) {
	m := parse(t, `
internal int %pick(bool %c) {
entry:
	br bool %c, label %a, label %b
a:
	ret int 10
b:
	ret int 20
}

int %main(bool %c) {
entry:
	%v = call int %pick(bool %c)
	ret int %v
}
`)
	NewInline(DefaultInlineThreshold).RunOnModule(m)
	mustVerify(t, m)
	main := m.Func("main")
	if countOps(main, core.OpCall) != 0 {
		t.Fatalf("not inlined:\n%s", m)
	}
	if countOps(main, core.OpPhi) != 1 {
		t.Fatalf("multi-return inline needs a phi:\n%s", m)
	}
}

func TestInlineSplitRetargetsPhis(t *testing.T) {
	m := parse(t, `
internal int %id(int %x) {
entry:
	ret int %x
}

int %main(bool %c, int %a) {
entry:
	%v = call int %id(int %a)
	br bool %c, label %t, label %join
t:
	br label %join
join:
	%p = phi int [ %v, %entry ], [ 0, %t ]
	ret int %p
}
`)
	NewInline(DefaultInlineThreshold).RunOnModule(m)
	mustVerify(t, m)
	if countOps(m.Func("main"), core.OpCall) != 0 {
		t.Fatalf("not inlined:\n%s", m)
	}
}

func TestInlineRecursionSkipped(t *testing.T) {
	m := parse(t, `
int %fact(int %n) {
entry:
	%c = setle int %n, 1
	br bool %c, label %base, label %rec
base:
	ret int 1
rec:
	%n1 = sub int %n, 1
	%r = call int %fact(int %n1)
	%p = mul int %n, %r
	ret int %p
}
`)
	inl := NewInline(DefaultInlineThreshold)
	inl.RunOnModule(m)
	mustVerify(t, m)
	if inl.NumInlined != 0 {
		t.Fatalf("self-recursive call inlined %d times", inl.NumInlined)
	}
}

func TestInlineUnwindPropagates(t *testing.T) {
	// Inlining a function containing unwind at a call site keeps the
	// unwind (it propagates to this frame's caller).
	m := parse(t, `
internal void %thrower() {
entry:
	unwind
}

void %wrap() {
entry:
	call void %thrower()
	ret void
}
`)
	NewInline(DefaultInlineThreshold).RunOnModule(m)
	mustVerify(t, m)
	if countOps(m.Func("wrap"), core.OpUnwind) != 1 {
		t.Fatalf("unwind lost in inlining:\n%s", m)
	}
}

func TestInlineKeepsCalleeReferencedFromInitializer(t *testing.T) {
	// %twice has one direct call, but the table's initializer also names
	// it, and initializer references are not in use lists: its body must
	// be copied, not moved, or the indirect call would reach an empty
	// function.
	src := `
%table = global [1 x int (int)*] [ int (int)* %twice ]

internal int %twice(int %x) {
entry:
	%r = mul int %x, 2
	ret int %r
}

int %main() {
entry:
	%a = call int %twice(int 5)
	%p = getelementptr [1 x int (int)*]* %table, long 0, long 0
	%fp = load int (int)** %p
	%b = call int %fp(int 20)
	%s = add int %a, %b
	ret int %s
}
`
	m := parse(t, src)
	inl := NewInline(DefaultInlineThreshold)
	inl.RunOnModule(m)
	mustVerify(t, m)
	if inl.NumInlined != 1 || inl.NumMoved != 0 || inl.NumDeleted != 0 {
		t.Fatalf("inlined %d, moved %d, deleted %d; want 1, 0, 0\n%s",
			inl.NumInlined, inl.NumMoved, inl.NumDeleted, m)
	}
	if f := m.Func("twice"); f == nil || f.IsDeclaration() {
		t.Fatalf("callee named by an initializer lost its body:\n%s", m)
	}
	want := parse(t, src)
	for _, mod := range []*core.Module{want, m} {
		mc, err := interp.NewMachine(mod, nil)
		if err != nil {
			t.Fatal(err)
		}
		mc.SetTier(interp.TierInterp)
		if v, err := mc.RunMain(); err != nil || v != 50 {
			t.Fatalf("main = %d, %v; want 50\n%s", v, err, mod)
		}
	}
}

func TestInlineCopiesCalleeVisitedAfterCaller(t *testing.T) {
	// The post-order visits the cycle odd -> even -> odd top-down: odd
	// first, then even. Integrating even into odd must copy it, because
	// even's own visit still inlines %helper into its original body; a
	// move would skip that integration and change the counts.
	m := parse(t, `
internal int %helper(int %x) {
entry:
	%r = add int %x, 1
	ret int %r
}

internal int %even(int %n) {
entry:
	%c = seteq int %n, 0
	br bool %c, label %yes, label %rec
yes:
	%h = call int %helper(int 0)
	ret int %h
rec:
	%n1 = sub int %n, 1
	%r = call int %odd(int %n1)
	ret int %r
}

internal int %odd(int %n) {
entry:
	%c = seteq int %n, 0
	br bool %c, label %no, label %rec
no:
	ret int 0
rec:
	%n1 = sub int %n, 1
	%r = call int %even(int %n1)
	ret int %r
}

int %main() {
entry:
	%r = call int %odd(int 7)
	ret int %r
}
`)
	inl := NewInline(DefaultInlineThreshold)
	inl.RunOnModule(m)
	mustVerify(t, m)
	// even into odd (copy), helper into odd (copy: the original even
	// still calls it), helper into even (move: its last caller).
	if inl.NumInlined != 3 || inl.NumMoved != 1 || inl.NumDeleted != 2 {
		t.Fatalf("inlined %d, moved %d, deleted %d; want 3, 1, 2\n%s",
			inl.NumInlined, inl.NumMoved, inl.NumDeleted, m)
	}
	mc, err := interp.NewMachine(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := mc.RunMain(); err != nil || v != 1 {
		t.Fatalf("main = %d, %v; want 1\n%s", v, err, m)
	}
}

func TestInlineMovesDeadCalleeBody(t *testing.T) {
	m := parse(t, `
internal int %pick(bool %c) {
entry:
	br bool %c, label %a, label %b
a:
	ret int 10
b:
	ret int 20
}

int %main(bool %c) {
entry:
	%v = call int %pick(bool %c)
	ret int %v
}
`)
	pick := m.Func("pick")
	orig := append([]*core.BasicBlock(nil), pick.Blocks...)
	size := pick.NumInstructions()
	inl := NewInline(DefaultInlineThreshold)
	rem := obs.NewRemarks()
	inl.setRemarks(rem)
	inl.RunOnModule(m)
	mustVerify(t, m)
	if inl.NumInlined != 1 || inl.NumMoved != 1 || inl.NumDeleted != 1 {
		t.Fatalf("inlined %d, moved %d, deleted %d; want 1, 1, 1",
			inl.NumInlined, inl.NumMoved, inl.NumDeleted)
	}
	main := m.Func("main")
	for _, b := range orig {
		if b.Parent() != main || !slices.Contains(main.Blocks, b) {
			t.Fatalf("block %%%s of the callee was not moved into main:\n%s", b.Name(), m)
		}
	}
	if m.Func("pick") != nil || slices.Contains(m.Funcs, pick) {
		t.Fatal("moved callee left in the module")
	}
	want := fmt.Sprintf("inlined call to %%pick (%d instructions)", size)
	var applied []string
	for _, r := range rem.Sorted() {
		if r.Status == "applied" {
			applied = append(applied, r.Msg)
		}
	}
	if len(applied) != 1 || applied[0] != want {
		t.Fatalf("applied remarks %q, want [%q]", applied, want)
	}
}

// ---------------------------------------------------------------------------
// DGE

func TestDeadGlobalElim(t *testing.T) {
	m := parse(t, `
%live = global int 1
%deadvar = internal global int 2
%cycleA = internal global int* cast (int** %cycleB to int*)
%cycleB = internal global int* cast (int** %cycleA to int*)

internal void %deadfn() {
entry:
	call void %deadhelper()
	ret void
}
internal void %deadhelper() {
entry:
	call void %deadfn()
	ret void
}

void %main() {
entry:
	%v = load int* %live
	ret void
}
`)
	dge := NewDeadGlobalElim()
	dge.RunOnModule(m)
	mustVerify(t, m)
	if dge.NumFuncs != 2 {
		t.Errorf("deleted %d functions, want 2 (dead cycle)", dge.NumFuncs)
	}
	if dge.NumGlobals != 3 {
		t.Errorf("deleted %d globals, want 3 (deadvar + pointer cycle)", dge.NumGlobals)
	}
	if m.Global("live") == nil || m.Func("main") == nil {
		t.Error("live objects deleted")
	}
}

func TestDGEKeepsInitializerReferences(t *testing.T) {
	m := parse(t, `
%table = global [1 x void ()*] [ void ()* %used ]

internal void %used() {
entry:
	ret void
}
`)
	NewDeadGlobalElim().RunOnModule(m)
	mustVerify(t, m)
	if m.Func("used") == nil {
		t.Fatal("function referenced from live initializer deleted")
	}
}

// ---------------------------------------------------------------------------
// DAE

func TestDeadArgElim(t *testing.T) {
	m := parse(t, `
internal int %callee(int %used, int %unused) {
entry:
	%r = add int %used, 1
	ret int %r
}

void %main() {
entry:
	%x = call int %callee(int 1, int 2)
	ret void
}
`)
	dae := NewDeadArgElim()
	dae.RunOnModule(m)
	mustVerify(t, m)
	if dae.NumArgs != 1 {
		t.Errorf("removed %d args, want 1", dae.NumArgs)
	}
	if dae.NumRets != 1 {
		t.Errorf("removed %d rets, want 1 (result unused)", dae.NumRets)
	}
	callee := m.Func("callee")
	if callee == nil {
		t.Fatal("callee lost")
	}
	if len(callee.Args) != 1 || callee.Sig.Ret != core.VoidType {
		t.Fatalf("signature not rewritten: %s", callee.Sig)
	}
	// Call site rewritten.
	main := m.Func("main")
	var call *core.CallInst
	main.ForEachInst(func(inst core.Instruction) bool {
		if c, ok := inst.(*core.CallInst); ok {
			call = c
		}
		return true
	})
	if call == nil || len(call.Args()) != 1 {
		t.Fatalf("call site not rewritten:\n%s", m)
	}
}

func TestDAESkipsExternalAndAddressTaken(t *testing.T) {
	m := parse(t, `
%fp = global int (int)* %taken

internal int %taken(int %unused) {
entry:
	ret int 0
}

int %exported(int %unused) {
entry:
	ret int 0
}
`)
	dae := NewDeadArgElim()
	dae.RunOnModule(m)
	mustVerify(t, m)
	if dae.NumArgs != 0 {
		t.Fatalf("DAE modified external/address-taken functions (%d)", dae.NumArgs)
	}
}

// ---------------------------------------------------------------------------
// IPCP

func TestIPConstProp(t *testing.T) {
	m := parse(t, `
internal int %f(int %k) {
entry:
	%r = mul int %k, 2
	ret int %r
}

int %main() {
entry:
	%a = call int %f(int 21)
	%b = call int %f(int 21)
	%s = add int %a, %b
	ret int %s
}
`)
	n := NewIPConstProp().RunOnModule(m)
	mustVerify(t, m)
	if n != 1 {
		t.Fatalf("IPCP propagated %d args, want 1", n)
	}
	// After scalar clean-up, f should just return 42.
	NewInstCombine().RunOnFunction(m.Func("f"))
	ret := m.Func("f").Entry().Terminator().(*core.RetInst)
	if ci, ok := ret.Value().(*core.ConstantInt); !ok || ci.SExt() != 42 {
		t.Fatalf("constant not propagated into callee:\n%s", m)
	}
}

func TestIPCPDifferentConstantsNotPropagated(t *testing.T) {
	m := parse(t, `
internal int %f(int %k) {
entry:
	ret int %k
}

int %main() {
entry:
	%a = call int %f(int 1)
	%b = call int %f(int 2)
	%s = add int %a, %b
	ret int %s
}
`)
	if n := NewIPConstProp().RunOnModule(m); n != 0 {
		t.Fatalf("IPCP propagated differing constants (%d)", n)
	}
	mustVerify(t, m)
}

// ---------------------------------------------------------------------------
// Dead type elimination

func TestDeadTypeElim(t *testing.T) {
	m := parse(t, `
%used = type { int, int }
%unused = type { double, double }

void %f(%used* %p) {
entry:
	ret void
}
`)
	n := NewDeadTypeElim().RunOnModule(m)
	mustVerify(t, m)
	if n != 1 {
		t.Fatalf("removed %d types, want 1", n)
	}
	if _, ok := m.NamedType("used"); !ok {
		t.Fatal("used type removed")
	}
	if _, ok := m.NamedType("unused"); ok {
		t.Fatal("unused type kept")
	}
}

// ---------------------------------------------------------------------------
// PruneEH

func TestPruneEH(t *testing.T) {
	m := parse(t, `
internal void %cannotThrow() {
entry:
	ret void
}

internal void %canThrow() {
entry:
	unwind
}

void %main() {
entry:
	invoke void %cannotThrow() to label %ok1 unwind to label %ex
ok1:
	invoke void %canThrow() to label %ok2 unwind to label %ex
ok2:
	ret void
ex:
	ret void
}
`)
	n := NewPruneEH().RunOnModule(m)
	mustVerify(t, m)
	if n != 1 {
		t.Fatalf("pruned %d invokes, want 1:\n%s", n, m)
	}
	main := m.Func("main")
	if countOps(main, core.OpInvoke) != 1 || countOps(main, core.OpCall) != 1 {
		t.Fatalf("wrong invoke converted:\n%s", m)
	}
}

// ---------------------------------------------------------------------------
// Internalize + full pipelines

func TestInternalize(t *testing.T) {
	m := parse(t, `
%g = global int 0

void %helper() {
entry:
	ret void
}

void %main() {
entry:
	ret void
}
`)
	n := NewInternalize().RunOnModule(m)
	mustVerify(t, m)
	if n != 2 {
		t.Fatalf("internalized %d, want 2", n)
	}
	if m.Func("main").Linkage != core.ExternalLinkage {
		t.Fatal("main must stay external")
	}
	if m.Func("helper").Linkage != core.InternalLinkage || m.Global("g").Linkage != core.InternalLinkage {
		t.Fatal("helper/g not internalized")
	}
}

func TestStandardPipelineEndToEnd(t *testing.T) {
	// Front-end style code: locals on the stack, redundant loads, a
	// constant-foldable branch. The standard pipeline should reduce it to
	// a tight loop in pure SSA.
	m := parse(t, `
int %compute(int %n) {
entry:
	%i = alloca int
	%acc = alloca int
	store int 0, int* %i
	store int 0, int* %acc
	%flag = seteq int 1, 1
	br bool %flag, label %loop, label %never
never:
	store int 999, int* %acc
	br label %loop
loop:
	%iv = load int* %i
	%c = setlt int %iv, %n
	br bool %c, label %body, label %exit
body:
	%av = load int* %acc
	%t1 = mul int %iv, 2
	%t2 = mul int %iv, 2
	%sum = add int %t1, %t2
	%acc2 = add int %av, %sum
	store int %acc2, int* %acc
	%i2 = add int %iv, 1
	store int %i2, int* %i
	br label %loop
exit:
	%r = load int* %acc
	ret int %r
}
`)
	pm := NewPassManager()
	pm.VerifyEach = true
	pm.AddStandardPipeline()
	if _, err := pm.Run(m); err != nil {
		t.Fatal(err)
	}
	f := m.Func("compute")
	if countOps(f, core.OpAlloca)+countOps(f, core.OpLoad)+countOps(f, core.OpStore) != 0 {
		t.Errorf("memory traffic remains:\n%s", m)
	}
	if countOps(f, core.OpMul) > 1 {
		t.Errorf("CSE missed duplicate mul:\n%s", m)
	}
	for _, b := range f.Blocks {
		if b.Name() == "never" {
			t.Errorf("dead block not removed:\n%s", m)
		}
	}
}

func TestLinkTimePipelineEndToEnd(t *testing.T) {
	m := parse(t, `
%deadglobal = internal global int 7

internal int %square(int %x) {
entry:
	%r = mul int %x, %x
	ret int %r
}

internal int %deadfn(int %x) {
entry:
	ret int %x
}

internal void %nothrow() {
entry:
	ret void
}

int %main() {
entry:
	invoke void %nothrow() to label %ok unwind to label %ex
ok:
	%v = call int %square(int 6)
	ret int %v
ex:
	ret int -1
}
`)
	pm := NewPassManager()
	pm.VerifyEach = true
	pm.AddLinkTimePipeline()
	if _, err := pm.Run(m); err != nil {
		t.Fatal(err)
	}
	if m.Func("deadfn") != nil || m.Global("deadglobal") != nil {
		t.Errorf("dead objects survive link-time pipeline:\n%s", m)
	}
	main := m.Func("main")
	if countOps(main, core.OpInvoke) != 0 {
		t.Errorf("invoke of nothrow function not pruned:\n%s", m)
	}
	// square(6) should be fully evaluated after inlining + folding.
	ret := main.Entry().Terminator()
	if r, ok := ret.(*core.RetInst); ok {
		if ci, ok := r.Value().(*core.ConstantInt); !ok || ci.SExt() != 36 {
			t.Errorf("main does not return 36:\n%s", m)
		}
	} else {
		t.Errorf("main entry does not end in ret:\n%s", m)
	}
}

func TestPassManagerVerifyCatchesCorruption(t *testing.T) {
	m := parse(t, `
int %f() {
entry:
	ret int 1
}
`)
	pm := NewPassManager()
	pm.VerifyEach = true
	pm.Add(&corruptingPass{})
	if _, err := pm.Run(m); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("verifier did not catch corruption: %v", err)
	}
}

type corruptingPass struct{}

func (*corruptingPass) Name() string { return "corrupt" }
func (*corruptingPass) RunOnModule(m *core.Module) int {
	f := m.Funcs[0]
	bad := core.NewBinary(core.OpAdd, core.NewInt(core.IntType, 1), core.NewInt(core.LongType, 2))
	f.Entry().InsertAt(0, bad)
	return 1
}

func TestSROADoesNotExpandEscapingElementPointer(t *testing.T) {
	// Regression: the decayed pointer &a[0] escapes into a call that
	// indexes past element 0; expansion would miscompile.
	m := parse(t, `
declare int %sum(int*, int)

int %f() {
entry:
	%a = alloca [4 x int]
	%p0 = getelementptr [4 x int]* %a, long 0, long 0
	store int 1, int* %p0
	%decay = getelementptr [4 x int]* %a, long 0, long 0
	%r = call int %sum(int* %decay, int 4)
	ret int %r
}
`)
	f := m.Func("f")
	if n := NewSROA().RunOnFunction(f); n != 0 {
		t.Fatalf("SROA expanded an escaping array (%d)", n)
	}
	mustVerify(t, m)
	if countOps(f, core.OpAlloca) != 1 {
		t.Fatal("array alloca should survive")
	}
}

func TestSROAStoredAddressNotExpanded(t *testing.T) {
	m := parse(t, `
%holder = global int* null

void %f() {
entry:
	%a = alloca [2 x int]
	%p = getelementptr [2 x int]* %a, long 0, long 1
	store int* %p, int** %holder
	ret void
}
`)
	f := m.Func("f")
	if n := NewSROA().RunOnFunction(f); n != 0 {
		t.Fatalf("SROA expanded despite stored element address (%d)", n)
	}
	mustVerify(t, m)
}

// ---------------------------------------------------------------------------
// GlobalLoadElim (Mod/Ref-driven)

func TestGlobalLoadElimAcrossPureCall(t *testing.T) {
	m := parse(t, `
%counter = global int 0

internal int %pure(int %x) {
entry:
	%y = add int %x, 1
	ret int %y
}

int %main() {
entry:
	%a = load int* %counter
	%r = call int %pure(int %a)
	%b = load int* %counter
	%s = add int %r, %b
	ret int %s
}
`)
	n := NewGlobalLoadElim().RunOnModule(m)
	mustVerify(t, m)
	if n != 1 {
		t.Fatalf("eliminated %d loads, want 1:\n%s", n, m)
	}
	if countOps(m.Func("main"), core.OpLoad) != 1 {
		t.Fatalf("redundant load across pure call survives:\n%s", m)
	}
}

func TestGlobalLoadElimBlockedByWriter(t *testing.T) {
	m := parse(t, `
%counter = global int 0

internal void %bump() {
entry:
	%v = load int* %counter
	%v2 = add int %v, 1
	store int %v2, int* %counter
	ret void
}

int %main() {
entry:
	%a = load int* %counter
	call void %bump()
	%b = load int* %counter
	%s = add int %a, %b
	ret int %s
}
`)
	n := NewGlobalLoadElim().RunOnModule(m)
	mustVerify(t, m)
	if countOps(m.Func("main"), core.OpLoad) != 2 {
		t.Fatalf("load across modifying call wrongly removed (n=%d):\n%s", n, m)
	}
}

func TestGlobalLoadElimStoreForwarding(t *testing.T) {
	m := parse(t, `
%g = global int 0

int %main(int %x) {
entry:
	store int %x, int* %g
	%v = load int* %g
	ret int %v
}
`)
	NewGlobalLoadElim().RunOnModule(m)
	mustVerify(t, m)
	if countOps(m.Func("main"), core.OpLoad) != 0 {
		t.Fatalf("store-to-load not forwarded:\n%s", m)
	}
}

func TestGlobalLoadElimUnknownStoreInvalidates(t *testing.T) {
	m := parse(t, `
%g = global int 7

int %main(int* %p) {
entry:
	%a = load int* %g
	store int 0, int* %p
	%b = load int* %g
	%s = add int %a, %b
	ret int %s
}
`)
	NewGlobalLoadElim().RunOnModule(m)
	mustVerify(t, m)
	if countOps(m.Func("main"), core.OpLoad) != 2 {
		t.Fatalf("load across aliasing store wrongly removed:\n%s", m)
	}
}

func TestGlobalLoadElimConstGlobalSurvivesCalls(t *testing.T) {
	m := parse(t, `
%table = constant int 42
declare void %anything()

int %main() {
entry:
	%a = load int* %table
	call void %anything()
	%b = load int* %table
	%s = add int %a, %b
	ret int %s
}
`)
	NewGlobalLoadElim().RunOnModule(m)
	mustVerify(t, m)
	if countOps(m.Func("main"), core.OpLoad) != 1 {
		t.Fatalf("constant global reload not eliminated:\n%s", m)
	}
}

// ---------------------------------------------------------------------------
// InlineInvoke (§2.4: unwinds become direct branches under inlining)

func TestInlineInvokeTurnsUnwindIntoBranch(t *testing.T) {
	m := parse(t, `
internal int %mayThrow(bool %t) {
entry:
	br bool %t, label %bad, label %good
bad:
	unwind
good:
	ret int 7
}

int %main(bool %t) {
entry:
	%v = invoke int %mayThrow(bool %t) to label %ok unwind to label %handler
ok:
	ret int %v
handler:
	ret int -1
}
`)
	main := m.Func("main")
	inv := main.Entry().Terminator().(*core.InvokeInst)
	if !InlineInvoke(inv) {
		t.Fatal("InlineInvoke refused an eligible site")
	}
	mustVerify(t, m)
	// The unwind is gone from the inlined body: it became a branch.
	if countOps(main, core.OpUnwind) != 0 {
		t.Fatalf("unwind not converted to a branch:\n%s", m)
	}
	if countOps(main, core.OpInvoke) != 0 {
		t.Fatalf("invoke remains:\n%s", m)
	}
}

func TestInlineInvokeSemantics(t *testing.T) {
	src := `
internal int %mayThrow(bool %t) {
entry:
	br bool %t, label %bad, label %good
bad:
	unwind
good:
	ret int 7
}

int %main(bool %t) {
entry:
	%v = invoke int %mayThrow(bool %t) to label %ok unwind to label %handler
ok:
	ret int %v
handler:
	ret int -1
}
`
	m1 := parse(t, src)
	m2 := parse(t, src)
	InlineInvoke(m2.Func("main").Entry().Terminator().(*core.InvokeInst))
	mustVerify(t, m2)
	for _, arg := range []uint64{0, 1} {
		mc1, _ := interp.NewMachine(m1, nil)
		mc2, _ := interp.NewMachine(m2, nil)
		v1, e1 := mc1.RunFunction(m1.Func("main"), arg)
		v2, e2 := mc2.RunFunction(m2.Func("main"), arg)
		if e1 != nil || e2 != nil || v1 != v2 {
			t.Fatalf("arg %d: %d/%v vs %d/%v", arg, v1, e1, v2, e2)
		}
	}
}

func TestInlineInvokeRoutesInnerCalls(t *testing.T) {
	// The inlinee calls another function that unwinds: after inlining at
	// an invoke site, the inner call must become an invoke targeting the
	// handler, preserving catch semantics.
	src := `
internal void %deep() {
entry:
	unwind
}

internal int %wrapper() {
entry:
	call void %deep()
	ret int 1
}

int %main() {
entry:
	%v = invoke int %wrapper() to label %ok unwind to label %handler
ok:
	ret int %v
handler:
	ret int 99
}
`
	m1 := parse(t, src)
	m2 := parse(t, src)
	if !InlineInvoke(m2.Func("main").Entry().Terminator().(*core.InvokeInst)) {
		t.Fatal("refused")
	}
	mustVerify(t, m2)
	mc1, _ := interp.NewMachine(m1, nil)
	mc2, _ := interp.NewMachine(m2, nil)
	v1, _ := mc1.RunMain()
	v2, _ := mc2.RunMain()
	if v1 != v2 || v1 != 99 {
		t.Fatalf("catch semantics broken: %d vs %d", v1, v2)
	}
}

func TestInlinePassHandlesInvokeSites(t *testing.T) {
	m := parse(t, `
internal int %small(int %x) {
entry:
	%r = add int %x, 1
	ret int %r
}

int %main() {
entry:
	%v = invoke int %small(int 41) to label %ok unwind to label %handler
ok:
	ret int %v
handler:
	ret int -1
}
`)
	inl := NewInline(DefaultInlineThreshold)
	inl.RunOnModule(m)
	mustVerify(t, m)
	if inl.NumInlined == 0 {
		t.Fatalf("inline pass skipped the invoke site:\n%s", m)
	}
	// After cleanup the answer folds to 42.
	pm := NewPassManager()
	pm.AddStandardPipeline()
	pm.Run(m)
	mc, _ := interp.NewMachine(m, nil)
	if v, err := mc.RunMain(); err != nil || v != 42 {
		t.Fatalf("result %d, %v:\n%s", v, err, m)
	}
}

// ---------------------------------------------------------------------------
// LICM

func TestLICMHoistsInvariantArithmetic(t *testing.T) {
	m := parse(t, `
int %f(int %a, int %b, int %n) {
entry:
	br label %loop
loop:
	%i = phi int [ 0, %entry ], [ %i2, %loop ]
	%acc = phi int [ 0, %entry ], [ %acc2, %loop ]
	%inv = mul int %a, %b
	%acc2 = add int %acc, %inv
	%i2 = add int %i, 1
	%c = setlt int %i2, %n
	br bool %c, label %loop, label %exit
exit:
	ret int %acc2
}
`)
	f := m.Func("f")
	n := NewLICM().RunOnFunction(f)
	mustVerify(t, m)
	if n != 1 {
		t.Fatalf("hoisted %d, want 1:\n%s", n, m)
	}
	// The mul now lives in the preheader (entry).
	found := false
	for _, inst := range f.Entry().Instrs {
		if inst.Opcode() == core.OpMul {
			found = true
		}
	}
	if !found {
		t.Fatalf("invariant mul not in preheader:\n%s", m)
	}
}

func TestLICMDoesNotSpeculateDivision(t *testing.T) {
	m := parse(t, `
int %f(int %a, int %b, int %n) {
entry:
	br label %loop
loop:
	%i = phi int [ 0, %entry ], [ %i2, %latch ]
	%c0 = setne int %b, 0
	br bool %c0, label %divblk, label %latch
divblk:
	%q = div int %a, %b
	br label %latch
latch:
	%i2 = add int %i, 1
	%c = setlt int %i2, %n
	br bool %c, label %loop, label %exit
exit:
	ret int %i2
}
`)
	f := m.Func("f")
	NewLICM().RunOnFunction(f)
	mustVerify(t, m)
	// The div is guarded by b != 0 inside the loop; hoisting it to the
	// preheader would trap when b == 0 and the loop body guards it.
	for _, inst := range f.Entry().Instrs {
		if inst.Opcode() == core.OpDiv {
			t.Fatalf("division speculated out of its guard:\n%s", m)
		}
	}
	// Semantics: b == 0 must not trap.
	mc, _ := interp.NewMachine(m, nil)
	if _, err := mc.RunFunction(f, 10, 0, 3); err != nil {
		t.Fatalf("hoisting introduced a trap: %v", err)
	}
}

func TestLICMChainsAndNestedLoops(t *testing.T) {
	m := parse(t, `
int %f(int %a, int %n) {
entry:
	br label %outer
outer:
	%i = phi int [ 0, %entry ], [ %i2, %outer.latch ]
	br label %inner
inner:
	%j = phi int [ 0, %outer ], [ %j2, %inner ]
	%t1 = mul int %a, 3
	%t2 = add int %t1, 7
	%j2 = add int %j, %t2
	%jc = setlt int %j2, %n
	br bool %jc, label %inner, label %outer.latch
outer.latch:
	%i2 = add int %i, 1
	%ic = setlt int %i2, %n
	br bool %ic, label %outer, label %exit
exit:
	ret int %i2
}
`)
	f := m.Func("f")
	n := NewLICM().RunOnFunction(f)
	mustVerify(t, m)
	if n < 2 {
		t.Fatalf("chained invariants not both hoisted (%d):\n%s", n, m)
	}
	// Both land all the way in entry (out of both loops).
	muls, adds := 0, 0
	for _, inst := range f.Entry().Instrs {
		switch inst.Opcode() {
		case core.OpMul:
			muls++
		case core.OpAdd:
			adds++
		}
	}
	if muls != 1 || adds != 1 {
		t.Fatalf("invariants stopped short of the outermost preheader:\n%s", m)
	}
}

func TestLICMSemanticsPreserved(t *testing.T) {
	src := `
int %f(int %a, int %b, int %n) {
entry:
	br label %loop
loop:
	%i = phi int [ 0, %entry ], [ %i2, %loop ]
	%acc = phi int [ 0, %entry ], [ %acc2, %loop ]
	%inv = mul int %a, %b
	%vv = add int %inv, %i
	%acc2 = add int %acc, %vv
	%i2 = add int %i, 1
	%c = setlt int %i2, %n
	br bool %c, label %loop, label %exit
exit:
	ret int %acc2
}
`
	m1 := parse(t, src)
	m2 := parse(t, src)
	NewLICM().RunOnFunction(m2.Func("f"))
	mustVerify(t, m2)
	for _, args := range [][]uint64{{3, 4, 10}, {0, 0, 1}, {7, 9, 100}} {
		mc1, _ := interp.NewMachine(m1, nil)
		mc2, _ := interp.NewMachine(m2, nil)
		v1, _ := mc1.RunFunction(m1.Func("f"), args...)
		v2, _ := mc2.RunFunction(m2.Func("f"), args...)
		if v1 != v2 {
			t.Fatalf("LICM changed result for %v: %d vs %d", args, v1, v2)
		}
		if args[2] > 1 && mc2.Steps >= mc1.Steps {
			t.Errorf("LICM did not reduce work for %v: %d vs %d", args, mc2.Steps, mc1.Steps)
		}
	}
}

// ---------------------------------------------------------------------------
// FieldReorder (§3.3 / §4.1.1)

func TestFieldReorderShrinksPaddedStruct(t *testing.T) {
	// { sbyte, double, sbyte } is 24 bytes; reordered to
	// { double, sbyte, sbyte } it is 16.
	src := `
%padded = type { sbyte, double, sbyte }

int %main() {
	;
entry:
	%p = malloc %padded
	%a = getelementptr %padded* %p, long 0, ubyte 0
	store sbyte 1, sbyte* %a
	%b = getelementptr %padded* %p, long 0, ubyte 1
	store double 2.5, double* %b
	%c = getelementptr %padded* %p, long 0, ubyte 2
	store sbyte 3, sbyte* %c
	%v1 = load sbyte* %a
	%v2 = load double* %b
	%v3 = load sbyte* %c
	%i1 = cast sbyte %v1 to int
	%i2 = cast double %v2 to int
	%i3 = cast sbyte %v3 to int
	%s1 = add int %i1, %i2
	%s2 = add int %s1, %i3
	free %padded* %p
	ret int %s2
}
`
	m1 := parse(t, src)
	m2 := parse(t, src)
	fr := NewFieldReorder()
	fr.RunOnModule(m2)
	mustVerify(t, m2)
	if fr.Reordered != 1 {
		t.Fatalf("reordered %d types, want 1:\n%s", fr.Reordered, m2)
	}
	pt, _ := m2.NamedType("padded")
	if got := core.SizeOf(pt); got != 16 {
		t.Fatalf("reordered size = %d, want 16", got)
	}
	if fr.BytesSaved != 8 {
		t.Fatalf("BytesSaved = %d, want 8", fr.BytesSaved)
	}
	// Semantics identical.
	mc1, _ := interp.NewMachine(m1, nil)
	mc2, _ := interp.NewMachine(m2, nil)
	v1, e1 := mc1.RunMain()
	v2, e2 := mc2.RunMain()
	if e1 != nil || e2 != nil || v1 != v2 {
		t.Fatalf("reordering changed behavior: %d/%v vs %d/%v", v1, e1, v2, e2)
	}
}

func TestFieldReorderSkipsPunnedStruct(t *testing.T) {
	// The struct is viewed through an incompatible cast: DSA flags it and
	// the layout must not change.
	m := parse(t, `
%padded = type { sbyte, double, sbyte }
%other = type { long, long }

int %main() {
entry:
	%p = malloc %padded
	%alias = cast %padded* %p to %other*
	%f = getelementptr %other* %alias, long 0, ubyte 0
	store long 1, long* %f
	ret int 0
}
`)
	fr := NewFieldReorder()
	fr.RunOnModule(m)
	mustVerify(t, m)
	if fr.Reordered != 0 {
		t.Fatalf("punned struct reordered (%d)", fr.Reordered)
	}
	pt, _ := m.NamedType("padded")
	if core.SizeOf(pt) != 24 {
		t.Fatal("layout changed despite punning")
	}
}

// TestFieldReorderKeepsLiteralStructs: a name may stand for a literal
// struct type (a bytecode image can register one). Literal types are
// shared by every module of the process, so field reordering must leave
// them alone.
func TestFieldReorderKeepsLiteralStructs(t *testing.T) {
	m := parse(t, `
int %main() {
entry:
	%p = malloc { sbyte, double, sbyte }
	%b = getelementptr { sbyte, double, sbyte }* %p, long 0, ubyte 1
	store double 2.5, double* %b
	ret int 0
}
`)
	lit := core.NewStruct(core.SByteType, core.DoubleType, core.SByteType)
	m.AddTypeName("lit", lit)
	fr := NewFieldReorder()
	fr.RunOnModule(m)
	mustVerify(t, m)
	if fr.Reordered != 0 || lit.Fields[1] != core.DoubleType {
		t.Fatalf("a literal struct was reordered (%d): %s", fr.Reordered, lit.LiteralString())
	}
}

func TestFieldReorderRewritesConstants(t *testing.T) {
	m := parse(t, `
%padded = type { sbyte, double, sbyte }
%g = global %padded { sbyte 1, double 2.5, sbyte 3 }

int %main() {
entry:
	%b = getelementptr %padded* %g, long 0, ubyte 1
	%v = load double* %b
	%i = cast double %v to int
	ret int %i
}
`)
	fr := NewFieldReorder()
	fr.RunOnModule(m)
	mustVerify(t, m)
	if fr.Reordered != 1 {
		t.Fatalf("not reordered:\n%s", m)
	}
	mc, _ := interp.NewMachine(m, nil)
	v, err := mc.RunMain()
	if err != nil || v != 2 {
		t.Fatalf("global initializer not permuted: %d, %v\n%s", v, err, m)
	}
}

func TestFieldReorderNestedAndArrays(t *testing.T) {
	src := `
%inner = type { sbyte, long, sbyte }
%outer = type { int, [2 x %inner] }

int %main() {
entry:
	%p = malloc %outer
	%q = getelementptr %outer* %p, long 0, ubyte 1, long 1, ubyte 1
	store long 77, long* %q
	%v = load long* %q
	%i = cast long %v to int
	free %outer* %p
	ret int %i
}
`
	m1 := parse(t, src)
	m2 := parse(t, src)
	fr := NewFieldReorder()
	fr.RunOnModule(m2)
	mustVerify(t, m2)
	if fr.Reordered == 0 {
		t.Fatalf("nested struct not reordered:\n%s", m2)
	}
	mc1, _ := interp.NewMachine(m1, nil)
	mc2, _ := interp.NewMachine(m2, nil)
	v1, _ := mc1.RunMain()
	v2, _ := mc2.RunMain()
	if v1 != v2 || v1 != 77 {
		t.Fatalf("nested reorder broke access: %d vs %d", v1, v2)
	}
}
