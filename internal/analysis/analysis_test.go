package analysis

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
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

func block(f *core.Function, name string) *core.BasicBlock {
	for _, b := range f.Blocks {
		if b.Name() == name {
			return b
		}
	}
	return nil
}

const diamondSrc = `
int %f(bool %c) {
entry:
	br bool %c, label %then, label %else
then:
	br label %join
else:
	br label %join
join:
	%x = phi int [ 1, %then ], [ 2, %else ]
	ret int %x
}
`

func TestDomTreeDiamond(t *testing.T) {
	m := parse(t, diamondSrc)
	f := m.Func("f")
	dt := NewDomTree(f)
	entry, then, els, join := block(f, "entry"), block(f, "then"), block(f, "else"), block(f, "join")

	if dt.Idom(entry) != nil {
		t.Error("entry should have no idom")
	}
	if dt.Idom(then) != entry || dt.Idom(els) != entry || dt.Idom(join) != entry {
		t.Error("idoms wrong in diamond")
	}
	if !dt.Dominates(entry, join) || dt.Dominates(then, join) {
		t.Error("dominance wrong")
	}
	if !dt.Dominates(join, join) {
		t.Error("block must dominate itself")
	}
	df := NewDomFrontier(dt)
	if len(df[then]) != 1 || df[then][0] != join {
		t.Errorf("DF(then) = %v", df[then])
	}
	if len(df[entry]) != 0 {
		t.Errorf("DF(entry) = %v", df[entry])
	}
}

func TestDomTreeUnreachable(t *testing.T) {
	m := parse(t, `
void %f() {
entry:
	ret void
dead:
	br label %dead2
dead2:
	br label %dead
}
`)
	f := m.Func("f")
	dt := NewDomTree(f)
	if dt.Reachable(block(f, "dead")) {
		t.Error("dead block reported reachable")
	}
	if dt.Dominates(block(f, "dead"), block(f, "entry")) {
		t.Error("unreachable block dominates entry")
	}
	if len(dt.RPO()) != 1 {
		t.Error("RPO should contain only entry")
	}
}

const nestedLoopSrc = `
int %nest(int %n) {
entry:
	br label %outer
outer:
	%i = phi int [ 0, %entry ], [ %i2, %outer.latch ]
	br label %inner
inner:
	%j = phi int [ 0, %outer ], [ %j2, %inner ]
	%j2 = add int %j, 1
	%jc = setlt int %j2, %n
	br bool %jc, label %inner, label %outer.latch
outer.latch:
	%i2 = add int %i, 1
	%ic = setlt int %i2, %n
	br bool %ic, label %outer, label %exit
exit:
	ret int 0
}
`

func TestLoopInfoNested(t *testing.T) {
	m := parse(t, nestedLoopSrc)
	f := m.Func("nest")
	dt := NewDomTree(f)
	li := NewLoopInfo(f, dt)

	outer := li.ByHeader[block(f, "outer")]
	inner := li.ByHeader[block(f, "inner")]
	if outer == nil || inner == nil {
		t.Fatal("loops not found")
	}
	if inner.Parent != outer {
		t.Error("inner loop not nested in outer")
	}
	if outer.Depth() != 1 || inner.Depth() != 2 {
		t.Errorf("depths: outer=%d inner=%d", outer.Depth(), inner.Depth())
	}
	if !outer.Contains(block(f, "inner")) || !outer.Contains(block(f, "outer.latch")) {
		t.Error("outer loop blocks wrong")
	}
	if inner.Contains(block(f, "outer.latch")) {
		t.Error("inner loop too big")
	}
	if li.Depth(block(f, "inner")) != 2 || li.Depth(block(f, "entry")) != 0 {
		t.Error("block depths wrong")
	}
	if ph := outer.Preheader(); ph != block(f, "entry") {
		t.Errorf("outer preheader = %v", ph)
	}
	exits := outer.Exits()
	if len(exits) != 1 || exits[0] != block(f, "exit") {
		t.Errorf("outer exits = %v", exits)
	}
	if len(li.TopLevel) != 1 || len(li.All()) != 2 {
		t.Error("loop forest shape wrong")
	}
}

func TestCallGraph(t *testing.T) {
	m := parse(t, `
declare void %external()

internal void %leaf() {
entry:
	ret void
}

internal void %mid() {
entry:
	call void %leaf()
	ret void
}

void %main() {
entry:
	call void %mid()
	call void %external()
	ret void
}
`)
	cg := NewCallGraph(m)
	mainN := cg.Nodes[m.Func("main")]
	if len(mainN.Callees) != 2 {
		t.Errorf("main callees = %d", len(mainN.Callees))
	}
	if !mainN.CallsExternal {
		t.Error("main should call external")
	}
	if cg.Nodes[m.Func("leaf")].CallsExternal {
		t.Error("leaf should not call external")
	}
	if len(cg.Nodes[m.Func("leaf")].Callers) != 1 {
		t.Error("leaf callers wrong")
	}

	order := cg.PostOrder()
	pos := map[string]int{}
	for i, f := range order {
		pos[f.Name()] = i
	}
	if !(pos["leaf"] < pos["mid"] && pos["mid"] < pos["main"]) {
		t.Errorf("post order wrong: %v", pos)
	}
}

func TestCallGraphIndirect(t *testing.T) {
	m := parse(t, `
%fp = global void ()* %target

internal void %target() {
entry:
	ret void
}

void %caller() {
entry:
	%p = load void ()** %fp
	call void %p()
	ret void
}
`)
	cg := NewCallGraph(m)
	callerN := cg.Nodes[m.Func("caller")]
	found := false
	for _, c := range callerN.Callees {
		if c == m.Func("target") {
			found = true
		}
	}
	if !found {
		t.Error("indirect call edge to address-taken function missing")
	}
	if !callerN.CallsExternal {
		t.Error("indirect call should be flagged external-possible")
	}
}

func TestMayUnwind(t *testing.T) {
	m := parse(t, `
declare void %extern()

internal void %thrower() {
entry:
	unwind
}

internal void %callsThrower() {
entry:
	call void %thrower()
	ret void
}

internal void %pure() {
entry:
	ret void
}

internal void %catches() {
entry:
	invoke void %thrower() to label %ok unwind to label %ex
ok:
	ret void
ex:
	ret void
}

void %main() {
entry:
	call void %pure()
	call void %catches()
	ret void
}
`)
	cg := NewCallGraph(m)
	may := cg.MayUnwind()
	if !may[m.Func("thrower")] {
		t.Error("thrower must unwind")
	}
	if !may[m.Func("callsThrower")] {
		t.Error("callsThrower must propagate unwind")
	}
	if may[m.Func("pure")] {
		t.Error("pure cannot unwind")
	}
	if may[m.Func("catches")] {
		t.Error("catches handles the unwind; should not propagate")
	}
	if may[m.Func("main")] {
		t.Error("main calls only non-unwinding functions")
	}
	if !may[m.Func("extern")] {
		t.Error("external declarations may unwind")
	}
}

func TestDominatesValueUse(t *testing.T) {
	m := parse(t, diamondSrc)
	f := m.Func("f")
	dt := NewDomTree(f)
	join := block(f, "join")
	phi := join.Phis()[0]
	// Constant incoming values dominate trivially.
	if !dt.DominatesValueUse(phi.Operand(0), phi, 0) {
		t.Error("constant should dominate phi use")
	}
	// Same-block ordering.
	ret := join.Instrs[1]
	if !dt.DominatesValueUse(phi, ret, 0) {
		t.Error("phi should dominate later ret in same block")
	}
	if dt.DominatesValueUse(ret, phi, 0) {
		t.Error("later instruction must not dominate earlier one")
	}
}

// TestLoopExitsDeterministic: unnamed exit blocks used to tie in the name
// sort and come out in map order; exits are ordered by block ID.
func TestLoopExitsDeterministic(t *testing.T) {
	f := core.NewFunction("f", core.NewFunctionType(core.VoidType, core.BoolType))
	c := f.Args[0]
	entry, head, body, exitA, exitB := core.NewBlock("entry"), core.NewBlock(""), core.NewBlock(""), core.NewBlock(""), core.NewBlock("")
	for _, b := range []*core.BasicBlock{entry, head, body, exitB, exitA} {
		f.AddBlock(b)
	}
	entry.Append(core.NewBr(head))
	head.Append(core.NewCondBr(c, body, exitA))
	body.Append(core.NewCondBr(c, head, exitB))
	exitA.Append(core.NewRet(nil))
	exitB.Append(core.NewRet(nil))
	if err := core.VerifyFunction(f); err != nil {
		t.Fatal(err)
	}
	li := NewLoopInfo(f, NewDomTree(f))
	loop := li.ByHeader[head]
	if loop == nil {
		t.Fatal("loop not found")
	}
	for i := 0; i < 100; i++ {
		exits := loop.Exits()
		if len(exits) != 2 || exits[0] != exitB || exits[1] != exitA {
			t.Fatalf("run %d: exits = %v, want [exitB exitA] (block ID order)", i, exits)
		}
	}
}
