package core_test

import (
	"cmp"
	"testing"

	"repro/internal/asm"
	"repro/internal/bytecode"
	"repro/internal/core"
)

const stampSource = `
%pair = type { int, long }
%g = global int 1

int %f(int %x) {
entry:
	%c = setgt int %x, 0
	br bool %c, label %a, label %b
a:
	%y = add int %x, 1
	br label %join
b:
	br label %join
join:
	%p = phi int [ %y, %a ], [ 0, %b ]
	switch int %x, label %out [ int 1, label %out ]
out:
	ret int %p
}

int %h(int %x) {
entry:
	ret int %x
}
`

// stampState is what the table compares before and after an edit.
type stampState struct{ cfg, body, version uint64 }

func stampsOf(m *core.Module, f *core.Function) stampState {
	return stampState{f.CFGStamp(), f.BodyStamp(), m.Version()}
}

// blk returns f's block named name.
func blk(f *core.Function, name string) *core.BasicBlock {
	for _, b := range f.Blocks {
		if b.Name() == name {
			return b
		}
	}
	panic("no block " + name)
}

// TestStampsMove holds every mutation entry point to the stamps it moves:
// a CFG edit moves the CFG stamp, the body stamp and the module version;
// any other edit of a function body moves the body stamp and the version;
// an edit outside bodies moves the version only; reading moves nothing.
func TestStampsMove(t *testing.T) {
	const (
		none = iota
		version
		body
		cfg
	)
	newAdd := func(f *core.Function) core.Instruction {
		return core.NewBinary(core.OpAdd, f.Args[0], f.Args[0])
	}
	cases := []struct {
		name string
		edit func(m *core.Module, f *core.Function)
		want int
	}{
		{"AddBlock", func(m *core.Module, f *core.Function) {
			nb := core.NewBlock("n")
			nb.Append(core.NewUnwind())
			f.AddBlock(nb)
		}, cfg},
		{"InsertBlocksAfter", func(m *core.Module, f *core.Function) {
			nb := core.NewBlock("n")
			nb.Append(core.NewUnwind())
			f.InsertBlocksAfter(f.Entry(), nb)
		}, cfg},
		{"RemoveBlock", func(m *core.Module, f *core.Function) { f.RemoveBlock(blk(f, "out")) }, cfg},
		{"EraseBlock", func(m *core.Module, f *core.Function) { f.EraseBlock(blk(f, "out")) }, cfg},
		{"TakeBlocks", func(m *core.Module, f *core.Function) { f.TakeBlocks() }, cfg},
		{"DropBody", func(m *core.Module, f *core.Function) { f.DropBody() }, cfg},
		{"SortBlocks", func(m *core.Module, f *core.Function) {
			f.SortBlocks(func(a, b *core.BasicBlock) int { return cmp.Compare(b.Name(), a.Name()) })
		}, cfg},
		{"SortBlocks/sorted", func(m *core.Module, f *core.Function) {
			f.SortBlocks(func(a, b *core.BasicBlock) int { return 0 })
		}, none},
		{"MoveTailTo", func(m *core.Module, f *core.Function) {
			a := blk(f, "a")
			nb := core.NewBlock("n")
			f.InsertBlockAfter(nb, a)
			a.MoveTailTo(0, nb)
		}, cfg},
		{"Append/terminator", func(m *core.Module, f *core.Function) {
			out := blk(f, "out")
			out.Erase(out.Terminator())
			out.Append(core.NewRet(f.Args[0]))
		}, cfg},
		{"Remove/terminator", func(m *core.Module, f *core.Function) {
			a := blk(f, "a")
			a.Remove(a.Terminator())
		}, cfg},
		{"SetOperand/successor", func(m *core.Module, f *core.Function) {
			f.Entry().Terminator().SetOperand(1, blk(f, "b"))
		}, cfg},
		{"ReplaceSuccessor", func(m *core.Module, f *core.Function) {
			blk(f, "a").ReplaceSuccessor(blk(f, "join"), blk(f, "out"))
		}, cfg},
		{"MakeUnconditional", func(m *core.Module, f *core.Function) {
			f.Entry().Terminator().(*core.BranchInst).MakeUnconditional(blk(f, "a"))
		}, cfg},
		{"AddCase", func(m *core.Module, f *core.Function) {
			blk(f, "join").Terminator().(*core.SwitchInst).AddCase(core.NewInt(core.IntType, 2), blk(f, "out"))
		}, cfg},
		{"RemoveCase", func(m *core.Module, f *core.Function) {
			blk(f, "join").Terminator().(*core.SwitchInst).RemoveCase(0)
		}, cfg},
		{"InsertBefore", func(m *core.Module, f *core.Function) {
			a := blk(f, "a")
			a.InsertBefore(newAdd(f), a.Terminator())
		}, body},
		{"InsertAt", func(m *core.Module, f *core.Function) { f.Entry().InsertAt(0, newAdd(f)) }, body},
		{"Remove", func(m *core.Module, f *core.Function) {
			e := f.Entry()
			e.Remove(e.Instrs[0])
		}, body},
		{"Erase", func(m *core.Module, f *core.Function) {
			a := blk(f, "a")
			y := a.Instrs[0]
			core.ReplaceAllUses(y, f.Args[0])
			a.Erase(y)
		}, body},
		{"SetOperand", func(m *core.Module, f *core.Function) {
			blk(f, "a").Instrs[0].SetOperand(1, f.Args[0])
		}, body},
		{"SetOperand/branch condition", func(m *core.Module, f *core.Function) {
			f.Entry().Terminator().SetOperand(0, core.NewBool(true))
		}, body},
		{"ReplaceAllUses", func(m *core.Module, f *core.Function) {
			core.ReplaceAllUses(f.Args[0], core.NewInt(core.IntType, 3))
		}, body},
		{"AddIncoming", func(m *core.Module, f *core.Function) {
			blk(f, "join").Phis()[0].AddIncoming(f.Args[0], blk(f, "a"))
		}, body},
		{"RemovePredecessor", func(m *core.Module, f *core.Function) {
			blk(f, "join").RemovePredecessor(blk(f, "b"))
		}, body},
		{"AddFunc", func(m *core.Module, f *core.Function) {
			m.AddFunc(core.NewFunction("k", f.Sig))
		}, version},
		{"RemoveFunc", func(m *core.Module, f *core.Function) { m.RemoveFunc(m.Func("h")) }, version},
		{"RenameFunc", func(m *core.Module, f *core.Function) { m.RenameFunc(m.Func("h"), "h2") }, version},
		{"AddGlobal", func(m *core.Module, f *core.Function) {
			m.AddGlobal(core.NewGlobal("g2", core.IntType, core.NewInt(core.IntType, 0)))
		}, version},
		{"RemoveGlobal", func(m *core.Module, f *core.Function) { m.RemoveGlobal(m.Global("g")) }, version},
		{"Function.SetLinkage", func(m *core.Module, f *core.Function) {
			m.Func("h").SetLinkage(core.InternalLinkage)
		}, version},
		{"Global.SetLinkage", func(m *core.Module, f *core.Function) {
			m.Global("g").SetLinkage(core.InternalLinkage)
		}, version},
		{"SetInit", func(m *core.Module, f *core.Function) { m.Global("g").SetInit(nil) }, version},
		{"AddTypeName", func(m *core.Module, f *core.Function) { m.AddTypeName("t2", core.IntType) }, version},
		{"RemoveTypeName", func(m *core.Module, f *core.Function) { m.RemoveTypeName("pair") }, version},
		{"PermuteFields", func(m *core.Module, f *core.Function) {
			st, _ := m.NamedType("pair")
			m.PermuteFields(st.(*core.StructType), []int{1, 0})
		}, version},
		{"AdoptFrom", func(m *core.Module, f *core.Function) { m.AdoptFrom(core.CloneModule(m)) }, version},
		{"Verify", func(m *core.Module, f *core.Function) {
			if err := core.Verify(m); err != nil {
				t.Fatal(err)
			}
		}, none},
		{"String", func(m *core.Module, f *core.Function) { _ = m.String() }, none},
		{"bytecode.Encode", func(m *core.Module, f *core.Function) {
			if _, err := bytecode.Encode(m); err != nil {
				t.Fatal(err)
			}
		}, none},
		{"NewDominators", func(m *core.Module, f *core.Function) { core.NewDominators(f) }, none},
		{"CloneModule", func(m *core.Module, f *core.Function) {
			if c := core.CloneModule(m); c.Version() != m.Version() {
				t.Errorf("clone version %d, source %d", c.Version(), m.Version())
			}
		}, none},
	}
	for _, c := range cases {
		m, err := asm.ParseModule("stamps", stampSource)
		if err != nil {
			t.Fatal(err)
		}
		f := m.Func("f")
		before := stampsOf(m, f)
		c.edit(m, f)
		after := stampsOf(m, f)
		got := none
		switch {
		case after.cfg != before.cfg:
			got = cfg
		case after.body != before.body:
			got = body
		case after.version != before.version:
			got = version
		}
		names := []string{"nothing", "the version", "the body stamp", "the CFG stamp"}
		if got != c.want {
			t.Errorf("%s moved %s, want %s", c.name, names[got], names[c.want])
		}
		if (after.body != before.body) != (got >= body) || (after.version != before.version) != (got > none) {
			t.Errorf("%s: stamps %+v -> %+v: a CFG edit must move the body stamp, and any edit the version", c.name, before, after)
		}
		if after.version < before.version {
			t.Errorf("%s: version went back from %d to %d", c.name, before.version, after.version)
		}
	}
}
