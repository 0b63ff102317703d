package passes

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
)

// Tests for the pass manager's analysis cache: a cached result lives as
// long as the IR it describes is unchanged, whatever a pass reports.

const stampsSrc = `
internal int %sq(int %x) {
entry:
	%r = mul int %x, %x
	ret int %r
}

int %user(int %x) {
entry:
	%r = call int %sq(int %x)
	ret int %r
}

int %other(int %x) {
entry:
	%c = setgt int %x, 0
	br bool %c, label %pos, label %neg
pos:
	ret int %x
neg:
	ret int 0
}
`

// TestInlineKeepsUntouchedDomTree: inlining edits the caller's CFG only,
// so a function it never touched keeps its cached dominator tree.
func TestInlineKeepsUntouchedDomTree(t *testing.T) {
	m := parse(t, stampsSrc)
	other := m.Func("other")
	am := analysis.NewManager()
	dt := am.DomTree(other)
	pm := NewPassManager()
	pm.AM = am
	pm.Add(NewInline(DefaultInlineThreshold))
	if _, err := pm.Run(m); err != nil {
		t.Fatal(err)
	}
	if pm.Results[0].Changed == 0 {
		t.Fatal("inline changed nothing")
	}
	if am.DomTree(other) != dt {
		t.Error("inline dropped the dominator tree of a function it did not touch")
	}
}

// silentSplit splits every function's entry block before its terminator
// and reports no change.
type silentSplit struct{}

func (silentSplit) Name() string { return "silent-split" }

func (silentSplit) RunOnFunction(f *core.Function) int {
	entry := f.Entry()
	nb := core.NewBlock("split")
	f.InsertBlockAfter(nb, entry)
	entry.MoveTailTo(len(entry.Instrs)-1, nb)
	entry.Append(core.NewBr(nb))
	return 0
}

// TestSilentEditInvalidates: a pass that edits the IR but reports no
// change still drops the analyses its edits made stale.
func TestSilentEditInvalidates(t *testing.T) {
	m := parse(t, stampsSrc)
	other := m.Func("other")
	am := analysis.NewManager()
	dt := am.DomTree(other)
	cg := am.CallGraph(m)
	pm := NewPassManager()
	pm.AM = am
	pm.AddFunctionPass(silentSplit{})
	if _, err := pm.Run(m); err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	got := am.DomTree(other)
	if got == dt {
		t.Fatal("stale dominator tree served after an unreported edit")
	}
	split, pos := other.Blocks[1], other.Blocks[2]
	if got.Idom(pos) != split {
		t.Errorf("Idom(%%pos) = %v, want %%split", got.Idom(pos))
	}
	if am.CallGraph(m) == cg {
		t.Error("stale call graph served after an unreported edit")
	}
}

// TestIsolatedNoOpKeepsAnalyses: under a snapshotting policy a pass runs
// on a clone; when the clone comes back unedited, the module keeps its
// functions and every analysis cached for them.
func TestIsolatedNoOpKeepsAnalyses(t *testing.T) {
	m := parse(t, stampsSrc)
	other := m.Func("other")
	am := analysis.NewManager()
	dt := am.DomTree(other)
	cg := am.CallGraph(m)
	pm := NewPassManager()
	pm.AM = am
	pm.Policy = SkipAndContinue
	pm.AddFunctionPass(NewADCE())
	if _, err := pm.Run(m); err != nil {
		t.Fatal(err)
	}
	if m.Func("other") != other {
		t.Fatal("an unedited clone replaced the module's functions")
	}
	if am.DomTree(other) != dt || am.CallGraph(m) != cg {
		t.Error("an isolated pass that edited nothing dropped cached analyses")
	}
}
