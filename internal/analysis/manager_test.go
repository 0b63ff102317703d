package analysis

import (
	"sync"
	"testing"

	"repro/internal/core"
)

const managerSrc = `
int %callee(int %x) {
entry:
	%c = setgt int %x, 0
	br bool %c, label %pos, label %neg
pos:
	ret int %x
neg:
	ret int 0
}

int %caller(int %x) {
entry:
	%r = call int %callee(int %x)
	br label %loop
loop:
	%i = phi int [ 0, %entry ], [ %n, %loop ]
	%n = add int %i, 1
	%c = setlt int %n, %r
	br bool %c, label %loop, label %out
out:
	ret int %n
}
`

func TestManagerHitMiss(t *testing.T) {
	m := parse(t, managerSrc)
	f := m.Func("callee")
	am := NewManager()

	dt1 := am.DomTree(f)
	if s := am.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("first DomTree: stats %+v, want 1 miss", s)
	}
	dt2 := am.DomTree(f)
	if dt1 != dt2 {
		t.Error("second DomTree not served from cache")
	}
	if s := am.Stats(); s.Hits != 1 {
		t.Errorf("second DomTree: stats %+v, want 1 hit", s)
	}

	// DomFrontier and LoopInfo reuse the cached tree (one hit each for the
	// tree, one miss each for themselves).
	am.DomFrontier(f)
	am.LoopInfo(f)
	if s := am.Stats(); s.Misses != 3 || s.Hits != 3 {
		t.Errorf("after derived analyses: stats %+v, want 3 miss / 3 hits", s)
	}
}

// TestManagerInvalidation checks that a function's cached analyses
// live exactly as long as its CFG stamp: an edit inside a block keeps
// them, and an edit of an edge drops the tree and both analyses derived
// from it on the next lookup.
func TestManagerInvalidation(t *testing.T) {
	m := parse(t, managerSrc)
	f := m.Func("caller")
	am := NewManager()
	dt := am.DomTree(f)
	am.DomFrontier(f)
	am.LoopInfo(f)

	loop := f.Blocks[1]
	loop.InsertAt(loop.FirstNonPhi(), core.NewBinary(core.OpAdd, f.Args[0], f.Args[0]))
	if am.DomTree(f) != dt {
		t.Fatal("an edit inside a block dropped the dominator tree")
	}
	if s := am.Stats(); s.Invalidations != 0 || s.Hits != 3 {
		t.Fatalf("after a body edit: stats %+v, want 3 hits and no invalidations", s)
	}

	// Retarget the loop's back edge to the exit: the CFG changed.
	br := loop.Terminator().(*core.BranchInst)
	loop.RemovePredecessor(loop)
	br.SetOperand(1, f.Blocks[2])
	before := am.Stats()
	am.DomFrontier(f)
	s := am.Stats()
	if s.Invalidations != before.Invalidations+3 {
		t.Fatalf("after an edge edit: %d invalidations, want +3 (tree + 2 derived)", s.Invalidations-before.Invalidations)
	}
	if s.Misses != before.Misses+2 {
		t.Errorf("DomFrontier after an edge edit should recompute tree+frontier: %+v", s)
	}
	if am.DomTree(f) == dt {
		t.Error("stale dominator tree served after an edge edit")
	}
}

// TestManagerModuleAnalyses checks that module analyses survive a Prune
// while the module's version holds, and all drop once any body changed.
func TestManagerModuleAnalyses(t *testing.T) {
	m := parse(t, managerSrc)
	am := NewManager()

	cg1 := am.CallGraph(m)
	cg2 := am.CallGraph(m)
	if cg1 != cg2 {
		t.Error("CallGraph not cached")
	}
	am.ModRef(m)
	am.ModRef(m)
	// Three hits: the repeated CallGraph, the graph reused inside the first
	// ModRef computation, and the repeated ModRef.
	if s := am.Stats(); s.Hits != 3 || s.Misses != 2 {
		t.Errorf("module analyses: stats %+v, want 3 hits / 2 misses", s)
	}

	// Prune with the version unchanged keeps both.
	am.Prune(m)
	am.Prune(m)
	if s := am.Stats(); s.Invalidations != 0 {
		t.Fatalf("unchanged module: %d invalidations", s.Invalidations)
	}
	if am.CallGraph(m) != cg1 {
		t.Error("call graph should have survived")
	}

	// An edit anywhere moves the version: the next Prune drops both.
	f := m.Func("callee")
	f.Entry().InsertAt(0, core.NewBinary(core.OpAdd, f.Args[0], f.Args[0]))
	am.Prune(m)
	if s := am.Stats(); s.Invalidations != 2 {
		t.Errorf("invalidations = %d, want 2 (graph + modref)", s.Invalidations)
	}
	if am.CallGraph(m) == cg1 {
		t.Error("stale call graph served after an edit")
	}
}

func TestManagerPrune(t *testing.T) {
	m := parse(t, managerSrc)
	f := m.Func("callee")
	am := NewManager()
	am.DomTree(f)
	am.CallGraph(m)

	// Prune against the owning module keeps everything.
	am.Prune(m)
	am.DomTree(f)
	if s := am.Stats(); s.Hits != 1 {
		t.Fatalf("entry lost by no-op prune: %+v", s)
	}

	// A function removed from the module loses its entry.
	core.ReplaceAllUses(f, core.NewNull(f.Type().(*core.PointerType)))
	f.DropBody()
	m.RemoveFunc(f)
	am.Prune(m)
	before := am.Stats()
	am.DomTree(f)
	if s := am.Stats(); s.Misses != before.Misses+1 {
		t.Errorf("pruned entry still served: %+v", s)
	}
}

func TestNilManagerComputesFresh(t *testing.T) {
	m := parse(t, managerSrc)
	f := m.Func("caller")
	var am *Manager
	if am.DomTree(f) == nil || am.DomFrontier(f) == nil || am.LoopInfo(f) == nil {
		t.Fatal("nil manager returned nil analysis")
	}
	if am.CallGraph(m) == nil || am.ModRef(m) == nil {
		t.Fatal("nil manager returned nil module analysis")
	}
	if s := am.Stats(); s != (Stats{}) {
		t.Errorf("nil manager counted stats: %+v", s)
	}
	am.Prune(m)
}

// TestManagerConcurrent exercises the cache from many goroutines under
// -race: concurrent fetches of the same and different functions, mixed with
// Prune, must be safe.
func TestManagerConcurrent(t *testing.T) {
	m := parse(t, managerSrc)
	fns := []*core.Function{m.Func("callee"), m.Func("caller")}
	am := NewManager()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := fns[w%len(fns)]
			for i := 0; i < 50; i++ {
				if am.DomTree(f) == nil || am.LoopInfo(f) == nil {
					t.Error("nil analysis")
					return
				}
				am.CallGraph(m)
				if i%10 == 9 {
					am.Prune(m)
				}
			}
		}()
	}
	wg.Wait()
}
