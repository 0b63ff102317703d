package analysis_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/corpus"
)

// refCFG is a deliberately naive model of one function's CFG: successor
// and predecessor lists read from the terminators alone, reachability and
// reverse postorder from a recursive walk, and dominator *sets* from the
// textbook data-flow equations iterated to a fixed point. Every dominance
// answer the analysis package gives is checked against it.
type refCFG struct {
	blocks []*core.BasicBlock
	idx    map[*core.BasicBlock]int
	succs  [][]int // terminator order, duplicates kept
	preds  [][]int // deduplicated, every predecessor (reachable or not)
	reach  []bool
	rpo    []int
	rpoPos []int
	dom    [][]bool // dom[b][a]: a dominates b
}

func newRefCFG(f *core.Function) *refCFG {
	n := len(f.Blocks)
	r := &refCFG{blocks: f.Blocks, idx: map[*core.BasicBlock]int{}, succs: make([][]int, n),
		preds: make([][]int, n), reach: make([]bool, n), rpoPos: make([]int, n), dom: make([][]bool, n)}
	for i, b := range f.Blocks {
		r.idx[b] = i
	}
	for i, b := range f.Blocks {
		for _, s := range b.Succs() {
			j := r.idx[s]
			r.succs[i] = append(r.succs[i], j)
			dup := false
			for _, p := range r.preds[j] {
				dup = dup || p == i
			}
			if !dup {
				r.preds[j] = append(r.preds[j], i)
			}
		}
	}
	var post []int
	var dfs func(int)
	dfs = func(b int) {
		r.reach[b] = true
		for _, s := range r.succs[b] {
			if !r.reach[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(0)
	for i := len(post) - 1; i >= 0; i-- {
		r.rpoPos[post[i]] = len(r.rpo)
		r.rpo = append(r.rpo, post[i])
	}
	for b := range r.dom {
		r.dom[b] = make([]bool, n)
		for a := range r.dom[b] {
			r.dom[b][a] = r.reach[b] && r.reach[a] && (b != 0 || a == 0)
		}
	}
	for changed := true; changed; {
		changed = false
		for b := 1; b < n; b++ {
			if !r.reach[b] {
				continue
			}
			for a := 0; a < n; a++ {
				if a == b || !r.dom[b][a] {
					continue
				}
				for _, p := range r.preds[b] {
					if r.reach[p] && !r.dom[p][a] {
						r.dom[b][a] = false
						changed = true
						break
					}
				}
			}
		}
	}
	return r
}

func (r *refCFG) dominates(a, b int) bool { return r.dom[b][a] }

// idom is the strict dominator of b that every other strict dominator of
// b dominates — the strict dominators form a chain, so it is the one with
// the most dominators; -1 for the entry and for unreachable blocks.
func (r *refCFG) idom(b int) int {
	if b == 0 || !r.reach[b] {
		return -1
	}
	best, most := -1, 0
	for d := range r.blocks {
		if d == b || !r.dom[b][d] {
			continue
		}
		n := 0
		for _, in := range r.dom[d] {
			if in {
				n++
			}
		}
		if n > most {
			best, most = d, n
		}
	}
	return best
}

// frontier is DF(x) = { y : x dominates a reachable predecessor of y and
// does not strictly dominate y }, in reverse postorder.
func (r *refCFG) frontier(x int) []int {
	var out []int
	for _, y := range r.rpo {
		for _, p := range r.preds[y] {
			if r.reach[p] && r.dominates(x, p) && (x == y || !r.dominates(x, y)) {
				out = append(out, y)
				break
			}
		}
	}
	return out
}

// refLoop is a natural loop of the reference model.
type refLoop struct {
	header  int
	body    []bool
	size    int
	latches []int
	parent  *refLoop
	subs    []*refLoop
}

// loops finds the natural loops (back edges to a dominating header, one
// loop per header), nests each in the smallest other loop holding its
// header, and orders siblings larger first, then by header RPO.
func (r *refCFG) loops() (top []*refLoop, byHeader map[int]*refLoop) {
	byHeader = map[int]*refLoop{}
	var headers []int
	for _, b := range r.rpo {
		for _, h := range r.succs[b] {
			if !r.dominates(h, b) {
				continue
			}
			l := byHeader[h]
			if l == nil {
				l = &refLoop{header: h, body: make([]bool, len(r.blocks))}
				l.body[h] = true
				byHeader[h] = l
				headers = append(headers, h)
			}
			l.latches = append(l.latches, b)
			work := []int{b}
			for len(work) > 0 {
				x := work[len(work)-1]
				work = work[:len(work)-1]
				if l.body[x] || !r.reach[x] {
					continue
				}
				l.body[x] = true
				work = append(work, r.preds[x]...)
			}
		}
	}
	for _, l := range byHeader {
		for _, in := range l.body {
			if in {
				l.size++
			}
		}
	}
	order := func(s []*refLoop) {
		sort.SliceStable(s, func(i, j int) bool {
			if s[i].size != s[j].size {
				return s[i].size > s[j].size
			}
			return r.rpoPos[s[i].header] < r.rpoPos[s[j].header]
		})
	}
	var all []*refLoop
	for _, h := range headers {
		all = append(all, byHeader[h])
	}
	for _, l := range all {
		for _, o := range all {
			if o != l && o.body[l.header] && (l.parent == nil || o.size < l.parent.size) {
				l.parent = o
			}
		}
	}
	for _, l := range all {
		if l.parent == nil {
			top = append(top, l)
		} else {
			l.parent.subs = append(l.parent.subs, l)
		}
	}
	order(top)
	for _, l := range all {
		order(l.subs)
	}
	return top, byHeader
}

// innermost returns the smallest reference loop holding b, or nil.
func innermost(byHeader map[int]*refLoop, b int) *refLoop {
	var best *refLoop
	for _, l := range byHeader {
		if l.body[b] && (best == nil || l.size < best.size) {
			best = l
		}
	}
	return best
}

func names(bs []*core.BasicBlock) string {
	s := "["
	for i, b := range bs {
		if i > 0 {
			s += " "
		}
		s += "%" + b.Name()
	}
	return s + "]"
}

// checkFunction compares every DomTree, DomFrontier, ReversePostorder and
// LoopInfo answer for f with the reference model.
func checkFunction(t *testing.T, where string, f *core.Function) {
	t.Helper()
	dt := analysis.NewDomTree(f)
	checkAgainstModel(t, where, f, dt, analysis.NewDomFrontier(dt), analysis.NewLoopInfo(f, dt))
}

// checkAgainstModel holds f's dominator tree, dominance frontier and loop
// nest, however they were obtained, to the naive model.
func checkAgainstModel(t *testing.T, where string, f *core.Function, dt *analysis.DomTree, df analysis.DomFrontier, li *analysis.LoopInfo) {
	t.Helper()
	r := newRefCFG(f)
	blocks := func(s []int) []*core.BasicBlock {
		out := []*core.BasicBlock{}
		for _, i := range s {
			out = append(out, r.blocks[i])
		}
		return out
	}
	same := func(what string, got []*core.BasicBlock, want []int) {
		t.Helper()
		if g, w := names(got), names(blocks(want)); g != w || len(got) != len(want) {
			t.Errorf("%s: %s = %s, want %s", where, what, g, w)
			return
		}
		for i := range got {
			if got[i] != r.blocks[want[i]] {
				t.Errorf("%s: %s[%d] is a different block named %%%s", where, what, i, got[i].Name())
			}
		}
	}

	same("RPO", dt.RPO(), r.rpo)
	same("ReversePostorder", analysis.ReversePostorder(f), r.rpo)
	reach := analysis.ReachableBlocks(f)
	idoms := make([]int, len(r.blocks))
	for i := range idoms {
		idoms[i] = r.idom(i)
	}
	for i, b := range r.blocks {
		if dt.Reachable(b) != r.reach[i] || reach[b] != r.reach[i] {
			t.Errorf("%s: Reachable(%%%s) = %v/%v, want %v", where, b.Name(), dt.Reachable(b), reach[b], r.reach[i])
		}
		var want *core.BasicBlock
		if d := idoms[i]; d >= 0 {
			want = r.blocks[d]
		}
		if got := dt.Idom(b); got != want {
			t.Errorf("%s: Idom(%%%s) = %v, want %v", where, b.Name(), got, want)
		}
		var kids []int
		for _, c := range r.rpo {
			if idoms[c] == i {
				kids = append(kids, c)
			}
		}
		same(fmt.Sprintf("Children(%%%s)", b.Name()), dt.Children(b), kids)
		for j, c := range r.blocks {
			if got, want := dt.Dominates(b, c), r.dominates(i, j); got != want {
				t.Errorf("%s: Dominates(%%%s, %%%s) = %v, want %v", where, b.Name(), c.Name(), got, want)
			}
			if got, want := dt.StrictlyDominates(b, c), i != j && r.dominates(i, j); got != want {
				t.Errorf("%s: StrictlyDominates(%%%s, %%%s) = %v, want %v", where, b.Name(), c.Name(), got, want)
			}
		}
	}

	keys := 0
	for i, b := range r.blocks {
		want := r.frontier(i)
		if len(want) > 0 {
			keys++
		}
		same(fmt.Sprintf("DF(%%%s)", b.Name()), df[b], want)
	}
	if len(df) != keys {
		t.Errorf("%s: DomFrontier has %d keys, want %d", where, len(df), keys)
	}

	top, byHeader := r.loops()
	if len(li.ByHeader) != len(byHeader) {
		t.Errorf("%s: %d loops, want %d", where, len(li.ByHeader), len(byHeader))
	}
	var walk func(what string, got []*analysis.Loop, want []*refLoop, parent *analysis.Loop)
	walk = func(what string, got []*analysis.Loop, want []*refLoop, parent *analysis.Loop) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: %s has %d loops, want %d", where, what, len(got), len(want))
			return
		}
		for k, l := range got {
			w := want[k]
			h := r.blocks[w.header]
			lw := fmt.Sprintf("loop %%%s", h.Name())
			if l.Header != h {
				t.Errorf("%s: %s[%d] header %%%s, want %%%s", where, what, k, l.Header.Name(), h.Name())
				continue
			}
			if li.ByHeader[h] != l || l.Parent != parent {
				t.Errorf("%s: %s: ByHeader or Parent wrong", where, lw)
			}
			if l.Depth() != li.Depth(h) && li.LoopFor(h) == l {
				t.Errorf("%s: %s: Depth %d, LoopInfo.Depth %d", where, lw, l.Depth(), li.Depth(h))
			}
			same(lw+" latches", l.Latches, w.latches)
			n := 0
			for i, b := range r.blocks {
				if l.Contains(b) != w.body[i] || l.Blocks[b] != w.body[i] {
					t.Errorf("%s: %s: Contains(%%%s) = %v, want %v", where, lw, b.Name(), l.Contains(b), w.body[i])
				}
				if w.body[i] {
					n++
				}
			}
			if len(l.Blocks) != n {
				t.Errorf("%s: %s has %d blocks, want %d", where, lw, len(l.Blocks), n)
			}
			exits := map[*core.BasicBlock]bool{}
			var wantExits []int
			for i, in := range w.body {
				for _, s := range r.succs[i] {
					if in && !w.body[s] && !exits[r.blocks[s]] {
						exits[r.blocks[s]] = true
						wantExits = append(wantExits, s)
					}
				}
			}
			gotExits := l.Exits()
			sort.Slice(gotExits, func(i, j int) bool { return r.idx[gotExits[i]] < r.idx[gotExits[j]] })
			sort.Ints(wantExits)
			same(lw+" exits", gotExits, wantExits)
			var ph *core.BasicBlock
			outside := 0
			for _, p := range r.preds[w.header] {
				if !w.body[p] {
					outside++
					ph = r.blocks[p]
				}
			}
			if outside != 1 {
				ph = nil
			}
			if got := l.Preheader(); got != ph {
				t.Errorf("%s: %s: Preheader = %v, want %v", where, lw, got, ph)
			}
			walk(lw+" subs", l.Subs, w.subs, l)
		}
	}
	walk("TopLevel", li.TopLevel, top, nil)
	for i, b := range r.blocks {
		var want *core.BasicBlock
		depth := 0
		if l := innermost(byHeader, i); l != nil {
			want = r.blocks[l.header]
			for x := l; x != nil; x = x.parent {
				depth++
			}
		}
		var got *core.BasicBlock
		if l := li.LoopFor(b); l != nil {
			got = l.Header
		}
		if got != want || li.Depth(b) != depth {
			t.Errorf("%s: LoopFor(%%%s) header %v depth %d, want %v depth %d", where, b.Name(), got, li.Depth(b), want, depth)
		}
	}
}

// refShapes are hand-built CFGs for the cases the corpus is thin on.
const refShapes = `
void %unreachable(bool %c) {
entry:
	br bool %c, label %a, label %join
a:
	br label %join
dead:
	br label %join
deadloop:
	br label %deadloop2
deadloop2:
	br bool %c, label %deadloop, label %a
join:
	ret void
}

int %selfloop(int %n) {
entry:
	br label %loop
loop:
	%i = phi int [ 0, %entry ], [ %i2, %loop ]
	%i2 = add int %i, 1
	%c = setlt int %i2, %n
	br bool %c, label %loop, label %exit
exit:
	ret int %i2
}

int %bothedges(bool %c) {
entry:
	br bool %c, label %x, label %x
x:
	%v = phi int [ 1, %entry ], [ 2, %x ]
	br bool %c, label %x, label %x2
x2:
	br bool %c, label %y, label %y
y:
	ret int %v
}

int %switch(int %v) {
entry:
	switch int %v, label %def [ int 0, label %a
	                            int 1, label %b
	                            int 2, label %a
	                            int 3, label %def ]
a:
	br label %join
b:
	switch int %v, label %join [ int 7, label %a ]
def:
	br label %join
join:
	%r = phi int [ 1, %a ], [ 2, %b ], [ 3, %def ]
	ret int %r
}

void %irreducible(bool %c) {
entry:
	br bool %c, label %l1, label %l2
l1:
	br bool %c, label %l2, label %exit
l2:
	br bool %c, label %l1, label %exit
exit:
	ret void
}

void %nested(bool %c) {
entry:
	br label %h
h:
	br label %ih
ih:
	br bool %c, label %ih, label %ib
ib:
	br bool %c, label %ih, label %latch1
latch1:
	br bool %c, label %h, label %latch2
latch2:
	br bool %c, label %h, label %side
side:
	br bool %c, label %sh, label %exit
sh:
	br bool %c, label %sh, label %exit
exit:
	ret void
}
`

// TestDominatorsMatchReference holds DomTree, DomFrontier,
// ReversePostorder and LoopInfo to the naive reference model on the
// hand-built shapes and on every function of the golden corpus.
func TestDominatorsMatchReference(t *testing.T) {
	m, err := asm.ParseModule("shapes", refShapes)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	for _, f := range m.Funcs {
		checkFunction(t, "shapes/"+f.Name(), f)
	}
	if testing.Short() {
		return
	}
	mods, err := corpus.Golden("../..")
	if err != nil {
		t.Fatal(err)
	}
	nf := 0
	for _, gm := range mods {
		for _, f := range gm.M.Funcs {
			if f.IsDeclaration() {
				continue
			}
			checkFunction(t, gm.Name+"/"+f.Name(), f)
			nf++
		}
	}
	if nf < 100 {
		t.Fatalf("corpus has only %d defined functions", nf)
	}
}
