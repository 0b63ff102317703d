// Package analysis provides the CFG analyses the optimizer builds on:
// dominator trees and dominance frontiers (Cooper-Harvey-Kennedy), natural
// loop detection, reverse postorder, and call-graph construction. These are
// the "explicit CFG" facilities the paper credits for fast transformations
// (§2.1, §4.1.4).
package analysis

import (
	"repro/internal/core"
)

// DomTree is the dominator tree of a function: a view of the one
// dominator kernel, whose Idom, Reachable, Dominates, Children and RPO it
// answers with. Unreachable blocks have no entry (Idom returns nil and
// Dominates returns false for them).
type DomTree struct {
	*core.Dominators
	fn *core.Function
}

// NewDomTree computes the dominator tree with the iterative
// Cooper-Harvey-Kennedy algorithm over reverse postorder.
func NewDomTree(f *core.Function) *DomTree {
	return &DomTree{Dominators: core.NewDominators(f), fn: f}
}

// Function returns the function the tree was built for.
func (dt *DomTree) Function() *core.Function { return dt.fn }

// StrictlyDominates reports whether a dominates b and a != b.
func (dt *DomTree) StrictlyDominates(a, b *core.BasicBlock) bool {
	return a != b && dt.Dominates(a, b)
}

// DominatesValueUse reports whether the definition of v dominates the use
// (user, opIdx), handling phi uses (which must dominate the incoming edge's
// predecessor terminator) and non-instruction definitions (constants,
// arguments, globals dominate everything).
func (dt *DomTree) DominatesValueUse(v core.Value, user core.Instruction, opIdx int) bool {
	def, ok := v.(core.Instruction)
	if !ok {
		return true
	}
	db := def.Parent()
	if phi, isPhi := user.(*core.PhiInst); isPhi {
		// Operand layout: value at even index, block at odd.
		pred, okBlk := phi.Operand(opIdx + 1).(*core.BasicBlock)
		if !okBlk {
			return false
		}
		return dt.Dominates(db, pred)
	}
	ub := user.Parent()
	if db == ub {
		return db.IndexOf(def) < ub.IndexOf(user)
	}
	return dt.Dominates(db, ub)
}

// DomFrontier maps each block to its dominance frontier, the set used for
// φ placement in SSA construction (Cytron et al.).
type DomFrontier map[*core.BasicBlock][]*core.BasicBlock

// NewDomFrontier computes dominance frontiers from the dominator tree: for
// each join b (in reverse postorder) and each reachable predecessor p, b
// joins the frontier of every block from p up to, not including, idom(b).
func NewDomFrontier(dt *DomTree) DomFrontier {
	df := DomFrontier{}
	d := dt.Dominators
	rpo := d.RPO()
	// last[r] is 1 + the RPO number of the last block added to DF(r), so
	// a join reached from several predecessors is added once.
	last := make([]int32, len(rpo))
	for bn, b := range rpo {
		stop := d.IdomNum(bn)
		for _, u := range b.Uses() {
			t, ok := u.User.(core.Instruction)
			if !ok || !t.IsTerminator() {
				continue
			}
			for r := d.Num(t.Parent()); r >= 0 && r != stop; r = d.IdomNum(r) {
				if last[r] != int32(bn+1) {
					last[r] = int32(bn + 1)
					df[rpo[r]] = append(df[rpo[r]], b)
				}
				if r == 0 {
					break // entry
				}
			}
		}
	}
	return df
}

// ReversePostorder returns the blocks reachable from entry in reverse
// postorder (a topological order ignoring back edges).
func ReversePostorder(f *core.Function) []*core.BasicBlock { return core.ReversePostorder(f) }

// ReachableBlocks returns the set of blocks reachable from entry.
func ReachableBlocks(f *core.Function) map[*core.BasicBlock]bool {
	out := map[*core.BasicBlock]bool{}
	for _, b := range ReversePostorder(f) {
		out[b] = true
	}
	return out
}
