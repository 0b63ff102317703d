package passes

import (
	"repro/internal/analysis"
	"repro/internal/core"
)

// SimplifyCFG cleans up control flow: removes unreachable blocks, folds
// conditional branches on constants, collapses switches on constants,
// merges a block into its unique predecessor when that predecessor has a
// single successor, and removes trivial single-incoming phis.
type SimplifyCFG struct{}

// NewSimplifyCFG returns the pass.
func NewSimplifyCFG() *SimplifyCFG { return &SimplifyCFG{} }

// Name returns the pass name.
func (*SimplifyCFG) Name() string { return "simplifycfg" }

// RunOnFunction iterates the rewrites to a fixed point.
func (s *SimplifyCFG) RunOnFunction(f *core.Function) int {
	total := 0
	for {
		n := 0
		n += s.foldConstantBranches(f)
		n += s.removeUnreachable(f)
		n += s.mergeBlocks(f)
		n += s.simplifyPhis(f)
		total += n
		if n == 0 {
			return total
		}
	}
}

// foldConstantBranches turns "br true/false" and "switch <const>" into
// unconditional branches, updating phis in abandoned targets.
func (s *SimplifyCFG) foldConstantBranches(f *core.Function) int {
	changed := 0
	for _, b := range f.Blocks {
		switch t := b.Terminator().(type) {
		case *core.BranchInst:
			if !t.IsConditional() {
				continue
			}
			c, ok := t.Cond().(*core.ConstantBool)
			if !ok {
				continue
			}
			taken, dropped := t.TrueDest(), t.FalseDest()
			if !c.Val {
				taken, dropped = dropped, taken
			}
			t.MakeUnconditional(taken)
			if dropped != taken {
				dropped.RemovePredecessor(b)
			}
			changed++
		case *core.SwitchInst:
			c, ok := t.Value().(*core.ConstantInt)
			if !ok {
				continue
			}
			taken := t.Default()
			for n := 0; n < t.NumCases(); n++ {
				val, dest := t.Case(n)
				if val.Val == c.Val {
					taken = dest
					break
				}
			}
			// Collect abandoned successors before rewriting.
			abandoned := map[*core.BasicBlock]bool{}
			for _, succ := range b.Succs() {
				if succ != taken {
					abandoned[succ] = true
				}
			}
			idx := b.IndexOf(t)
			b.Erase(t)
			nb := core.NewBr(taken)
			b.InsertAt(idx, nb)
			for succ := range abandoned {
				succ.RemovePredecessor(b)
			}
			changed++
		}
	}
	return changed
}

// removeUnreachable deletes blocks not reachable from the entry.
func (s *SimplifyCFG) removeUnreachable(f *core.Function) int {
	if len(f.Blocks) == 0 {
		return 0
	}
	reach := analysis.ReachableBlocks(f)
	var dead []*core.BasicBlock
	for _, b := range f.Blocks {
		if !reach[b] {
			dead = append(dead, b)
		}
	}
	if len(dead) == 0 {
		return 0
	}
	// First, detach dead blocks from live phis.
	for _, b := range dead {
		for _, succ := range b.Succs() {
			if reach[succ] {
				succ.RemovePredecessor(b)
			}
		}
	}
	// Dead blocks may reference each other; drop all operands first, then
	// replace any lingering uses of their instructions with undef.
	for _, b := range dead {
		for _, inst := range b.Instrs {
			core.DropOperands(inst)
		}
	}
	for _, b := range dead {
		for _, inst := range b.Instrs {
			if core.HasUses(inst) && inst.Type() != core.VoidType {
				core.ReplaceAllUses(inst, core.NewUndef(inst.Type()))
			}
		}
		f.EraseBlock(b)
	}
	return len(dead)
}

// mergeBlocks merges b's unique successor into b when b ends in an
// unconditional branch and the successor has b as its only predecessor.
func (s *SimplifyCFG) mergeBlocks(f *core.Function) int {
	changed := 0
	for _, b := range append([]*core.BasicBlock(nil), f.Blocks...) {
		if b.Parent() == nil {
			continue
		}
		br, ok := b.Terminator().(*core.BranchInst)
		if !ok || br.IsConditional() {
			continue
		}
		succ := br.TrueDest()
		if succ == b || succ == f.Entry() {
			continue
		}
		preds := succ.Preds()
		if len(preds) != 1 || preds[0] != b {
			continue
		}
		// Fold single-predecessor phis, then splice instructions.
		for _, phi := range succ.Phis() {
			v := phi.IncomingFor(b)
			core.ReplaceAllUses(phi, v)
			succ.Erase(phi)
		}
		b.Erase(br)
		succ.MoveTailTo(0, b)
		// succ's successors now see b as the predecessor; phis referencing
		// succ must be retargeted to b.
		for _, u := range append([]core.Use(nil), succ.Uses()...) {
			if phi, ok := u.User.(*core.PhiInst); ok {
				phi.SetOperand(u.Index, b)
			}
		}
		f.RemoveBlock(succ)
		changed++
	}
	return changed
}

// simplifyPhis removes phis with a single incoming edge.
func (s *SimplifyCFG) simplifyPhis(f *core.Function) int {
	changed := 0
	for _, b := range f.Blocks {
		for _, phi := range b.Phis() {
			if phi.NumIncoming() == 1 {
				v, _ := phi.Incoming(0)
				core.ReplaceAllUses(phi, v)
				b.Erase(phi)
				changed++
			}
		}
	}
	return changed
}
