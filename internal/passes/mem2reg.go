package passes

import (
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/obs"
)

// Mem2Reg is the stack promotion pass (§3.2): front-ends allocate local
// variables with alloca and access them with load/store; this pass rewrites
// allocas whose address does not escape into SSA virtual registers,
// inserting φ-functions at iterated dominance frontiers (Cytron et al.)
// and renaming along the dominator tree.
type Mem2Reg struct {
	rem *obs.Remarks
}

// NewMem2Reg returns the pass.
func NewMem2Reg() *Mem2Reg { return &Mem2Reg{} }

// Name returns the pass name.
func (*Mem2Reg) Name() string { return "mem2reg" }

func (m *Mem2Reg) setRemarks(r *obs.Remarks) { m.rem = r }

// RunOnFunction promotes every promotable alloca; the returned count is the
// number of allocas promoted.
func (m *Mem2Reg) RunOnFunction(f *core.Function) int {
	return m.runOnFunctionWith(f, nil)
}

func (m *Mem2Reg) runOnFunctionWith(f *core.Function, am *analysis.Manager) int {
	if len(f.Blocks) == 0 {
		return 0
	}
	var promotable []*core.AllocaInst
	for _, inst := range f.Entry().Instrs {
		a, ok := inst.(*core.AllocaInst)
		if !ok {
			continue
		}
		if reason := promotionBlocker(a); reason == "" {
			promotable = append(promotable, a)
		} else if m.rem.Enabled() {
			m.rem.Missedf("mem2reg", diag.Pos{Fn: f.Name(), Block: f.Entry().Name()},
				"%%%s not promoted: %s", a.Name(), reason)
		}
	}
	if len(promotable) == 0 {
		return 0
	}
	dt := am.DomTree(f)
	df := am.DomFrontier(f)
	phis := promote(f, promotable, dt, df)
	if m.rem.Enabled() {
		for k, a := range promotable {
			m.rem.Appliedf("mem2reg", diag.Pos{Fn: f.Name(), Block: f.Entry().Name()},
				"promoted %%%s to register (%d phis)", a.Name(), len(phis[k]))
		}
	}
	return len(promotable)
}

// promotionBlocker reports why the alloca cannot live in a register ("" =
// promotable): it must be a single first-class element whose address is
// used only by loads and full-width stores (and never stored itself).
func promotionBlocker(a *core.AllocaInst) string {
	if a.NumElems() != nil {
		return "array allocation"
	}
	if !core.IsFirstClass(a.AllocType) {
		return "aggregate type " + a.AllocType.String()
	}
	for _, u := range a.Uses() {
		switch inst := u.User.(type) {
		case *core.LoadInst:
			// ok
		case *core.StoreInst:
			if inst.Val() == core.Value(a) {
				return "address is stored"
			}
		default:
			return "address escapes" // GEP, cast, call argument, ...
		}
	}
	return ""
}

// renameStep is one edit the renaming walk found for alloca k: replace
// and erase a load, erase a store, or add a phi incoming edge. val is the
// value as the walk saw it, before earlier allocas' loads are resolved.
type renameStep struct {
	k    int
	inst core.Instruction // the load or store; nil for a phi edge
	val  core.Value
	phi  *core.PhiInst
	from *core.BasicBlock
}

// placedPhi is the φ of alloca k at the head of a block.
type placedPhi struct {
	k   int
	phi *core.PhiInst
}

// promote rewrites the allocas into SSA form and returns the φ-functions
// inserted for each.
//
// It places every alloca's φs at the iterated dominance frontier of its
// stores, then renames all of them in one walk over the dominator tree,
// which records each alloca's edits. The edits are then applied alloca by
// alloca, in walk order, each value resolved through the loads of the
// allocas already rewritten. That is the exact sequence of IR edits one
// walk per alloca makes, so φ order, incoming order and every use list
// come out the same.
func promote(f *core.Function, allocas []*core.AllocaInst, dt *analysis.DomTree, df analysis.DomFrontier) [][]*core.PhiInst {
	nb, ni := f.NumBlockIDs(), f.NumInstIDs()
	slot := make([]int32, ni) // by alloca ID: 1 + its index in allocas
	for k, a := range allocas {
		slot[a.ID()] = int32(k + 1)
	}
	// allocaOf returns the index of the promoted alloca inst loads from
	// or stores to, or -1.
	allocaOf := func(inst core.Instruction) int {
		var ptr core.Value
		switch i := inst.(type) {
		case *core.LoadInst:
			ptr = i.Ptr()
		case *core.StoreInst:
			ptr = i.Ptr()
		default:
			return -1
		}
		if a, ok := ptr.(*core.AllocaInst); ok {
			return int(slot[a.ID()]) - 1
		}
		return -1
	}

	// Insert φ at the iterated dominance frontier of each alloca's def
	// blocks. hasPhi and queued hold, by block ID, 1 + the index of the
	// last alloca that placed a φ there or queued the block.
	phis := make([][]*core.PhiInst, len(allocas))
	atHead := make([][]placedPhi, nb) // by block ID, in placement order
	hasPhi := make([]int32, nb)
	queued := make([]int32, nb)
	var work []*core.BasicBlock
	for k, a := range allocas {
		stamp := int32(k + 1)
		work = work[:0]
		for _, u := range a.Uses() {
			if st, ok := u.User.(*core.StoreInst); ok && queued[st.Parent().ID()] != stamp {
				queued[st.Parent().ID()] = stamp
				work = append(work, st.Parent())
			}
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, fr := range df[b] {
				if hasPhi[fr.ID()] == stamp {
					continue
				}
				phi := core.NewPhi(a.AllocType)
				phi.SetName(a.Name() + ".phi")
				fr.InsertAt(0, phi)
				hasPhi[fr.ID()] = stamp
				atHead[fr.ID()] = append(atHead[fr.ID()], placedPhi{k, phi})
				phis[k] = append(phis[k], phi)
				if queued[fr.ID()] != stamp {
					queued[fr.ID()] = stamp
					work = append(work, fr)
				}
			}
		}
	}

	// Rename: one walk of the dominator tree carrying every alloca's
	// current value; undo restores the values on the way back up.
	cur := make([]core.Value, len(allocas))
	nuses := 0
	for k, a := range allocas {
		cur[k] = core.NewUndef(a.AllocType)
		nuses += core.NumUses(a)
	}
	steps := make([]renameStep, 0, nuses)
	loadOf := make([]int32, ni) // by load ID: 1 + the alloca it reads
	repl := make([]core.Value, ni)
	type saved struct {
		k int
		v core.Value
	}
	var undo []saved
	set := func(k int, v core.Value) {
		undo = append(undo, saved{k, cur[k]})
		cur[k] = v
	}
	var rename func(b *core.BasicBlock)
	rename = func(b *core.BasicBlock) {
		mark := len(undo)
		for _, p := range atHead[b.ID()] {
			set(p.k, p.phi)
		}
		for _, inst := range b.Instrs {
			k := allocaOf(inst)
			if k < 0 {
				continue
			}
			if st, ok := inst.(*core.StoreInst); ok {
				steps = append(steps, renameStep{k: k, inst: st})
				set(k, st.Val())
				continue
			}
			steps = append(steps, renameStep{k: k, inst: inst, val: cur[k]})
			loadOf[inst.ID()] = int32(k + 1)
			repl[inst.ID()] = cur[k]
		}
		for i, n := 0, b.NumSuccs(); i < n; i++ {
			for _, p := range atHead[b.Succ(i).ID()] {
				steps = append(steps, renameStep{k: p.k, val: cur[p.k], phi: p.phi, from: b})
			}
		}
		for _, child := range dt.Children(b) {
			rename(child)
		}
		for len(undo) > mark {
			s := undo[len(undo)-1]
			cur[s.k] = s.v
			undo = undo[:len(undo)-1]
		}
	}
	rename(f.Entry())

	// resolve returns what v is once the loads of allocas 0..k that the
	// walk visited have been replaced: a value the walk saw is either
	// such a load, replaced by the value current at it, or final.
	resolve := func(v core.Value, k int) core.Value {
		for {
			l, ok := v.(*core.LoadInst)
			if !ok || loadOf[l.ID()] == 0 || int(loadOf[l.ID()]) > k+1 {
				return v
			}
			v = repl[l.ID()]
		}
	}

	// Group the steps by alloca, each group in walk order.
	start := make([]int32, len(allocas)+1)
	for _, s := range steps {
		start[s.k+1]++
	}
	for k := range allocas {
		start[k+1] += start[k]
	}
	order := make([]int32, len(steps))
	next := append([]int32(nil), start[:len(allocas)]...)
	for i, s := range steps {
		order[next[s.k]] = int32(i)
		next[s.k]++
	}

	for k, a := range allocas {
		t := a.AllocType
		for _, n := range order[start[k]:start[k+1]] {
			s := &steps[n]
			switch i := s.inst.(type) {
			case *core.LoadInst:
				core.ReplaceAllUses(i, resolve(s.val, k))
				i.Parent().Erase(i)
			case *core.StoreInst:
				i.Parent().Erase(i)
			default:
				s.phi.AddIncoming(resolve(s.val, k), s.from)
			}
		}

		// Successor lists may repeat a block (e.g. a conditional branch
		// with both edges to one target), which added duplicate incoming
		// edges; keep the last entry per predecessor.
		for _, phi := range phis[k] {
			dedupIncoming(phi)
		}

		// Loads/stores in unreachable blocks were not visited by the
		// renamer; drop them so the alloca has no uses left.
		for _, u := range append([]core.Use(nil), a.Uses()...) {
			switch inst := u.User.(type) {
			case *core.LoadInst:
				core.ReplaceAllUses(inst, core.NewUndef(t))
				inst.Parent().Erase(inst)
			case *core.StoreInst:
				inst.Parent().Erase(inst)
			}
		}
		f.Entry().Erase(a)
	}
	return phis
}

// dedupIncoming removes all but the last incoming entry of each
// predecessor of phi.
func dedupIncoming(phi *core.PhiInst) {
	for n := phi.NumIncoming() - 1; n >= 0; n-- {
		_, blk := phi.Incoming(n)
		for later := n + 1; later < phi.NumIncoming(); later++ {
			if _, b := phi.Incoming(later); b == blk {
				phi.RemoveIncoming(n)
				break
			}
		}
	}
}
