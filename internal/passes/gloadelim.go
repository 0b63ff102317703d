package passes

import (
	"repro/internal/analysis"
	"repro/internal/core"
)

// GlobalLoadElim eliminates redundant loads of global variables using the
// interprocedural Mod/Ref analysis (§3.3): a reload of a global is
// replaced by the previously loaded (or stored) value when no intervening
// instruction — including calls, checked against the callee's Mod set —
// can have modified it. Loads of constant globals are always reusable.
type GlobalLoadElim struct{}

// NewGlobalLoadElim returns the pass.
func NewGlobalLoadElim() *GlobalLoadElim { return &GlobalLoadElim{} }

// Name returns the pass name.
func (*GlobalLoadElim) Name() string { return "gloadelim" }

// RunOnModule eliminates redundant global loads in every function.
func (p *GlobalLoadElim) RunOnModule(m *core.Module) int {
	return p.runOnModuleWith(m, nil)
}

func (p *GlobalLoadElim) runOnModuleWith(m *core.Module, am *analysis.Manager) int {
	mr := am.ModRef(m)
	changed := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			changed += p.runBlock(b, mr)
		}
	}
	return changed
}

func (p *GlobalLoadElim) runBlock(b *core.BasicBlock, mr map[*core.Function]*analysis.ModRefInfo) int {
	// known maps a global to the value its scalar cell currently holds.
	known := map[*core.GlobalVariable]core.Value{}
	changed := 0

	invalidateAll := func() {
		for g := range known {
			if !g.IsConst {
				delete(known, g)
			}
		}
	}

	for _, inst := range append([]core.Instruction(nil), b.Instrs...) {
		switch i := inst.(type) {
		case *core.LoadInst:
			g, direct := i.Ptr().(*core.GlobalVariable)
			if !direct {
				continue
			}
			if v, ok := known[g]; ok {
				core.ReplaceAllUses(i, v)
				b.Erase(i)
				changed++
				continue
			}
			known[g] = i

		case *core.StoreInst:
			if g, direct := i.Ptr().(*core.GlobalVariable); direct {
				known[g] = i.Val()
				continue
			}
			// A store through an arbitrary pointer may alias any
			// non-constant global (unless it provably targets the frame).
			if !storesToFrame(i.Ptr()) {
				invalidateAll()
			}

		case *core.CallInst:
			p.applyCallEffects(i.Callee(), i.Args(), known, mr, invalidateAll)
		case *core.InvokeInst:
			p.applyCallEffects(i.Callee(), i.Args(), known, mr, invalidateAll)
		case *core.VAArgInst, *core.FreeInst:
			// free cannot legally target a global; vaarg reads only.
		}
	}
	return changed
}

func (p *GlobalLoadElim) applyCallEffects(callee core.Value, args []core.Value,
	known map[*core.GlobalVariable]core.Value, mr map[*core.Function]*analysis.ModRefInfo,
	invalidateAll func()) {
	targets, ok := analysis.CallTargets(callee)
	if !ok {
		// Unresolvable indirect call: anything may be written.
		invalidateAll()
		return
	}
	// Per-argument summaries: a callee that writes only through pointer
	// arguments invalidates just the globals those actuals may address,
	// not every known global.
	for g := range known {
		if g.IsConst {
			continue
		}
		for _, t := range targets {
			if analysis.CallWritesGlobal(mr[t], args, g) {
				delete(known, g)
				break
			}
		}
	}
}

// storesToFrame reports whether the pointer provably addresses a local
// alloca (so the store cannot touch any global).
func storesToFrame(ptr core.Value) bool {
	for {
		switch v := ptr.(type) {
		case *core.AllocaInst:
			return true
		case *core.GetElementPtrInst:
			ptr = v.Base()
		case *core.CastInst:
			if v.Val().Type().Kind() != core.PointerKind {
				return false
			}
			ptr = v.Val()
		default:
			return false
		}
	}
}
