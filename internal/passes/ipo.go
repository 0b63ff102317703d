package passes

import (
	"repro/internal/analysis"
	"repro/internal/core"
)

// ---------------------------------------------------------------------------
// Dead Global Elimination (DGE)

// DeadGlobalElim is the aggressive dead global variable and function
// elimination pass of Table 2: objects are assumed dead until proven
// reachable from an externally-visible root, so dead cycles (mutually
// recursive dead functions, globals pointing at each other) are deleted
// too (footnote 9 of the paper).
type DeadGlobalElim struct {
	// NumFuncs and NumGlobals report what the last run deleted.
	NumFuncs   int
	NumGlobals int
}

// NewDeadGlobalElim returns the pass.
func NewDeadGlobalElim() *DeadGlobalElim { return &DeadGlobalElim{} }

// Name returns the pass name.
func (*DeadGlobalElim) Name() string { return "dge" }

// RunOnModule deletes unreferenced internal globals and functions.
func (d *DeadGlobalElim) RunOnModule(m *core.Module) int {
	d.NumFuncs, d.NumGlobals = 0, 0
	liveF := map[*core.Function]bool{}
	liveG := map[*core.GlobalVariable]bool{}
	var work []core.Value

	root := func(v core.Value) {
		switch x := v.(type) {
		case *core.Function:
			if !liveF[x] {
				liveF[x] = true
				work = append(work, x)
			}
		case *core.GlobalVariable:
			if !liveG[x] {
				liveG[x] = true
				work = append(work, x)
			}
		}
	}

	// Roots: externally visible symbols.
	for _, f := range m.Funcs {
		if f.Linkage == core.ExternalLinkage {
			root(f)
		}
	}
	for _, g := range m.Globals {
		if g.Linkage == core.ExternalLinkage {
			root(g)
		}
	}

	var scanConst func(c core.Constant)
	scanConst = func(c core.Constant) {
		switch cc := c.(type) {
		case *core.Function, *core.GlobalVariable:
			root(cc)
		case *core.ConstantArray:
			for _, e := range cc.Elems {
				scanConst(e)
			}
		case *core.ConstantStruct:
			for _, f := range cc.Fields {
				scanConst(f)
			}
		case *core.ConstantExpr:
			for _, op := range cc.Operands() {
				if oc, ok := op.(core.Constant); ok {
					scanConst(oc)
				}
			}
		}
	}

	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		switch x := v.(type) {
		case *core.Function:
			x.ForEachInst(func(inst core.Instruction) bool {
				for _, op := range inst.Operands() {
					if c, ok := op.(core.Constant); ok {
						scanConst(c)
					}
				}
				return true
			})
		case *core.GlobalVariable:
			if x.Init != nil {
				scanConst(x.Init)
			}
		}
	}

	// Delete dead objects: clear bodies/initializers first so dead cycles
	// release their references, then unlink.
	var deadF []*core.Function
	var deadG []*core.GlobalVariable
	for _, f := range m.Funcs {
		if !liveF[f] {
			deadF = append(deadF, f)
		}
	}
	for _, g := range m.Globals {
		if !liveG[g] {
			deadG = append(deadG, g)
		}
	}
	for _, f := range deadF {
		f.DropBody()
	}
	for _, g := range deadG {
		g.SetInit(nil)
	}
	for _, f := range deadF {
		m.RemoveFunc(f)
		d.NumFuncs++
	}
	for _, g := range deadG {
		m.RemoveGlobal(g)
		d.NumGlobals++
	}
	return d.NumFuncs + d.NumGlobals
}

// ---------------------------------------------------------------------------
// Dead Argument (and return value) Elimination (DAE)

// DeadArgElim removes never-used formal arguments of internal functions,
// and demotes return values that no caller reads to void — the "aggressive
// Dead Argument and return value Elimination" of Table 2. Call sites are
// rewritten to match the new signature.
type DeadArgElim struct {
	// NumArgs and NumRets report what the last run removed.
	NumArgs int
	NumRets int
}

// NewDeadArgElim returns the pass.
func NewDeadArgElim() *DeadArgElim { return &DeadArgElim{} }

// Name returns the pass name.
func (*DeadArgElim) Name() string { return "dae" }

// RunOnModule rewrites eligible functions and their call sites.
func (d *DeadArgElim) RunOnModule(m *core.Module) int {
	d.NumArgs, d.NumRets = 0, 0
	taken := analysis.AddressTakenFunctions(m)
	for _, f := range append([]*core.Function(nil), m.Funcs...) {
		if f.Linkage != core.InternalLinkage || f.IsDeclaration() || taken[f] || f.Sig.Variadic {
			continue
		}
		deadArgs := make([]bool, len(f.Args))
		nDead := 0
		for i, a := range f.Args {
			if !core.HasUses(a) {
				deadArgs[i] = true
				nDead++
			}
		}
		deadRet := false
		if f.Sig.Ret != core.VoidType {
			deadRet = true
			for _, site := range f.Callers() {
				if core.HasUses(site) {
					deadRet = false
					break
				}
			}
		}
		if nDead == 0 && !deadRet {
			continue
		}
		d.rewrite(m, f, deadArgs, deadRet)
		d.NumArgs += nDead
		if deadRet {
			d.NumRets++
		}
	}
	return d.NumArgs + d.NumRets
}

func (d *DeadArgElim) rewrite(m *core.Module, f *core.Function, deadArgs []bool, deadRet bool) {
	// Build the new signature.
	ret := f.Sig.Ret
	if deadRet {
		ret = core.VoidType
	}
	var params []core.Type
	for i, p := range f.Sig.Params {
		if !deadArgs[i] {
			params = append(params, p)
		}
	}
	newSig := core.NewFunctionType(ret, params...)

	name := f.Name()
	nf := core.NewFunction(m.UniqueSymbol(name+".dae"), newSig)
	nf.SetLinkage(f.Linkage)
	// Move the body wholesale: blocks keep their instructions; only
	// argument references and (if deadRet) rets change.
	k := 0
	for i, a := range f.Args {
		if deadArgs[i] {
			continue // no uses by construction
		}
		nf.Args[k].SetName(a.Name())
		core.ReplaceAllUses(a, nf.Args[k])
		k++
	}
	for _, b := range f.TakeBlocks() {
		nf.AddBlock(b)
	}
	if deadRet {
		for _, b := range nf.Blocks {
			if ret, ok := b.Terminator().(*core.RetInst); ok && ret.Value() != nil {
				b.Erase(ret)
				b.Append(core.NewRet(nil))
			}
		}
	}
	m.AddFunc(nf)

	// Rewrite call sites.
	for _, site := range append([]core.Instruction(nil), f.Callers()...) {
		blk := site.Parent()
		idx := blk.IndexOf(site)
		switch call := site.(type) {
		case *core.CallInst:
			var args []core.Value
			for i, a := range call.Args() {
				if !deadArgs[i] {
					args = append(args, a)
				}
			}
			nc := core.NewCall(nf, args...)
			nc.SetName(call.Name())
			blk.InsertAt(idx, nc)
			if !deadRet && call.Type() != core.VoidType {
				core.ReplaceAllUses(call, nc)
			}
			blk.Erase(call)
		case *core.InvokeInst:
			var args []core.Value
			for i, a := range call.Args() {
				if !deadArgs[i] {
					args = append(args, a)
				}
			}
			ni := core.NewInvoke(nf, args, call.NormalDest(), call.UnwindDest())
			ni.SetName(call.Name())
			blk.InsertAt(idx, ni)
			if !deadRet && call.Type() != core.VoidType {
				core.ReplaceAllUses(call, ni)
			}
			blk.Erase(call)
		}
	}

	m.RemoveFunc(f)
	m.RenameFunc(nf, name)
}

// ---------------------------------------------------------------------------
// Interprocedural constant propagation (IPCP)

// IPConstProp propagates constants across calls: when every call site of an
// internal function passes the same constant for a parameter, uses of that
// parameter are replaced by the constant (DAE then deletes the parameter).
type IPConstProp struct{}

// NewIPConstProp returns the pass.
func NewIPConstProp() *IPConstProp { return &IPConstProp{} }

// Name returns the pass name.
func (*IPConstProp) Name() string { return "ipcp" }

// RunOnModule replaces provably-constant parameters.
func (p *IPConstProp) RunOnModule(m *core.Module) int {
	changed := 0
	taken := analysis.AddressTakenFunctions(m)
	for _, f := range m.Funcs {
		if f.Linkage != core.InternalLinkage || f.IsDeclaration() || taken[f] {
			continue
		}
		sites := f.Callers()
		if len(sites) == 0 {
			continue
		}
		for i, a := range f.Args {
			if !core.HasUses(a) {
				continue
			}
			var common core.Constant
			ok := true
			for _, site := range sites {
				var arg core.Value
				switch c := site.(type) {
				case *core.CallInst:
					arg = c.Args()[i]
				case *core.InvokeInst:
					arg = c.Args()[i]
				}
				c, isC := arg.(core.Constant)
				if !isC {
					ok = false
					break
				}
				switch c.(type) {
				case *core.ConstantInt, *core.ConstantFloat, *core.ConstantBool, *core.ConstantNull:
				default:
					ok = false
				}
				if !ok {
					break
				}
				if common == nil {
					common = c
				} else if !constEq(common, c) {
					ok = false
					break
				}
			}
			if ok && common != nil {
				core.ReplaceAllUses(a, common)
				changed++
			}
		}
	}
	return changed
}

// ---------------------------------------------------------------------------
// Dead type elimination

// DeadTypeElim removes named types from the module symbol table that are
// not used by any global, function signature, or instruction — one of the
// link-time interprocedural transformations listed in §3.3.
type DeadTypeElim struct{}

// NewDeadTypeElim returns the pass.
func NewDeadTypeElim() *DeadTypeElim { return &DeadTypeElim{} }

// Name returns the pass name.
func (*DeadTypeElim) Name() string { return "deadtypeelim" }

// RunOnModule drops unused named types.
func (d *DeadTypeElim) RunOnModule(m *core.Module) int {
	used := map[core.Type]bool{}
	var mark func(t core.Type)
	mark = func(t core.Type) {
		if t == nil || used[t] {
			return
		}
		used[t] = true
		switch tt := t.(type) {
		case *core.PointerType:
			mark(tt.Elem)
		case *core.ArrayType:
			mark(tt.Elem)
		case *core.StructType:
			for _, f := range tt.Fields {
				mark(f)
			}
		case *core.FunctionType:
			mark(tt.Ret)
			for _, p := range tt.Params {
				mark(p)
			}
		}
	}
	for _, g := range m.Globals {
		mark(g.ValueType)
	}
	for _, f := range m.Funcs {
		mark(f.Sig)
		f.ForEachInst(func(inst core.Instruction) bool {
			mark(inst.Type())
			switch i := inst.(type) {
			case *core.MallocInst:
				mark(i.AllocType)
			case *core.AllocaInst:
				mark(i.AllocType)
			}
			for _, op := range inst.Operands() {
				if op != nil {
					mark(op.Type())
				}
			}
			return true
		})
	}

	removed := 0
	for _, name := range append([]string(nil), m.TypeNames()...) {
		t, _ := m.NamedType(name)
		if !used[t] {
			m.RemoveTypeName(name)
			removed++
		}
	}
	return removed
}

// ---------------------------------------------------------------------------
// Exception-handler pruning

// PruneEH uses the interprocedural may-unwind analysis to turn invokes of
// functions that provably cannot unwind into plain calls, making their
// exception handlers unreachable (§4.1.2: interprocedural analysis lets
// LLVM "eliminate unused exception handlers", which a per-module
// source-level compiler cannot do).
type PruneEH struct{}

// NewPruneEH returns the pass.
func NewPruneEH() *PruneEH { return &PruneEH{} }

// Name returns the pass name.
func (*PruneEH) Name() string { return "pruneeh" }

// RunOnModule devolves invokes whose callee cannot unwind.
func (p *PruneEH) RunOnModule(m *core.Module) int {
	return p.runOnModuleWith(m, nil)
}

func (p *PruneEH) runOnModuleWith(m *core.Module, am *analysis.Manager) int {
	cg := am.CallGraph(m)
	may := cg.MayUnwind()
	changed := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			inv, ok := b.Terminator().(*core.InvokeInst)
			if !ok {
				continue
			}
			callee := inv.Callee().(core.Value)
			target, direct := callee.(*core.Function)
			if !direct || may[target] {
				continue
			}
			normal, uw := inv.NormalDest(), inv.UnwindDest()
			call := core.NewCall(inv.Callee(), inv.Args()...)
			call.SetName(inv.Name())
			idx := b.IndexOf(inv)
			b.InsertAt(idx, call)
			if inv.Type() != core.VoidType {
				core.ReplaceAllUses(inv, call)
			}
			b.Erase(inv)
			b.Append(core.NewBr(normal))
			if uw != normal {
				uw.RemovePredecessor(b)
			}
			changed++
		}
	}
	return changed
}

// ---------------------------------------------------------------------------
// Internalize

// Internalize gives internal linkage to every definition except the listed
// entry points; the linker runs it after merging a whole program so the
// interprocedural passes may assume no external callers (§3.3).
type Internalize struct{ Keep map[string]bool }

// NewInternalize returns the pass; entries lists symbols to keep external
// ("main" is always kept).
func NewInternalize(entries ...string) *Internalize {
	keep := map[string]bool{"main": true}
	for _, e := range entries {
		keep[e] = true
	}
	return &Internalize{Keep: keep}
}

// Name returns the pass name.
func (*Internalize) Name() string { return "internalize" }

// RunOnModule marks non-entry definitions internal.
func (p *Internalize) RunOnModule(m *core.Module) int {
	changed := 0
	for _, f := range m.Funcs {
		if !f.IsDeclaration() && !p.Keep[f.Name()] && f.Linkage != core.InternalLinkage {
			f.SetLinkage(core.InternalLinkage)
			changed++
		}
	}
	for _, g := range m.Globals {
		if !g.IsDeclaration() && !p.Keep[g.Name()] && g.Linkage != core.InternalLinkage {
			g.SetLinkage(core.InternalLinkage)
			changed++
		}
	}
	return changed
}
