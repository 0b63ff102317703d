package passes

import (
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/obs"
)

// DefaultInlineThreshold is the callee size (in instructions) below which
// call sites are inlined unconditionally.
const DefaultInlineThreshold = 40

// maxCallerGrowth caps how large a caller may grow through inlining.
const maxCallerGrowth = 3000

// Inline is the function integration pass the paper times in Table 2. It
// processes functions bottom-up over the call graph, splicing callee bodies
// into direct call sites when the callee is small (or has a single caller
// and internal linkage), and deletes internal functions left without
// references — the paper reports "inline inlines 1368 functions (deleting
// 438 which are no longer referenced) in 176.gcc".
type Inline struct {
	Threshold int
	// SingleCallerAlways integrates internal functions with exactly one
	// call site regardless of size (they disappear afterwards, so code
	// never grows). On by default; the ablation bench disables it to
	// isolate the threshold's effect.
	SingleCallerAlways bool
	// NumInlined and NumDeleted report what the last run did; NumMoved
	// counts the integrations that moved a dead callee's body instead of
	// copying it.
	NumInlined int
	NumDeleted int
	NumMoved   int

	rem *obs.Remarks
}

// NewInline returns the pass with the given size threshold.
func NewInline(threshold int) *Inline {
	return &Inline{Threshold: threshold, SingleCallerAlways: true}
}

// Name returns the pass name.
func (*Inline) Name() string { return "inline" }

func (inl *Inline) setRemarks(r *obs.Remarks) { inl.rem = r }

// RunOnModule inlines eligible call sites and removes dead internal
// functions; the returned count is sites inlined plus functions deleted.
func (inl *Inline) RunOnModule(m *core.Module) int {
	return inl.runOnModuleWith(m, nil)
}

func (inl *Inline) runOnModuleWith(m *core.Module, am *analysis.Manager) int {
	inl.NumInlined, inl.NumDeleted, inl.NumMoved = 0, 0, 0
	cg := am.CallGraph(m)
	order := cg.PostOrder()
	// Global-initializer references are missing from use lists and do not
	// change while call sites are integrated, so one scan serves the run.
	addrTaken := analysis.AddressTakenFunctions(m)
	visited := make(map[*core.Function]bool, len(order))
	moved := map[*core.Function]bool{}

	for _, caller := range order {
		if caller.IsDeclaration() {
			continue
		}
		visited[caller] = true
		for {
			site := inl.findSite(caller)
			if site == nil {
				break
			}
			callee := core.CalledFunctionOf(site)
			size := callee.NumInstructions()
			switch s := site.(type) {
			case *core.CallInst:
				if movable(callee, visited, addrTaken) {
					integrateCall(s, true)
					moved[callee] = true
					inl.NumMoved++
				} else {
					InlineCall(s)
				}
			case *core.InvokeInst:
				if !InlineInvoke(s) {
					// A refused invoke site ends this caller's scan, since
					// findSite would return the same site again: sites
					// after it in the caller are not integrated.
					goto nextCaller
				}
			}
			inl.NumInlined++
			if inl.rem.Enabled() {
				inl.rem.Appliedf("inline", diag.Pos{Fn: caller.Name()},
					"inlined call to %%%s (%d instructions)", callee.Name(), size)
			}
		}
	nextCaller:
	}

	// Delete internal functions with no remaining references (references
	// from global initializers do not appear in use lists, so consult the
	// address-taken scan too). A moved callee has no blocks left but is
	// deleted here like any other, so deletions keep their order.
	for changed := true; changed; {
		changed = false
		taken := analysis.AddressTakenFunctions(m)
		for _, f := range append([]*core.Function(nil), m.Funcs...) {
			if f.Linkage == core.InternalLinkage && !core.HasUses(f) && !taken[f] && (moved[f] || !f.IsDeclaration()) {
				if inl.rem.Enabled() {
					inl.rem.Analysisf("inline", diag.Pos{Fn: f.Name()},
						"deleted internal function: no references remain after inlining")
				}
				f.DropBody()
				m.RemoveFunc(f)
				inl.NumDeleted++
				changed = true
			}
		}
	}
	if inl.rem.Enabled() {
		inl.reportMissed(m)
	}
	return inl.NumInlined + inl.NumDeleted
}

// reportMissed scans the call sites that survived inlining and records why
// each defined callee was left alone.
func (inl *Inline) reportMissed(m *core.Module) {
	for _, caller := range m.Funcs {
		if caller.IsDeclaration() {
			continue
		}
		caller.ForEachInst(func(inst core.Instruction) bool {
			switch inst.(type) {
			case *core.CallInst, *core.InvokeInst:
			default:
				return true
			}
			callee := core.CalledFunctionOf(inst)
			if callee == nil || callee.IsDeclaration() || callee == caller {
				return true
			}
			pos := diag.Pos{Fn: caller.Name(), Block: inst.Parent().Name()}
			switch {
			case callee.Sig.Variadic:
				inl.rem.Missedf("inline", pos, "not inlining %%%s: variadic callee", callee.Name())
			case callee.NumInstructions() > inl.Threshold:
				inl.rem.Missedf("inline", pos, "not inlining %%%s: size %d exceeds threshold %d",
					callee.Name(), callee.NumInstructions(), inl.Threshold)
			}
			return true
		})
	}
}

// findSite returns the next inlinable call or invoke site in caller, or nil.
func (inl *Inline) findSite(caller *core.Function) core.Instruction {
	if caller.NumInstructions() > maxCallerGrowth {
		return nil
	}
	var found core.Instruction
	caller.ForEachInst(func(inst core.Instruction) bool {
		switch inst.(type) {
		case *core.CallInst, *core.InvokeInst:
		default:
			return true
		}
		callee := core.CalledFunctionOf(inst)
		if callee == nil || callee.IsDeclaration() || callee == caller {
			return true
		}
		if callee.Sig.Variadic {
			return true // vaarg lowering is call-frame-specific
		}
		size := callee.NumInstructions()
		single := inl.SingleCallerAlways && callee.Linkage == core.InternalLinkage &&
			len(callee.Callers()) == 1 && !callee.HasAddressTaken()
		if size <= inl.Threshold || (single && size <= maxCallerGrowth) {
			// Self-recursive callees never shrink; skip them.
			for _, cs := range callee.Callers() {
				if cs.Parent() != nil && cs.Parent().Parent() == callee {
					return true
				}
			}
			found = inst
			return false
		}
		return true
	})
	return found
}

// movable reports whether integrating callee at its call site may move
// the callee's blocks into the caller instead of copying them: the callee
// is internal, that call is its only reference, and it was already visited
// as a caller in this run, so its body is final. A callee the post-order
// reaches only after its caller (unreachable chains, cycles) is copied:
// its own later visit still inlines into its original body, and moving
// that body away would skip the work and change which callees later
// count as single-caller.
func movable(callee *core.Function, visited, taken map[*core.Function]bool) bool {
	return callee.Linkage == core.InternalLinkage && visited[callee] && !taken[callee] &&
		len(callee.Callers()) == 1 && !callee.HasAddressTaken()
}

// InlineCall splices a copy of the (direct, non-variadic) callee's body
// into the call site; the callee is left unchanged. The call instruction
// is destroyed.
func InlineCall(call *core.CallInst) { integrateCall(call, false) }

// integrateCall replaces call with the callee's body: a copy, or with move
// the callee's own blocks, which leaves the callee without a body.
func integrateCall(call *core.CallInst, move bool) {
	callee := call.CalledFunction()
	callBlock := call.Parent()
	caller := callBlock.Parent()

	// Split the block after the call.
	after := core.NewBlock(callBlock.Name() + ".after")
	caller.InsertBlockAfter(after, callBlock)
	callBlock.MoveTailTo(callBlock.IndexOf(call)+1, after)
	// Phis in old successors now see 'after' as the predecessor.
	for _, u := range append([]core.Use(nil), callBlock.Uses()...) {
		if phi, ok := u.User.(*core.PhiInst); ok && phi.Parent() != nil {
			phi.SetOperand(u.Index, after)
		}
	}

	// Bind the arguments and place the body after the split.
	var body []*core.BasicBlock
	if move {
		for i, a := range callee.Args {
			core.ReplaceAllUses(a, call.Args()[i])
		}
		body = callee.TakeBlocks()
	} else {
		vmap := map[core.Value]core.Value{}
		for i, a := range callee.Args {
			vmap[a] = call.Args()[i]
		}
		body = core.CloneBlocks(callee, vmap)
	}
	caller.InsertBlocksAfter(after, body...)

	// Rewrite returns into branches to 'after', collecting return values.
	type retEdge struct {
		val  core.Value
		from *core.BasicBlock
	}
	var rets []retEdge
	for _, nb := range body {
		ret, ok := nb.Terminator().(*core.RetInst)
		if !ok {
			continue
		}
		rets = append(rets, retEdge{ret.Value(), nb})
		nb.Erase(ret)
		nb.Append(core.NewBr(after))
	}

	// Bind the call result.
	if call.Type() != core.VoidType {
		var result core.Value
		switch len(rets) {
		case 0:
			result = core.NewUndef(call.Type())
		case 1:
			result = rets[0].val
		default:
			phi := core.NewPhi(call.Type())
			phi.SetName(call.Name())
			for _, re := range rets {
				phi.AddIncoming(re.val, re.from)
			}
			after.InsertAt(0, phi)
			result = phi
		}
		core.ReplaceAllUses(call, result)
	}

	// Replace the call with a branch into the inlined entry.
	callBlock.Erase(call)
	callBlock.Append(core.NewBr(body[0]))
}
