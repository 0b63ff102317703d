package passes

import (
	"repro/internal/analysis"
	"repro/internal/core"
)

// InlineInvoke integrates a callee at an *invoke* site. This is the
// transformation §2.4 of the paper highlights: "this allows LLVM to turn
// stack unwinding operations into direct branches when the unwind target
// is the same function as the unwinder (this often occurs due to
// inlining)". Concretely:
//
//   - the callee's ret instructions become branches to the invoke's normal
//     destination (via a stub carrying the result φ);
//   - the callee's unwind instructions become *direct branches* to the
//     invoke's unwind destination — no dynamic unwinding remains;
//   - calls inside the callee that could unwind are converted to invokes
//     whose unwind edge is the invoke's unwind destination, preserving the
//     handler's reach over the inlined body.
//
// It reports false (without modifying anything) when the site is not
// safely inlinable (indirect callee, declaration, recursion, or a result
// used outside the region dominated by the normal destination).
func InlineInvoke(inv *core.InvokeInst) bool {
	callee, ok := inv.Callee().(*core.Function)
	if !ok || callee.IsDeclaration() || callee.Sig.Variadic {
		return false
	}
	caller := inv.Parent().Parent()
	if callee == caller {
		return false
	}

	// Guard: every use of the invoke's result must be dominated by the
	// normal destination (a φ in the normal dest counts). Uses reachable
	// through the unwind path would not see the replacement φ.
	if inv.Type() != core.VoidType && core.HasUses(inv) {
		dt := analysis.NewDomTree(caller)
		normal := inv.NormalDest()
		for _, u := range inv.Uses() {
			user, isInst := u.User.(core.Instruction)
			if !isInst || user.Parent() == nil {
				return false
			}
			if phi, isPhi := user.(*core.PhiInst); isPhi {
				if phi.Parent() == normal {
					continue
				}
			}
			if !dt.Dominates(normal, user.Parent()) {
				return false
			}
		}
	}

	invBlock := inv.Parent()
	normal, unwindDest := inv.NormalDest(), inv.UnwindDest()

	// Stub blocks so φ edges in the original destinations stay single.
	retStub := core.NewBlock(invBlock.Name() + ".inlret")
	caller.InsertBlockAfter(retStub, invBlock)
	uwStub := core.NewBlock(invBlock.Name() + ".inluw")
	caller.InsertBlockAfter(uwStub, retStub)

	// Retarget destination φs from the invoke block to the stubs.
	retargetPhis(normal, invBlock, retStub)
	retargetPhis(unwindDest, invBlock, uwStub)

	// Clone the callee with arguments bound.
	vmap := map[core.Value]core.Value{}
	for i, a := range callee.Args {
		vmap[a] = inv.Args()[i]
	}
	clones := core.CloneBlocks(callee, vmap)
	caller.InsertBlocksAfter(uwStub, clones...)

	// First, convert interior calls to invokes routing their unwind edge
	// to the handler: split the block after each call and continue
	// scanning in the continuation (appended to the worklist).
	for ci := 0; ci < len(clones); ci++ {
		nb := clones[ci]
		for k := 0; k < len(nb.Instrs); k++ {
			call, isCall := nb.Instrs[k].(*core.CallInst)
			if !isCall {
				continue
			}
			cont := core.NewBlock(nb.Name() + ".cont")
			caller.InsertBlockAfter(cont, nb)
			nb.MoveTailTo(k+1, cont)
			niv := core.NewInvoke(call.Callee(), call.Args(), cont, uwStub)
			niv.SetName(call.Name())
			if call.Type() != core.VoidType {
				core.ReplaceAllUses(call, niv)
			}
			nb.Erase(call)
			nb.Append(niv)
			clones = append(clones, cont)
			break
		}
	}

	// Then rewrite rets and unwinds over the final block list.
	type retEdge struct {
		val  core.Value
		from *core.BasicBlock
	}
	var rets []retEdge
	for _, nb := range clones {
		switch t := nb.Terminator().(type) {
		case *core.RetInst:
			rets = append(rets, retEdge{t.Value(), nb})
			nb.Erase(t)
			nb.Append(core.NewBr(retStub))
		case *core.UnwindInst:
			// The paper's headline: unwinding becomes a direct branch.
			nb.Erase(t)
			nb.Append(core.NewBr(uwStub))
		}
	}

	// Bind the result via a φ in the ret stub.
	if inv.Type() != core.VoidType {
		var result core.Value
		switch len(rets) {
		case 0:
			result = core.NewUndef(inv.Type())
		case 1:
			result = rets[0].val
		default:
			phi := core.NewPhi(inv.Type())
			phi.SetName(inv.Name())
			for _, re := range rets {
				phi.AddIncoming(re.val, re.from)
			}
			retStub.InsertAt(0, phi)
			result = phi
		}
		core.ReplaceAllUses(inv, result)
	}
	retStub.Append(core.NewBr(normal))
	uwStub.Append(core.NewBr(unwindDest))

	// Replace the invoke with a branch into the inlined body.
	invBlock.Erase(inv)
	invBlock.Append(core.NewBr(clones[0]))

	// Unreachable stubs (no rets, or nothing unwinds) are left for
	// simplifycfg to sweep.
	return true
}

// retargetPhis rewrites φ entries in dest that name oldPred to newPred.
func retargetPhis(dest, oldPred, newPred *core.BasicBlock) {
	for _, phi := range dest.Phis() {
		for n := 0; n < phi.NumIncoming(); n++ {
			if _, blk := phi.Incoming(n); blk == oldPred {
				phi.SetOperand(2*n+1, newPred)
			}
		}
	}
}
