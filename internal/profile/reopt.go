package profile

import (
	"sort"

	"repro/internal/core"
	"repro/internal/passes"
)

// ReoptOptions controls the offline (idle-time) reoptimizer of §3.6: "a
// modified version of the link-time interprocedural optimizer, but with a
// greater emphasis on profile-driven and target-specific optimizations".
type ReoptOptions struct {
	// HotCallFraction: call sites in blocks whose count is at least this
	// fraction of the profile total are inlined regardless of callee size
	// (bounded by MaxCalleeSize).
	HotCallFraction float64
	// MaxCalleeSize bounds profile-guided inlining.
	MaxCalleeSize int
	// LayoutBlocks reorders each function's blocks hottest-first (entry
	// stays first), improving locality in generated code.
	LayoutBlocks bool
}

// DefaultReoptOptions returns the standard configuration.
func DefaultReoptOptions() ReoptOptions {
	return ReoptOptions{HotCallFraction: 0.01, MaxCalleeSize: 400, LayoutBlocks: true}
}

// ReoptResult reports what the reoptimizer did.
type ReoptResult struct {
	HotInlined int
	Reordered  int
	ScalarOpts int
}

// Reoptimize applies end-user-profile-driven optimization to a module,
// with d bound to that module's own blocks (Counts.Bind).
func Reoptimize(m *core.Module, d *Data, opts ReoptOptions) ReoptResult {
	var res ReoptResult
	if d.Total == 0 {
		return res
	}
	threshold := int64(float64(d.Total) * opts.HotCallFraction)
	if threshold < 1 {
		threshold = 1
	}

	// Profile-guided inlining: unlike the static inliner's size heuristic,
	// hot call sites justify much larger callees.
	for _, f := range append([]*core.Function(nil), m.Funcs...) {
		if f.IsDeclaration() {
			continue
		}
		for {
			site := findHotSite(f, d, threshold, opts.MaxCalleeSize)
			if site == nil {
				break
			}
			passes.InlineCall(site)
			res.HotInlined++
		}
	}

	// Clean up the inlined bodies.
	pm := passes.NewPassManager()
	pm.AddStandardPipeline()
	n, _ := pm.Run(m)
	res.ScalarOpts = n

	if opts.LayoutBlocks {
		for _, f := range m.Funcs {
			if layoutHotFirst(f, d) {
				res.Reordered++
			}
		}
	}
	return res
}

// findHotSite locates a direct call in a hot block whose callee is worth
// integrating.
func findHotSite(f *core.Function, d *Data, threshold int64, maxCallee int) *core.CallInst {
	if f.NumInstructions() > 20000 {
		return nil
	}
	var found *core.CallInst
	f.ForEachInst(func(inst core.Instruction) bool {
		call, ok := inst.(*core.CallInst)
		if !ok {
			return true
		}
		if d.Count(call.Parent()) < threshold {
			return true
		}
		callee := call.CalledFunction()
		if callee == nil || callee.IsDeclaration() || callee == f || callee.Sig.Variadic {
			return true
		}
		if callee.NumInstructions() > maxCallee {
			return true
		}
		// Skip recursive callees.
		for _, cs := range callee.Callers() {
			if cs.Parent() != nil && cs.Parent().Parent() == callee {
				return true
			}
		}
		found = call
		return false
	})
	return found
}

// layoutHotFirst reorders blocks by descending execution count, keeping
// the entry block first. Reports whether the order changed.
func layoutHotFirst(f *core.Function, d *Data) bool {
	if len(f.Blocks) < 3 {
		return false
	}
	rest := append([]*core.BasicBlock(nil), f.Blocks[1:]...)
	sort.SliceStable(rest, func(i, j int) bool { return d.Count(rest[i]) > d.Count(rest[j]) })
	changed := false
	for i, b := range rest {
		if f.Blocks[1+i] != b {
			changed = true
		}
		f.Blocks[1+i] = b
	}
	return changed
}
