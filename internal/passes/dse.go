package passes

import (
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/dsa"
	"repro/internal/obs"
)

// DSE eliminates dead stores using the points-to analysis: a store is dead
// when a later store in the same block must-overwrite the same location
// with no intervening instruction that may read it, or when it writes an
// object that provably cannot outlive the function (every allocation site
// is an alloca of this function, the address never escapes) and the block
// ends in a return with no later reader.
type DSE struct {
	rem *obs.Remarks
	// NoAlias disables the pass entirely (ablation baseline for
	// llvm-bench -alias; without alias information no store can be
	// proven dead).
	NoAlias bool
}

// NewDSE returns the pass.
func NewDSE() *DSE { return &DSE{} }

// Name returns the pass name.
func (*DSE) Name() string { return "dse" }

func (d *DSE) setRemarks(r *obs.Remarks) { d.rem = r }

// RunOnFunction eliminates dead stores in every block of f.
func (d *DSE) RunOnFunction(f *core.Function) int {
	return d.runOnFunctionWith(f, nil)
}

func (d *DSE) runOnFunctionWith(f *core.Function, am *analysis.Manager) int {
	if d.NoAlias || len(f.Blocks) == 0 {
		return 0
	}
	pt := dsa.Of(am, f.Parent())
	changed := 0
	for _, b := range f.Blocks {
		changed += d.runBlock(f, b, pt)
	}
	return changed
}

func (d *DSE) runBlock(f *core.Function, b *core.BasicBlock, pt *dsa.Result) int {
	// pending holds stores not yet proven observed; entries drop out when
	// something may read their location and die when overwritten.
	var pending []*core.StoreInst
	changed := 0

	erase := func(s *core.StoreInst, why string) {
		if d.rem.Enabled() {
			d.rem.Appliedf("dse",
				diag.Pos{Fn: f.Name(), Block: b.Name(), Inst: core.InstDebugString(s)},
				"removed dead store: %s", why)
		}
		b.Erase(s)
		changed++
	}
	// keep retains pending stores that provably survive the reader check.
	keep := func(mayRead func(s *core.StoreInst) bool) {
		kept := pending[:0]
		for _, s := range pending {
			if !mayRead(s) {
				kept = append(kept, s)
			}
		}
		pending = kept
	}

	for _, inst := range append([]core.Instruction(nil), b.Instrs...) {
		switch i := inst.(type) {
		case *core.LoadInst:
			keep(func(s *core.StoreInst) bool {
				return pt.Alias(i.Ptr(), s.Ptr()) != dsa.NoAlias
			})
		case *core.VAArgInst:
			keep(func(s *core.StoreInst) bool {
				return pt.Alias(i.List(), s.Ptr()) != dsa.NoAlias
			})
		case *core.CallInst:
			keep(func(s *core.StoreInst) bool {
				return pt.CallSiteMayRef(i.Callee(), pt.NodeFor(s.Ptr()))
			})
		case *core.InvokeInst:
			keep(func(s *core.StoreInst) bool {
				return pt.CallSiteMayRef(i.Callee(), pt.NodeFor(s.Ptr()))
			})
		case *core.StoreInst:
			for k := 0; k < len(pending); k++ {
				s := pending[k]
				if pt.Alias(s.Ptr(), i.Ptr()) == dsa.MustAlias &&
					s.Val().Type() == i.Val().Type() {
					erase(s, "overwritten before any possible read")
					pending = append(pending[:k], pending[k+1:]...)
					k--
				}
			}
			pending = append(pending, i)
		case *core.RetInst:
			// The frame dies here: stores to objects whose every
			// allocation site is an alloca of this function, with no
			// possible reader between store and return, are unobservable.
			for _, s := range pending {
				if frameLocalObject(pt, f, s.Ptr()) {
					erase(s, "function-local object dead at return")
				}
			}
		}
	}
	return changed
}

// frameLocalObject reports whether ptr provably addresses memory that
// cannot outlive f: a non-escaping class whose every allocation site is an
// alloca belonging to f.
func frameLocalObject(pt *dsa.Result, f *core.Function, ptr core.Value) bool {
	n := pt.NodeFor(ptr)
	if n == nil || n.Unknown || n.Escaped || !n.Stack || n.Heap || n.Global || len(n.Sites) == 0 {
		return false
	}
	for _, s := range n.Sites {
		if s.Kind != dsa.SiteAlloca || s.Fn != f.Name() {
			return false
		}
	}
	return true
}
