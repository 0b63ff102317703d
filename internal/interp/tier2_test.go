package interp_test

// Tier-2 dispatch census and the generated-program parity fuzz target.
// Run the fuzz target with
//
//	go test -fuzz='^FuzzTierParity$' -fuzztime=30s -run='^$' ./internal/interp

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/frontend/minic"
	"repro/internal/interp"
	"repro/internal/linker"
	"repro/internal/passes"
	"repro/internal/workload"
)

// buildStd generates p's program and builds it the way the daemon's
// clients do: each unit through minic and the per-unit standard pipeline,
// then linked and internalized.
func buildStd(p workload.Profile) (*core.Module, error) {
	var mods []*core.Module
	for i, src := range workload.Generate(p).Units {
		m, err := minic.Compile(fmt.Sprintf("%s.u%d", p.Name, i), src)
		if err != nil {
			return nil, err
		}
		pm := passes.NewPassManager()
		pm.AddStandardPipeline()
		if _, err := pm.Run(m); err != nil {
			return nil, err
		}
		mods = append(mods, m)
	}
	linked, err := linker.Link(p.Name, mods...)
	if err != nil {
		return nil, err
	}
	passes.NewInternalize().RunOnModule(linked)
	return linked, core.Verify(linked)
}

// dispatchName names the dispatch at pc by the IR it runs: the opcode of
// the instruction it lowers, or a fused head's whole group.
func dispatchName(ef *codegen.EFunction, pc int) string {
	n := ef.Code[pc].Fused()
	var ops []string
	for k := pc; k <= pc+n; k++ {
		ops = append(ops, ef.SrcOf[k].Opcode().String())
	}
	return strings.Join(ops, "+")
}

// TestDispatchCensus counts tier 2's dispatches per executed step over the
// fifteen suite programs in run_hot's shape (LoopIters x50, per-unit
// standard pipeline) without a counter in the dispatch loop: a profiling
// run gives each block's executions, and the non-profiling lowered code
// gives each block's dispatches, one per instruction outside a fused group
// and one per group. Under -v it prints the commonest dispatch pairs, the
// evidence for choosing the next fusion; a pair across blocks is counted
// only where block counts determine the edge (the predecessor has one
// successor or the successor one predecessor).
func TestDispatchCensus(t *testing.T) {
	var steps, dispatches int64
	pairs := map[string]int64{}
	for _, p := range workload.Suite() {
		p.LoopIters *= 50
		m, err := buildStd(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		mc, err := interp.NewMachine(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		mc.SetTier(interp.TierOpt)
		mc.EnableProfile()
		if _, err := mc.RunMain(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		var progSteps int64
		for name, counts := range mc.BlockCounts() {
			f := m.Func(name)
			ef, err := codegen.LowerExec(f, false)
			if err != nil {
				t.Fatal(err)
			}
			// Each block's dispatch pcs, in execution order.
			heads := make([][]int, len(f.Blocks))
			for pc := 0; pc < len(ef.Code); pc += 1 + ef.Code[pc].Fused() {
				b := ef.BlockOf[pc]
				heads[b] = append(heads[b], pc)
			}
			for b, blk := range f.Blocks {
				c := counts[b]
				progSteps += c * int64(len(blk.Instrs)-blk.FirstNonPhi())
				dispatches += c * int64(len(heads[b]))
				for k := 1; k < len(heads[b]); k++ {
					pairs[dispatchName(ef, heads[b][k-1])+" -> "+dispatchName(ef, heads[b][k])] += c
				}
				succs := blk.Succs()
				for _, s := range succs {
					w := int64(-1)
					if len(distinct(succs)) == 1 {
						w = c
					} else if len(distinct(s.Preds())) == 1 {
						w = counts[indexOf(f, s)]
					}
					if w > 0 {
						last, first := heads[b][len(heads[b])-1], heads[indexOf(f, s)][0]
						pairs[dispatchName(ef, last)+" -> "+dispatchName(ef, first)] += w
					}
				}
			}
		}
		if progSteps != mc.Steps {
			t.Fatalf("%s: block counts account for %d steps, the machine executed %d", p.Name, progSteps, mc.Steps)
		}
		steps += progSteps
	}
	perStep := float64(dispatches) / float64(steps)
	t.Logf("%d steps, %d dispatches: %.3f dispatches per step", steps, dispatches, perStep)
	type pair struct {
		name string
		n    int64
	}
	var top []pair
	for name, n := range pairs {
		top = append(top, pair{name, n})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].n > top[j].n || top[i].n == top[j].n && top[i].name < top[j].name })
	for i := 0; i < len(top) && i < 12; i++ {
		t.Logf("  %5.1f%%  %s", 100*float64(top[i].n)/float64(dispatches), top[i].name)
	}
	if perStep > 0.75 {
		t.Fatalf("tier 2 makes %.3f dispatches per step, want at most 0.75", perStep)
	}
}

func distinct(bs []*core.BasicBlock) map[*core.BasicBlock]bool {
	set := map[*core.BasicBlock]bool{}
	for _, b := range bs {
		set[b] = true
	}
	return set
}

func indexOf(f *core.Function, b *core.BasicBlock) int {
	for i, x := range f.Blocks {
		if x == b {
			return i
		}
	}
	return -1
}

// FuzzTierParity generates a program of a suite profile's shape from a
// fuzzed seed at a small LoopIters, builds it as the daemon's clients do,
// and runs it under a fuzzed step budget (0 for none): the optimizing tier
// and TierAuto, cold and on a warm Program, must equal tier 0 in value,
// output, steps and trap message, position included.
func FuzzTierParity(f *testing.F) {
	suite := workload.Suite()
	for i := range suite {
		f.Add(uint8(i), int64(i), uint32(0))
	}
	f.Add(uint8(3), int64(11), uint32(700))
	f.Fuzz(func(t *testing.T, which uint8, seed int64, budget uint32) {
		p := suite[int(which)%len(suite)]
		p.Seed = seed
		p.LoopIters = 1 + int(uint64(seed)%6)
		m, err := buildStd(p)
		if err != nil {
			t.Fatalf("%s seed %d: %v", p.Name, seed, err)
		}
		maxSteps := int64(budget)
		if maxSteps == 0 {
			maxSteps = 50_000_000
		}
		prog := interp.NewProgram(m)
		run := func(tier interp.TierPolicy, prog *interp.Program) tierOutcome {
			var out bytesBuffer
			mc, err := interp.NewMachine(m, &out)
			if err != nil {
				t.Fatal(err)
			}
			mc.SetTier(tier)
			mc.MaxSteps = maxSteps
			if err := mc.AttachProgram(prog); err != nil {
				t.Fatal(err)
			}
			v, runErr := mc.RunMain()
			o := tierOutcome{val: uint64(v), out: out.String(), steps: mc.Steps}
			if runErr != nil {
				o.err = runErr.Error()
			}
			return o
		}
		ref := run(interp.TierInterp, nil)
		for _, arm := range []struct {
			name string
			tier interp.TierPolicy
			prog *interp.Program
		}{
			{"2", interp.TierOpt, nil},
			{"auto", interp.TierAuto, prog},
			{"auto, warm", interp.TierAuto, prog},
		} {
			if got := run(arm.tier, arm.prog); got != ref {
				t.Fatalf("%s seed %d budget %d: tier %s diverged:\n  tier 0: %+v\n  tier %s: %+v",
					p.Name, seed, budget, arm.name, ref, arm.name, got)
			}
		}
	})
}
