// Package profile implements the paper's runtime path-profiling and
// reoptimization strategy (§3.5, §3.6): the execution engine's own
// per-block counters (interp.Machine.EnableProfile/BlockCounts) identify
// frequently executed regions; hot loop regions are detected at run time;
// the most frequent path through a hot region is extracted as a trace;
// and an offline ("idle-time") reoptimizer uses the end-user profile for
// aggressive profile-driven transformation — here, profile-guided
// inlining of hot call sites and hot-first code layout. (The paper's own evaluation defers runtime-optimizer results,
// §3.5: "that work is outside the scope of this paper"; this package
// implements the strategy it describes.)
package profile

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/core"
)

// Data is an execution profile: per-block counts from an end-user run,
// bound to one in-memory module (see Counts.Bind).
type Data struct {
	Counts map[*core.BasicBlock]int64
	Total  int64
}

// Count returns the execution count of b (0 if never executed or unknown).
func (d *Data) Count(b *core.BasicBlock) int64 { return d.Counts[b] }

// HotRegion is a frequently-executed loop region.
type HotRegion struct {
	Fn   *core.Function
	Loop *analysis.Loop
	// HeaderCount is the loop header's execution count.
	HeaderCount int64
	// Coverage is the fraction of all executed blocks spent in the region.
	Coverage float64
}

// HotRegions identifies loops whose bodies account for at least minCoverage
// of total execution, outermost first, hottest first — the runtime
// optimizer's region-detection step.
func (d *Data) HotRegions(m *core.Module, minCoverage float64) []HotRegion {
	var out []HotRegion
	if d.Total == 0 {
		return out
	}
	for _, f := range m.Funcs {
		if f.IsDeclaration() {
			continue
		}
		dt := analysis.NewDomTree(f)
		li := analysis.NewLoopInfo(f, dt)
		for _, loop := range li.All() {
			var inLoop int64
			for b := range loop.Blocks {
				inLoop += d.Count(b)
			}
			cov := float64(inLoop) / float64(d.Total)
			if cov >= minCoverage {
				out = append(out, HotRegion{Fn: f, Loop: loop,
					HeaderCount: d.Count(loop.Header), Coverage: cov})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Coverage > out[j].Coverage })
	return out
}

// Trace is the most frequently executed path through a hot region,
// beginning at the loop header and following the hottest successor edge
// until the path leaves the loop or closes the back edge (§3.5's
// "frequently-executed paths within that region").
type Trace struct {
	Region HotRegion
	Blocks []*core.BasicBlock
	// Complete is true when the path returns to the header (a whole-loop
	// trace rather than a path that exits the loop).
	Complete bool
	// Coverage is the fraction of the region's execution on the trace.
	Coverage float64
}

// FormTrace extracts the hot path through a region.
func (d *Data) FormTrace(r HotRegion) *Trace {
	tr := &Trace{Region: r}
	seen := map[*core.BasicBlock]bool{}
	cur := r.Loop.Header
	var onTrace int64
	var inRegion int64
	for b := range r.Loop.Blocks {
		inRegion += d.Count(b)
	}
	for {
		tr.Blocks = append(tr.Blocks, cur)
		seen[cur] = true
		onTrace += d.Count(cur)
		// Pick the hottest successor.
		var next *core.BasicBlock
		var best int64 = -1
		for _, s := range cur.Succs() {
			if d.Count(s) > best {
				best = d.Count(s)
				next = s
			}
		}
		if next == nil || !r.Loop.Blocks[next] {
			break // path exits the region
		}
		if next == r.Loop.Header {
			tr.Complete = true
			break
		}
		if seen[next] {
			break // inner cycle; stop rather than loop forever
		}
		cur = next
	}
	if inRegion > 0 {
		tr.Coverage = float64(onTrace) / float64(inRegion)
	}
	return tr
}

// String renders the trace for reports.
func (t *Trace) String() string {
	s := fmt.Sprintf("trace in %%%s (%.0f%% of region):", t.Region.Fn.Name(), 100*t.Coverage)
	for _, b := range t.Blocks {
		s += " %" + b.Name()
	}
	if t.Complete {
		s += " (closes back edge)"
	}
	return s
}
