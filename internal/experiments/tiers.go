package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/workload"
)

// TiersRow is one benchmark's execution-tier ablation: the same linked,
// optimized module run to completion by the tree-walking interpreter
// (tier 0), the baseline slot machine (tier 1), the optimizing
// register-allocated tier (tier 2), and the auto policy seeded with a
// prior run's profile — the lifelong configuration, where functions hot
// last run start directly at tier 2. Steps is the architecture-neutral
// instruction count, identical across tiers by construction; the row
// records it once as the work each arm performed.
type TiersRow struct {
	Bench    string  `json:"bench"`
	InterpMs float64 `json:"interp_ms"`        // tier 0
	Tier1Ms  float64 `json:"tier1_ms"`         // tier 1
	Tier2Ms  float64 `json:"tier2_ms"`         // tier 2
	AutoMs   float64 `json:"auto_profiled_ms"` // auto with a seeded profile
	// T2OverT1 is tier 2's speedup over tier 1 (>1 = faster), the number
	// the perf bar tracks.
	T2OverT1 float64 `json:"t2_over_t1"`
	Steps    int64   `json:"steps"`
}

// tiersMaxSteps bounds each arm; the suite's programs finish far below
// it, so hitting the budget indicates an engine bug, not a slow bench.
const tiersMaxSteps = 200_000_000

// TiersTable measures end-to-end execution latency per tier over each
// benchmark. All arms of a benchmark share one module object and one
// translation cache, so tier-1/tier-2 timings are steady-state execution
// (translation happens once, on each arm's first of bestOfRuns runs) — the
// comparison the paper's runtime-optimizer design targets, where
// translations persist across invocations. Exit codes must agree across
// arms; a mismatch fails the table rather than reporting a bogus win.
func TiersTable() ([]TiersRow, error) {
	return tiersTable(workload.Suite())
}

func tiersTable(progs []workload.Profile) ([]TiersRow, error) {
	var rows []TiersRow
	for _, p := range progs {
		m, err := Build(p, true)
		if err != nil {
			return nil, err
		}
		prog := interp.NewProgram(m)

		// One auto profiling run gathers the block counts that seed the
		// measured auto arm, standing in for a previous day's run.
		seed, exit0, steps, err := tierProfileRun(m, prog)
		if err != nil {
			return nil, fmt.Errorf("%s: profiling run: %w", p.Name, err)
		}

		row := TiersRow{Bench: p.Name, Steps: steps}
		arms := []struct {
			ms     *float64
			policy interp.TierPolicy
			seed   map[string][]int64
		}{
			{&row.InterpMs, interp.TierInterp, nil},
			{&row.Tier1Ms, interp.TierBaseline, nil},
			{&row.Tier2Ms, interp.TierOpt, nil},
			{&row.AutoMs, interp.TierAuto, seed},
		}
		for _, arm := range arms {
			*arm.ms, err = bestOf(func() (time.Duration, error) {
				d, exit, err := tierRun(m, prog, arm.policy, arm.seed)
				if err == nil && exit != exit0 {
					err = fmt.Errorf("exit %d, want %d", exit, exit0)
				}
				return d, err
			})
			if err != nil {
				return nil, fmt.Errorf("%s tier %s: %w", p.Name, arm.policy, err)
			}
		}
		if row.Tier2Ms > 0 {
			row.T2OverT1 = row.Tier1Ms / row.Tier2Ms
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// tierProfileRun executes m once under the auto policy with engine
// profiling on, returning the per-function block counts, exit code, and
// step count that anchor the benchmark's other arms.
func tierProfileRun(m *core.Module, prog *interp.Program) (map[string][]int64, int64, int64, error) {
	mc, err := newTierMachine(m, prog, interp.TierAuto)
	if err != nil {
		return nil, 0, 0, err
	}
	mc.EnableProfile()
	exit, err := runToExit(mc)
	if err != nil {
		return nil, 0, 0, err
	}
	return mc.BlockCounts(), exit, mc.Steps, nil
}

// tierRun times one execution of m at the given policy.
func tierRun(m *core.Module, prog *interp.Program, policy interp.TierPolicy, seed map[string][]int64) (time.Duration, int64, error) {
	mc, err := newTierMachine(m, prog, policy)
	if err != nil {
		return 0, 0, err
	}
	if seed != nil {
		mc.SeedProfile(seed)
	}
	t0 := time.Now()
	exit, err := runToExit(mc)
	return time.Since(t0), exit, err
}

func newTierMachine(m *core.Module, prog *interp.Program, policy interp.TierPolicy) (*interp.Machine, error) {
	mc, err := interp.NewMachine(m, io.Discard)
	if err != nil {
		return nil, err
	}
	mc.SetTier(policy)
	mc.MaxSteps = tiersMaxSteps
	if err := mc.AttachProgram(prog); err != nil {
		return nil, err
	}
	return mc, nil
}

func runToExit(mc *interp.Machine) (int64, error) {
	v, err := mc.RunMain()
	if err != nil {
		var ee *interp.ExitError
		if errors.As(err, &ee) {
			return ee.Code, nil
		}
		return 0, err
	}
	return v, nil
}

// PrintTiersTable renders the per-tier latencies with tier 2's speedup
// over tiers 0 and 1 and the geomean speedups the acceptance bar tracks.
func PrintTiersTable(w io.Writer, rows []TiersRow) {
	fmt.Fprintf(w, "Tiers: end-to-end execution latency per tier (best of %d; shared translations)\n", bestOfRuns)
	fmt.Fprintf(w, "%-14s %11s %11s %11s %11s %9s %9s %12s\n",
		"Benchmark", "interp", "tier1", "tier2", "auto+prof", "t2/t0", "t2/t1", "steps")
	var logT0, logT1 float64
	for _, r := range rows {
		overT0 := r.InterpMs / r.Tier2Ms
		logT0 += math.Log(overT0)
		logT1 += math.Log(r.T2OverT1)
		fmt.Fprintf(w, "%-14s %9.3fms %9.3fms %9.3fms %9.3fms %8.2fx %8.2fx %12d\n",
			r.Bench, r.InterpMs, r.Tier1Ms, r.Tier2Ms, r.AutoMs, overT0, r.T2OverT1, r.Steps)
	}
	n := float64(len(rows))
	if n > 0 {
		fmt.Fprintf(w, "%-14s %11s %11s %11s %11s %8.2fx %8.2fx   (geomean)\n",
			"geomean", "", "", "", "", math.Exp(logT0/n), math.Exp(logT1/n))
	}
}
