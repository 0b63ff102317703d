package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/dsa"
	"repro/internal/obs"
	"repro/internal/passes"
	"repro/internal/workload"
)

// AliasRow is one benchmark's alias-analysis precision/overhead
// measurement: the standard pipeline with the whole-program points-to
// analysis feeding LICM/CSE/DSE versus the ablation arm where those
// passes run blind (NoAlias). WorkOn/WorkOff count applied optimization
// remarks from the three memory passes — the work the analysis buys, so
// the trajectory records whether it keeps buying strictly more — and the
// query tallies break down the answers the enabled arm got.
type AliasRow struct {
	Bench   string  `json:"bench"`
	Classes int     `json:"classes"`       // points-to object classes in the linked module
	Typed   float64 `json:"typed_percent"` // Table-1 typed-access percent
	OffMs   float64 `json:"off_ms"`
	OnMs    float64 `json:"on_ms"`
	// OverheadPercent is the analysis-enabled run's slowdown relative to
	// the blind one (negative = the analysis paid for itself).
	OverheadPercent float64 `json:"overhead_percent"`
	WorkOff         int     `json:"work_off"` // memory-pass applied remarks without alias info
	WorkOn          int     `json:"work_on"`  // memory-pass applied remarks with alias info
	Queries
}

// Queries is dsa.QueryStats under the report's key names.
type Queries struct {
	No   int64 `json:"queries_no"`
	May  int64 `json:"queries_may"`
	Must int64 `json:"queries_must"`
}

// Total sums the counters.
func (q Queries) Total() int64 { return dsa.QueryStats(q).Total() }

// aliasMemPasses is the set of passes whose applied remarks the table
// counts as alias-driven work.
var aliasMemPasses = map[string]bool{"cse": true, "licm": true, "dse": true}

// aliasPipeline builds the standard pipeline with remarks on; when blind,
// the three memory passes run with their alias information disabled (CSE
// falls back to pure expression CSE, LICM to operand-invariance only, DSE
// off).
func aliasPipeline(blind bool) *passes.PassManager {
	pm := passes.NewPassManager()
	pm.Remarks = obs.NewRemarks()
	if !blind {
		return pm.AddStandardPipeline()
	}
	cse := passes.NewCSE()
	cse.NoAlias = true
	licm := passes.NewLICM()
	licm.NoAlias = true
	dse := passes.NewDSE()
	dse.NoAlias = true
	return pm.AddFunctionPass(
		passes.NewSROA(), passes.NewMem2Reg(), passes.NewInstCombine(),
		passes.NewSCCP(), cse, licm, dse, passes.NewADCE(), passes.NewSimplifyCFG())
}

// countMemRemarks tallies applied remarks from the memory passes.
func countMemRemarks(r *obs.Remarks) int {
	n := 0
	for _, rm := range r.Sorted() {
		if rm.Status == "applied" && aliasMemPasses[rm.Pass] {
			n++
		}
	}
	return n
}

// AliasTable measures, per benchmark, what the points-to analysis buys
// (applied memory-optimization remarks, blind vs informed) and what it
// costs (pipeline latency delta, best of bestOfRuns runs per arm). The
// blind arm runs first so warm-up favors the informed arm, keeping the
// overhead estimate conservative.
func AliasTable() ([]AliasRow, error) {
	return aliasTable(workload.Suite())
}

func aliasTable(progs []workload.Profile) ([]AliasRow, error) {
	var rows []AliasRow
	for _, p := range progs {
		raw, err := Build(p, false)
		if err != nil {
			return nil, err
		}
		pt := dsa.Analyze(raw)
		row := AliasRow{Bench: p.Name, Classes: pt.NumClasses(), Typed: pt.TypedPercent()}

		row.OffMs, err = bestOf(func() (time.Duration, error) {
			pm := aliasPipeline(true)
			d, err := timePipeline(pm, raw)
			row.WorkOff = countMemRemarks(pm.Remarks)
			return d, err
		})
		if err != nil {
			return nil, fmt.Errorf("%s blind: %w", p.Name, err)
		}
		row.OnMs, err = bestOf(func() (time.Duration, error) {
			pm := aliasPipeline(false)
			before := dsa.Stats()
			d, err := timePipeline(pm, raw)
			row.WorkOn = countMemRemarks(pm.Remarks)
			after := dsa.Stats()
			row.Queries = Queries{No: after.No - before.No, May: after.May - before.May, Must: after.Must - before.Must}
			return d, err
		})
		if err != nil {
			return nil, fmt.Errorf("%s informed: %w", p.Name, err)
		}
		row.OverheadPercent = overheadPercent(row.OffMs, row.OnMs)
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintAliasTable renders the alias precision/overhead table.
func PrintAliasTable(w io.Writer, rows []AliasRow) {
	fmt.Fprintln(w, "Alias: memory-pass work and cost, points-to analysis off vs on")
	fmt.Fprintf(w, "%-14s %8s %8s %10s %10s %9s %22s\n",
		"Benchmark", "classes", "typed%", "work off", "work on", "cost%", "queries no/may/must")
	totOff, totOn := 0, 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %8d %7.1f%% %10d %10d %8.1f%% %22s\n",
			r.Bench, r.Classes, r.Typed, r.WorkOff, r.WorkOn, r.OverheadPercent,
			fmt.Sprintf("%d/%d/%d", r.Queries.No, r.Queries.May, r.Queries.Must))
		totOff += r.WorkOff
		totOn += r.WorkOn
	}
	fmt.Fprintf(w, "%-14s %8s %8s %10d %10d\n", "total", "", "", totOff, totOn)
}
