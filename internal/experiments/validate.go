package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/passes"
	"repro/internal/validate"
	"repro/internal/workload"
)

// ValidateRow is one benchmark's translation-validation overhead
// measurement: the standard pipeline over the same module with the oracle
// off (the plain FailFast path, no snapshots) and on (per-pass snapshot
// isolation plus the equivalence check). The verdict tallies ground the
// overhead number in the proof work bought — and double as a standing
// soundness check: a confirmed miscompile of a real pass on a real
// workload would surface here as a benchmark error.
type ValidateRow struct {
	Bench string  `json:"bench"`
	OffMs float64 `json:"off_ms"`
	OnMs  float64 `json:"on_ms"`
	// OverheadPercent is the validated run's slowdown relative to the
	// unvalidated one.
	OverheadPercent float64 `json:"overhead_percent"`
	// Equivalent and Inconclusive count validated pass runs by verdict;
	// passes that made no changes are not validated and appear in neither.
	Equivalent   int `json:"equivalent"`
	Inconclusive int `json:"inconclusive"`
	// Probes is the total number of differential test vectors executed.
	Probes int `json:"probes"`
}

// ValidateTable measures oracle-off vs oracle-on pipeline latency per
// benchmark, each arm the best of bestOfRuns runs over the same
// unoptimized module. The unvalidated arm goes first so warm-up favors the
// validated side — the overhead estimate is conservative. A Miscompile
// verdict on any real pass is a hard error: the oracle's
// zero-false-confirms discipline is part of what this table certifies.
func ValidateTable() ([]ValidateRow, error) {
	return validateTable(workload.Suite())
}

func validateTable(progs []workload.Profile) ([]ValidateRow, error) {
	var rows []ValidateRow
	for _, p := range progs {
		raw, err := Build(p, false)
		if err != nil {
			return nil, err
		}
		row := ValidateRow{Bench: p.Name}
		row.OffMs, err = bestOf(func() (time.Duration, error) {
			return timePipeline(passes.NewPassManager().AddStandardPipeline(), raw)
		})
		if err != nil {
			return nil, fmt.Errorf("%s off: %w", p.Name, err)
		}
		row.OnMs, err = bestOf(func() (time.Duration, error) {
			pm := passes.NewPassManager().AddStandardPipeline()
			pm.Validator = validate.Default()
			d, err := timePipeline(pm, raw)
			if err != nil {
				return 0, err
			}
			row.Equivalent, row.Inconclusive, row.Probes = 0, 0, 0
			for _, r := range pm.Results {
				v := r.Validation
				if v == nil {
					continue
				}
				row.Probes += v.Probes
				switch v.Verdict {
				case validate.Equivalent:
					row.Equivalent++
				case validate.Inconclusive:
					row.Inconclusive++
				case validate.Miscompile:
					return 0, fmt.Errorf("oracle confirmed a miscompile of real pass %q: %s", r.Pass, v.Summary())
				}
			}
			return d, nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s on: %w", p.Name, err)
		}
		row.OverheadPercent = overheadPercent(row.OffMs, row.OnMs)
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintValidateTable renders rows alongside the other evaluation tables.
func PrintValidateTable(w io.Writer, rows []ValidateRow) {
	fmt.Fprintf(w, "Validate: standard-pipeline latency with the translation-validation oracle off vs on\n")
	fmt.Fprintf(w, "%-14s %12s %12s %10s %6s %8s %7s\n",
		"Benchmark", "Off", "On", "Overhead", "Equiv", "Inconcl", "Probes")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %11.3fms %11.3fms %9.1f%% %6d %8d %7d\n",
			r.Bench, r.OffMs, r.OnMs, r.OverheadPercent,
			r.Equivalent, r.Inconclusive, r.Probes)
	}
}
