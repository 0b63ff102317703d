// llvm-bench regenerates the paper's evaluation over the synthetic SPEC
// CPU2000 analogues: Table 1 (provably-typed memory accesses), Table 2
// (interprocedural optimization timings vs a baseline compile), and
// Figure 5 (executable sizes: LLVM bytecode vs CISC vs RISC images), plus
// four ablations of this reproduction's own design.
//
// Usage: llvm-bench [-table1] [-table2] [-fig5] [-checker] [-validate]
// [-tiers] [-alias] [-v] [-json path]. No section flags runs Table 1,
// Table 2, Figure 5 and -checker; any explicit selection runs only what
// was asked.
//
// -checker runs the static memory-safety checker over each optimized
// benchmark; since the synthetic programs are well-formed, any error it
// reports is a checker false positive. -validate times the standard
// pipeline with the translation-validation oracle off vs on, reporting
// the per-benchmark verdict tallies alongside the overhead — a confirmed
// miscompile of a real pass aborts the benchmark, so the table doubles as
// a soundness check. -tiers runs each benchmark to completion at every
// execution tier (interpreter, baseline, optimizing, and auto seeded with
// a prior run's profile) and reports per-tier latency with tier-2
// speedups; a cross-tier divergence aborts it. -alias reports the
// memory-pass work and pipeline cost of the points-to analysis, off vs
// on. Serving latency is measured by the repository benchmark
// (bash benchmark/run.sh), not here.
//
// -json additionally writes the selected tables as machine-readable JSON
// (see experiments.Report), the format the repo's BENCH_*.json trajectory
// files use.
package main

import (
	"flag"
	"io"
	"os"

	"repro/internal/experiments"
	"repro/internal/tooling"
)

func main() {
	defer tooling.ExitOnPanic("llvm-bench")
	var report experiments.Report
	verbose := flag.Bool("v", false, "verbose (per-pass work counts)")
	jsonPath := flag.String("json", "", "also write results as JSON to this path (- for stdout)")
	sections := []struct {
		on        *bool
		paper     bool // one of the paper's own tables
		byDefault bool // part of the no-flags run
		run       func(io.Writer) error
	}{
		{flag.Bool("table1", false, "Table 1: typed memory accesses"), true, true,
			section(&report.Table1, experiments.Table1, experiments.PrintTable1)},
		{flag.Bool("table2", false, "Table 2: interprocedural optimization timings"), true, true,
			section(&report.Table2, experiments.Table2, func(w io.Writer, rows []experiments.Table2Row) {
				experiments.PrintTable2(w, rows, *verbose)
			})},
		{flag.Bool("fig5", false, "Figure 5: executable sizes"), true, true,
			section(&report.Figure5, experiments.Figure5, experiments.PrintFigure5)},
		{flag.Bool("checker", false, "Checker: static memory-safety diagnostics per benchmark"), false, true,
			section(&report.Checker, experiments.CheckerTable, experiments.PrintCheckerTable)},
		{flag.Bool("validate", false, "Validate: pipeline latency with the translation-validation oracle off vs on"), false, false,
			section(&report.Validate, experiments.ValidateTable, experiments.PrintValidateTable)},
		{flag.Bool("tiers", false, "Tiers: execution latency per engine tier (interp/tier-1/tier-2/auto+profile)"), false, false,
			section(&report.Tiers, experiments.TiersTable, experiments.PrintTiersTable)},
		{flag.Bool("alias", false, "Alias: memory-pass optimization work and pipeline cost, points-to analysis off vs on"), false, false,
			section(&report.Alias, experiments.AliasTable, experiments.PrintAliasTable)},
	}
	flag.Parse()
	// No section flags at all = the default tables. Any explicit selection
	// (including the opt-in ablations) runs only what was asked.
	all := true
	for _, s := range sections {
		all = all && !*s.on
	}

	printed := false
	for _, s := range sections {
		if !*s.on && !(all && s.byDefault) {
			continue
		}
		// A blank line separates tables; the ablations always start with one.
		if printed || !s.paper {
			os.Stdout.WriteString("\n")
		}
		printed = true
		if err := s.run(os.Stdout); err != nil {
			tooling.Fatalf("llvm-bench: %v", err)
		}
	}
	if *jsonPath != "" {
		out := os.Stdout
		if *jsonPath != "-" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				tooling.Fatalf("llvm-bench: %v", err)
			}
			defer f.Close()
			out = f
		}
		if err := experiments.WriteJSON(out, &report); err != nil {
			tooling.Fatalf("llvm-bench: %v", err)
		}
	}
}

// section returns a step that runs one experiment, prints its table and
// files its rows in the report.
func section[R any](dst *[]R, run func() ([]R, error), print func(io.Writer, []R)) func(io.Writer) error {
	return func(w io.Writer) error {
		rows, err := run()
		if err != nil {
			return err
		}
		print(w, rows)
		*dst = rows
		return nil
	}
}
