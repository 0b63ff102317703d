// Package experiments regenerates the paper's evaluation (§4): Table 1
// (provably-typed loads and stores), Table 2 (interprocedural optimization
// timings against a baseline full compilation), and Figure 5 (executable
// sizes for LLVM bytecode vs CISC and RISC native images), over the
// synthetic SPEC CPU2000 analogues from internal/workload, plus the
// checker, validate, tiers and alias ablations of this reproduction's own
// design. The same code drives cmd/llvm-bench and the root bench_test.go
// harness.
package experiments

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"time"

	"repro/internal/bytecode"
	"repro/internal/checker"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/dsa"
	"repro/internal/frontend/minic"
	"repro/internal/linker"
	"repro/internal/passes"
	"repro/internal/workload"
)

// Build compiles a benchmark's translation units, links them, and
// internalizes (whole-program assumption, as the paper's link-time
// optimizer may). With unitOpt each unit first runs the compile-time
// scalar pipeline (§3.2 step 3), giving the module the paper's tables
// measure; without it the linked module is unoptimized, so a standard
// pipeline timed over it pays for real transformation work.
func Build(p workload.Profile, unitOpt bool) (*core.Module, error) {
	prog := workload.Generate(p)
	mods := make([]*core.Module, 0, len(prog.Units))
	for i, src := range prog.Units {
		m, err := minic.Compile(fmt.Sprintf("%s.u%d", p.Name, i), src)
		if err != nil {
			return nil, fmt.Errorf("%s unit %d: %w", p.Name, i, err)
		}
		if unitOpt {
			if _, err := passes.NewPassManager().AddStandardPipeline().Run(m); err != nil {
				return nil, err
			}
		}
		mods = append(mods, m)
	}
	linked, err := linker.Link(p.Name, mods...)
	if err != nil {
		return nil, err
	}
	passes.NewInternalize().RunOnModule(linked)
	if err := core.Verify(linked); err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	return linked, nil
}

// ---------------------------------------------------------------------------
// Table 1

// Table1Row is one benchmark's typed-access result.
type Table1Row struct {
	Bench   string  `json:"bench"`
	Typed   int     `json:"typed"`
	Untyped int     `json:"untyped"`
	Percent float64 `json:"typed_percent"`
}

// Table1 computes provably-typed loads and stores per benchmark.
func Table1() ([]Table1Row, error) {
	var rows []Table1Row
	for _, p := range workload.Suite() {
		m, err := Build(p, true)
		if err != nil {
			return nil, err
		}
		r := dsa.Analyze(m)
		rows = append(rows, Table1Row{
			Bench: p.Name, Typed: r.Typed(), Untyped: r.Untyped(), Percent: r.TypedPercent(),
		})
	}
	return rows, nil
}

// PrintTable1 renders rows in the paper's format.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "Table 1: Loads and Stores which are provably typed\n")
	fmt.Fprintf(w, "%-14s %8s %10s %8s\n", "Benchmark", "Typed", "Untyped", "Typed%")
	var sum float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %8d %10d %7.2f%%\n", r.Bench, r.Typed, r.Untyped, r.Percent)
		sum += r.Percent
	}
	fmt.Fprintf(w, "%-14s %8s %10s %7.2f%%   (paper: 68.04%%)\n", "average", "", "", sum/float64(len(rows)))
}

// ---------------------------------------------------------------------------
// Table 2

// Table2Row is one benchmark's interprocedural-optimization timing, in
// milliseconds (the paper quotes fractions of a second; nanosecond
// integers would just add noise).
type Table2Row struct {
	Bench    string  `json:"bench"`
	DGEMs    float64 `json:"dge_ms"`
	DAEMs    float64 `json:"dae_ms"`
	InlineMs float64 `json:"inline_ms"`
	// BaselineMs is a full per-unit compilation of the same program
	// (front-end + scalar opts + native code generation), the stand-in
	// for the paper's "GCC -O3 compile time" column.
	BaselineMs float64 `json:"baseline_ms"`
	// Work done, for the paper's scaling observations.
	DGEDeleted  int `json:"dge_deleted"`
	DAEDeleted  int `json:"dae_deleted"`
	NumInlined  int `json:"num_inlined"`
	FuncDeleted int `json:"func_deleted"`
}

// Table2 times DGE, DAE, and inline at link time on each benchmark,
// against the baseline full-compilation time.
func Table2() ([]Table2Row, error) {
	return table2(workload.Suite())
}

func table2(progs []workload.Profile) ([]Table2Row, error) {
	var rows []Table2Row
	for _, p := range progs {
		row := Table2Row{Bench: p.Name}

		// Each pass runs on a fresh linked module, like the paper's
		// standalone timings.
		dge := passes.NewDeadGlobalElim()
		dae := passes.NewDeadArgElim()
		inl := passes.NewInline(passes.DefaultInlineThreshold)
		for _, pass := range []struct {
			ms  *float64
			run passes.ModulePass
		}{{&row.DGEMs, dge}, {&row.DAEMs, dae}, {&row.InlineMs, inl}} {
			m, err := Build(p, true)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			pass.run.RunOnModule(m)
			*pass.ms = ms(time.Since(start))
		}
		row.DGEDeleted = dge.NumFuncs + dge.NumGlobals
		row.DAEDeleted = dae.NumArgs + dae.NumRets
		row.NumInlined = inl.NumInlined
		row.FuncDeleted = inl.NumDeleted
		// Baseline: full compilation of every unit.
		{
			prog := workload.Generate(p)
			start := time.Now()
			for i, src := range prog.Units {
				m, err := minic.Compile(fmt.Sprintf("%s.b%d", p.Name, i), src)
				if err != nil {
					return nil, err
				}
				if _, err := passes.NewPassManager().AddStandardPipeline().Run(m); err != nil {
					return nil, err
				}
				codegen.CompileModule(m, codegen.Cisc86{})
			}
			row.BaselineMs = ms(time.Since(start))
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintTable2 renders rows in the paper's format (seconds).
func PrintTable2(w io.Writer, rows []Table2Row, verbose bool) {
	fmt.Fprintf(w, "Table 2: Interprocedural optimization timings (ms; paper reports seconds on its hardware)\n")
	fmt.Fprintf(w, "%-14s %9s %9s %9s %12s %9s\n", "Benchmark", "DGE", "DAE", "inline", "baseline", "IPO/base")
	var sumRatio float64
	for _, r := range rows {
		ratio := (r.DGEMs + r.DAEMs + r.InlineMs) / r.BaselineMs
		sumRatio += ratio
		fmt.Fprintf(w, "%-14s %9.3f %9.3f %9.3f %12.3f %8.1f%%\n",
			r.Bench, r.DGEMs, r.DAEMs, r.InlineMs, r.BaselineMs, 100*ratio)
		if verbose {
			fmt.Fprintf(w, "    work: DGE deleted %d objects, DAE removed %d args/rets, inline integrated %d (deleting %d functions)\n",
				r.DGEDeleted, r.DAEDeleted, r.NumInlined, r.FuncDeleted)
		}
	}
	fmt.Fprintf(w, "%-14s %9s %9s %9s %12s %8.1f%%   (paper: every IPO pass is a small fraction of a full compile)\n",
		"average", "", "", "", "", 100*sumRatio/float64(len(rows)))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// bestOfRuns is how many times each arm of a timed ablation runs; the row
// reports the fastest, the standard way to strip scheduler noise from a
// single-process latency comparison.
const bestOfRuns = 3

// bestOf runs arm bestOfRuns times and returns its fastest time in
// milliseconds. arm times only its measured region, so per-run setup
// (cloning a module, building a machine) stays outside the window.
func bestOf(arm func() (time.Duration, error)) (float64, error) {
	var best time.Duration
	for i := 0; i < bestOfRuns; i++ {
		d, err := arm()
		if err != nil {
			return 0, err
		}
		if i == 0 || d < best {
			best = d
		}
	}
	return ms(best), nil
}

// timePipeline runs pm over a fresh clone of raw and times only the run,
// so every arm of an ablation sees identical input.
func timePipeline(pm *passes.PassManager, raw *core.Module) (time.Duration, error) {
	m := core.CloneModule(raw)
	start := time.Now()
	_, err := pm.Run(m)
	return time.Since(start), err
}

// overheadPercent is the on arm's slowdown relative to the off arm
// (negative = the on arm was faster).
func overheadPercent(offMs, onMs float64) float64 {
	if offMs <= 0 {
		return 0
	}
	return (onMs/offMs - 1) * 100
}

// ---------------------------------------------------------------------------
// Figure 5

// Figure5Row is one benchmark's executable-size comparison.
type Figure5Row struct {
	Bench      string `json:"bench"`
	LLVM       int    `json:"llvm_bytes"`        // bytecode bytes (with symbol tables, like an executable)
	LLVMPacked int    `json:"llvm_packed_bytes"` // after general-purpose compression (§4.1.3's bzip2 note)
	X86        int    `json:"x86_bytes"`         // CISC-86 image bytes
	Sparc      int    `json:"sparc_bytes"`       // RISC-V9 image bytes
}

// Figure5 measures executable sizes for each benchmark.
func Figure5() ([]Figure5Row, error) {
	var rows []Figure5Row
	for _, p := range workload.Suite() {
		m, err := Build(p, true)
		if err != nil {
			return nil, err
		}
		bc, err := bytecode.Encode(m)
		if err != nil {
			return nil, err
		}
		var packed bytes.Buffer
		zw, _ := flate.NewWriter(&packed, flate.BestCompression)
		zw.Write(bc)
		zw.Close()
		rows = append(rows, Figure5Row{
			Bench:      p.Name,
			LLVM:       len(bc),
			LLVMPacked: packed.Len(),
			X86:        codegen.CompileModule(m, codegen.Cisc86{}).Size(),
			Sparc:      codegen.CompileModule(m, codegen.RiscV9{}).Size(),
		})
	}
	return rows, nil
}

// PrintFigure5 renders the size comparison.
func PrintFigure5(w io.Writer, rows []Figure5Row) {
	fmt.Fprintf(w, "Figure 5: Executable sizes for LLVM, X86, SPARC (bytes)\n")
	fmt.Fprintf(w, "%-14s %9s %9s %9s %11s %11s %11s\n",
		"Benchmark", "LLVM", "X86", "SPARC", "LLVM/X86", "LLVM/SPARC", "packed/LLVM")
	var rX86, rSparc, rPack float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %9d %9d %9d %10.2fx %10.2fx %10.2fx\n",
			r.Bench, r.LLVM, r.X86, r.Sparc,
			float64(r.LLVM)/float64(r.X86),
			float64(r.LLVM)/float64(r.Sparc),
			float64(r.LLVMPacked)/float64(r.LLVM))
		rX86 += float64(r.LLVM) / float64(r.X86)
		rSparc += float64(r.LLVM) / float64(r.Sparc)
		rPack += float64(r.LLVMPacked) / float64(r.LLVM)
	}
	n := float64(len(rows))
	fmt.Fprintf(w, "%-14s %9s %9s %9s %10.2fx %10.2fx %10.2fx\n", "average", "", "", "",
		rX86/n, rSparc/n, rPack/n)
	fmt.Fprintf(w, "(paper: LLVM ~= X86 size, ~25%% smaller than SPARC; compression halves bytecode)\n")
}

// ---------------------------------------------------------------------------
// Checker table

// CheckerRow is one benchmark's static-checker result: how much code the
// checker covered, what it reported, and how long it took. The synthetic
// benchmarks are generated from well-formed sources, so Errors doubles as a
// false-positive counter — any nonzero value is a checker regression, and
// the trajectory files record it explicitly.
type CheckerRow struct {
	Bench       string         `json:"bench"`
	Functions   int            `json:"functions"`
	Diagnostics int            `json:"diagnostics"`
	Errors      int            `json:"errors"`
	ByKind      map[string]int `json:"by_kind,omitempty"`
	CheckMs     float64        `json:"check_ms"`
}

// CheckerTable runs the static checker over each optimized benchmark.
func CheckerTable() ([]CheckerRow, error) {
	var rows []CheckerRow
	for _, p := range workload.Suite() {
		m, err := Build(p, true)
		if err != nil {
			return nil, err
		}
		rep, err := checker.New().Check(m)
		if err != nil {
			return nil, fmt.Errorf("%s: check: %w", p.Name, err)
		}
		rows = append(rows, CheckerRow{
			Bench:       p.Name,
			Functions:   rep.Stats.Functions,
			Diagnostics: rep.Stats.Diagnostics,
			Errors:      rep.Stats.Errors,
			ByKind:      rep.Stats.ByKind,
			CheckMs:     ms(rep.Stats.Duration),
		})
	}
	return rows, nil
}

// PrintCheckerTable renders the checker coverage table.
func PrintCheckerTable(w io.Writer, rows []CheckerRow) {
	fmt.Fprintf(w, "Checker: static memory-safety diagnostics over optimized benchmarks\n")
	fmt.Fprintf(w, "%-14s %9s %11s %7s %10s  %s\n", "Benchmark", "Functions", "Diagnostics", "Errors", "Time(ms)", "Kinds")
	for _, r := range rows {
		kinds := ""
		for _, k := range diag.SortKinds(r.ByKind) {
			if kinds != "" {
				kinds += " "
			}
			kinds += fmt.Sprintf("%s=%d", k, r.ByKind[k])
		}
		fmt.Fprintf(w, "%-14s %9d %11d %7d %10.2f  %s\n",
			r.Bench, r.Functions, r.Diagnostics, r.Errors, r.CheckMs, kinds)
	}
	fmt.Fprintf(w, "(errors on these well-formed programs indicate checker false positives)\n")
}
