// llvm-opt runs optimization passes over a module (text or bytecode).
//
// Usage:
//
//	llvm-opt [-std] [-linktime] [-passes mem2reg,dge,...] [-policy P]
//	         [-pass-timeout D] [-j N] [-time] [-check] [-o out] input
//
// -std runs the standard per-function clean-up pipeline (§3.2); -linktime
// runs the link-time interprocedural pipeline (§3.3); -passes selects
// individual passes by name. Passes run in the order given. -policy
// selects how pass failures (panics, timeouts, verifier rejections) are
// handled: failfast aborts, rollback aborts but restores the last
// known-good module, skip discards the failed pass's changes and keeps
// going. -pass-timeout bounds each pass's wall-clock time. -j selects how
// many functions a function pass transforms concurrently (default
// GOMAXPROCS); output is identical at any setting. -check runs the static
// memory-safety checker before and after the pipeline and diffs the two
// reports: findings the pipeline fixed and findings it introduced are
// printed, and a pipeline that introduces a new error-severity finding is
// treated as a miscompile (nonzero exit). -time prints, per pass, its
// change count, wall time and analysis cache activity: hits, misses, and
// "invalidated", the cached results dropped during the pass because the
// IR they describe changed or left the module. A function's dominator
// tree and loop nest count when a lookup finds its CFG edited; module
// analyses count at the pass boundary after any edit.
//
// Observability (DESIGN.md §10): -trace-out FILE records one span per pass
// and per function worker in Chrome trace-event JSON (load it in Perfetto
// or about:tracing); -remarks streams optimization remarks (applied /
// missed / analysis, per pass and position) to stderr, and -remarks-json
// FILE writes the same stream as JSON. The remark stream is byte-identical
// at any -j.
//
// Translation validation (DESIGN.md §11): -validate runs the semantic
// equivalence oracle after every changed pass and prints one verdict line
// per pass run. A confirmed miscompile discards the pass's changes (like
// any pass failure under -policy) and the process exits with status 2 —
// distinct from status 1, which covers usage and infrastructure errors —
// so scripts can tell "the optimizer is buggy" from "the invocation is".
// Validation shares the scratch clone isolation already takes: -check,
// -validate, and rollback together still cost one snapshot per pass run
// (see the snapshots line under -time).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/dsa"
	"repro/internal/obs"
	"repro/internal/passes"
	"repro/internal/tooling"
	"repro/internal/validate"
)

// exitMiscompile is the exit status for a confirmed miscompile: the tool
// worked, the optimizer did not.
const exitMiscompile = 2

func main() {
	defer tooling.ExitOnPanic("llvm-opt")
	std := flag.Bool("std", false, "run the standard scalar pipeline")
	linktime := flag.Bool("linktime", false, "run the link-time interprocedural pipeline")
	passList := flag.String("passes", "", "comma-separated pass names")
	policy := flag.String("policy", "failfast", "pass-failure policy: failfast, skip, or rollback")
	passTimeout := flag.Duration("pass-timeout", 0, "per-pass wall-clock budget (0 = none), e.g. 30s")
	timing := flag.Bool("time", false, "report per-pass timings, change counts, and analysis cache activity")
	check := flag.Bool("check", false, "run the static checker before and after the pipeline and diff the diagnostics")
	doValidate := flag.Bool("validate", false, "prove each changed pass run semantically equivalent; confirmed miscompiles exit 2")
	jobs := flag.Int("j", 0, "function-pass parallelism (0 = GOMAXPROCS, 1 = serial)")
	binary := flag.Bool("b", false, "write bytecode instead of text")
	out := flag.String("o", "-", "output file")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON pipeline trace to FILE")
	remarks := flag.Bool("remarks", false, "print optimization remarks (applied/missed/analysis) to stderr")
	remarksJSON := flag.String("remarks-json", "", "write optimization remarks as JSON to FILE")
	flag.Parse()
	if flag.NArg() != 1 {
		tooling.Fatalf("usage: llvm-opt [flags] input")
	}
	m, err := tooling.LoadModule(flag.Arg(0))
	if err != nil {
		tooling.Fatalf("llvm-opt: %v", err)
	}
	if err := core.Verify(m); err != nil {
		tooling.Fatalf("llvm-opt: input invalid: %v", err)
	}

	pm := passes.NewPassManager()
	pm.VerifyEach = true
	pm.Timeout = *passTimeout
	pm.Parallelism = *jobs
	if *traceOut != "" {
		pm.Tracer = obs.NewTracer()
	}
	if *remarks || *remarksJSON != "" {
		pm.Remarks = obs.NewRemarks()
	}
	switch *policy {
	case "failfast":
		pm.Policy = passes.FailFast
	case "skip":
		pm.Policy = passes.SkipAndContinue
	case "rollback":
		pm.Policy = passes.Rollback
	default:
		tooling.Fatalf("llvm-opt: unknown policy %q (want failfast, skip, or rollback)", *policy)
	}
	if *doValidate {
		pm.Validator = validate.Default()
	}
	if *std {
		pm.AddStandardPipeline()
	}
	if *linktime {
		pm.AddLinkTimePipeline()
	}
	if *passList != "" {
		for _, name := range strings.Split(*passList, ",") {
			p, ok := tooling.PassByName(strings.TrimSpace(name))
			if !ok {
				tooling.Fatalf("llvm-opt: unknown pass %q", name)
			}
			pm.Add(p)
		}
	}
	var chk *checker.Checker
	var preRep *checker.Report
	if *check {
		if pm.AM == nil {
			pm.AM = analysis.NewManager()
		}
		chk = checker.New()
		chk.AM = pm.AM
		chk.Parallelism = *jobs
		chk.Remarks = pm.Remarks
		var err error
		preRep, err = chk.Check(m)
		if err != nil {
			tooling.Fatalf("llvm-opt: pre-pipeline check: %v", err)
		}
	}
	_, runErr := pm.Run(m)
	reportFailures(pm)
	var miscompiles int
	if *doValidate {
		miscompiles = reportVerdicts(pm)
	}
	if runErr != nil {
		if miscompiles > 0 {
			fmt.Fprintf(os.Stderr, "llvm-opt: validate: %d confirmed miscompile(s); module left in its last known-good state\n", miscompiles)
			os.Exit(exitMiscompile)
		}
		if pm.Policy == passes.Rollback {
			tooling.Fatalf("llvm-opt: pipeline aborted; module left in last known-good state")
		}
		tooling.Fatalf("llvm-opt: %v", runErr)
	}
	if *timing {
		for _, r := range pm.Results {
			fmt.Fprintf(os.Stderr, "%-16s %6d changes  %12v  analyses: %d hit / %d miss / %d invalidated\n",
				r.Pass, r.Changed, r.Duration, r.AnalysisHits, r.AnalysisMisses, r.AnalysisInvalidations)
		}
		s := pm.AnalysisStats()
		fmt.Fprintf(os.Stderr, "%-16s analysis cache: %d hits, %d misses, %d invalidations\n",
			"total", s.Hits, s.Misses, s.Invalidations)
		fmt.Fprintf(os.Stderr, "%-16s %d scratch clones (isolation, -check, and -validate share one per pass run)\n",
			"snapshots", pm.Snapshots)
		qs := dsa.Stats()
		fmt.Fprintf(os.Stderr, "%-16s %d queries: %d no-alias, %d may-alias, %d must-alias\n",
			"alias", qs.Total(), qs.No, qs.May, qs.Must)
		if *doValidate {
			var oracle time.Duration
			for _, r := range pm.Results {
				if r.Validation != nil {
					oracle += r.Validation.Duration
				}
			}
			fmt.Fprintf(os.Stderr, "%-16s %v total oracle time\n", "validate", oracle)
		}
	}
	if *check {
		postRep, err := chk.Check(m)
		if err != nil {
			tooling.Fatalf("llvm-opt: post-pipeline check: %v", err)
		}
		reportCheckDiff(preRep, postRep, *timing)
	}
	if pm.Remarks != nil {
		sorted := pm.Remarks.Sorted()
		if *remarks {
			if err := obs.WriteRemarksText(os.Stderr, sorted); err != nil {
				tooling.Fatalf("llvm-opt: writing remarks: %v", err)
			}
		}
		if *remarksJSON != "" {
			f, err := os.Create(*remarksJSON)
			if err != nil {
				tooling.Fatalf("llvm-opt: %v", err)
			}
			werr := obs.WriteRemarksJSON(f, sorted)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				tooling.Fatalf("llvm-opt: writing %s: %v", *remarksJSON, werr)
			}
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			tooling.Fatalf("llvm-opt: %v", err)
		}
		werr := pm.Tracer.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			tooling.Fatalf("llvm-opt: writing %s: %v", *traceOut, werr)
		}
	}
	if err := tooling.SaveModule(*out, m, *binary); err != nil {
		tooling.Fatalf("llvm-opt: %v", err)
	}
	if miscompiles > 0 {
		// Under -policy skip the output module is sound (the miscompiling
		// pass's changes were discarded), but the run still found a
		// compiler bug; say so in the exit status.
		os.Exit(exitMiscompile)
	}
}

// reportVerdicts prints the per-pass verdict table and returns the number
// of confirmed miscompiles. Passes that made no changes were not validated
// (there is nothing to prove); that is reported rather than hidden so a
// clean table can be told apart from a table that never ran.
func reportVerdicts(pm *passes.PassManager) int {
	miscompiles := 0
	for _, r := range pm.Results {
		v := r.Validation
		if v == nil {
			why := "no changes; nothing to prove"
			if r.Failed {
				why = "pass failed before validation"
			}
			fmt.Fprintf(os.Stderr, "llvm-opt: validate: %-16s %s\n", r.Pass, why)
			continue
		}
		fmt.Fprintf(os.Stderr, "llvm-opt: validate: %-16s %s\n", r.Pass, v.Summary())
		if v.Verdict == validate.Miscompile {
			miscompiles++
		}
	}
	return miscompiles
}

// reportCheckDiff compares the checker reports from before and after the
// pipeline. Diagnostics that disappeared are defects the optimizer removed
// (dead stores eliminated, unreachable blocks pruned) — reported as fixed.
// Diagnostics that appeared are suspicious: a transformation introduced
// behavior the input did not have. New warnings are reported but tolerated
// (optimizations legitimately reshape code); a NEW error-severity finding
// means the pipeline manufactured a provable memory-safety defect, which is
// treated as a miscompile and aborts with a nonzero exit.
func reportCheckDiff(pre, post *checker.Report, timing bool) {
	removed, added := diag.Diff(pre.Diags, post.Diags)
	for _, d := range removed {
		fmt.Fprintf(os.Stderr, "llvm-opt: check: fixed by pipeline: %s\n", d)
	}
	for _, d := range added {
		fmt.Fprintf(os.Stderr, "llvm-opt: check: introduced by pipeline: %s\n", d)
	}
	if timing {
		fmt.Fprintf(os.Stderr, "%-16s %d before, %d after (%d fixed, %d introduced)  %12v  analyses: %d hit / %d miss\n",
			"check", len(pre.Diags), len(post.Diags), len(removed), len(added),
			pre.Stats.Duration+post.Stats.Duration,
			pre.Stats.CacheHits+post.Stats.CacheHits,
			pre.Stats.CacheMisses+post.Stats.CacheMisses)
	}
	if n := diag.CountErrors(added); n > 0 {
		tooling.Fatalf("llvm-opt: check: pipeline introduced %d error(s) not present in the input (possible miscompile)", n)
	}
}

// reportFailures prints one line per failed pass: its name, how long it
// ran, whether its changes were rolled back, and the cause.
func reportFailures(pm *passes.PassManager) {
	for _, f := range pm.Failures() {
		state := "module state undefined"
		if f.RolledBack {
			state = "rolled back"
		}
		fmt.Fprintf(os.Stderr, "llvm-opt: pass %s failed after %v (%s): %v\n",
			f.Pass, f.Duration.Round(time.Microsecond), state, f.Err)
	}
}
