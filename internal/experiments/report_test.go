package experiments

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"repro/internal/workload"
)

// reportKeys pins the JSON keys llvm-bench -json writes per section; the
// BENCH_*.json trajectory files are compared across revisions by these
// names. checker's by_kind appears only on rows with diagnostics.
var reportKeys = map[string][]string{
	"table1":   {"bench", "typed", "typed_percent", "untyped"},
	"table2":   {"baseline_ms", "bench", "dae_deleted", "dae_ms", "dge_deleted", "dge_ms", "func_deleted", "inline_ms", "num_inlined"},
	"figure5":  {"bench", "llvm_bytes", "llvm_packed_bytes", "sparc_bytes", "x86_bytes"},
	"checker":  {"bench", "by_kind", "check_ms", "diagnostics", "errors", "functions"},
	"validate": {"bench", "equivalent", "inconclusive", "off_ms", "on_ms", "overhead_percent", "probes"},
	"tiers":    {"auto_profiled_ms", "bench", "interp_ms", "steps", "t2_over_t1", "tier1_ms", "tier2_ms"},
	"alias":    {"bench", "classes", "off_ms", "on_ms", "overhead_percent", "queries_may", "queries_must", "queries_no", "typed_percent", "work_off", "work_on"},
}

// checkReportKeys encodes r as llvm-bench does and requires exactly the
// sections in want, each with its pinned key set (the union over its rows).
func checkReportKeys(t *testing.T, r *Report, want ...string) {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var sections map[string][]map[string]json.RawMessage
	if err := json.Unmarshal(data, &sections); err != nil {
		t.Fatal(err)
	}
	var got []string
	for name, rows := range sections {
		got = append(got, name)
		set := map[string]bool{}
		for _, row := range rows {
			for k := range row {
				set[k] = true
			}
		}
		var keys []string
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !reflect.DeepEqual(keys, reportKeys[name]) {
			t.Errorf("section %s keys = %v, want %v", name, keys, reportKeys[name])
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report sections = %v, want %v", got, want)
	}
}

// TestReportKeySets pins what llvm-bench -json promises: every section's
// key set, zero checker errors over the well-formed suite, and identical
// Table 1 counts and Figure 5 sizes across two builds. The timed sections
// are checked on one row each, from the smallest workload.
func TestReportKeySets(t *testing.T) {
	build := func() *Report {
		var r Report
		var err error
		if r.Table1, err = Table1(); err != nil {
			t.Fatal(err)
		}
		if r.Figure5, err = Figure5(); err != nil {
			t.Fatal(err)
		}
		if r.Checker, err = CheckerTable(); err != nil {
			t.Fatal(err)
		}
		return &r
	}
	r := build()
	checkReportKeys(t, r, "table1", "figure5", "checker")
	for _, row := range r.Checker {
		if row.Errors != 0 {
			t.Errorf("%s: %d checker errors on a well-formed program", row.Bench, row.Errors)
		}
	}
	again := build()
	if !reflect.DeepEqual(r.Table1, again.Table1) {
		t.Errorf("Table 1 differs between builds:\n%v\n%v", r.Table1, again.Table1)
	}
	if !reflect.DeepEqual(r.Figure5, again.Figure5) {
		t.Errorf("Figure 5 differs between builds:\n%v\n%v", r.Figure5, again.Figure5)
	}

	p, ok := workload.ByName("181.mcf")
	if !ok {
		t.Fatal("workload 181.mcf missing")
	}
	smallest := []workload.Profile{p}
	var timed Report
	var err error
	if timed.Table2, err = table2(smallest); err != nil {
		t.Fatal(err)
	}
	if timed.Validate, err = validateTable(smallest); err != nil {
		t.Fatal(err)
	}
	if timed.Tiers, err = tiersTable(smallest); err != nil {
		t.Fatal(err)
	}
	if timed.Alias, err = aliasTable(smallest); err != nil {
		t.Fatal(err)
	}
	checkReportKeys(t, &timed, "table2", "validate", "tiers", "alias")
}
