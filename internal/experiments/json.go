package experiments

import (
	"encoding/json"
	"io"
)

// Report bundles the evaluation's tables for machine-readable output
// (llvm-bench -json). Sections the caller did not run are omitted. Each
// section is a slice of the table's own row type, whose JSON keys are
// stable (TestReportKeySets pins them) so successive BENCH_*.json files
// can be diffed to track the perf trajectory across revisions.
type Report struct {
	Table1   []Table1Row   `json:"table1,omitempty"`
	Table2   []Table2Row   `json:"table2,omitempty"`
	Figure5  []Figure5Row  `json:"figure5,omitempty"`
	Checker  []CheckerRow  `json:"checker,omitempty"`
	Validate []ValidateRow `json:"validate,omitempty"`
	Tiers    []TiersRow    `json:"tiers,omitempty"`
	Alias    []AliasRow    `json:"alias,omitempty"`
}

// WriteJSON writes the report as indented JSON.
func WriteJSON(w io.Writer, r *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
