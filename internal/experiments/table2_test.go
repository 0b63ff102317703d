package experiments

import "testing"

// TestTable2WorkCounts pins the work each link-time pass does per suite
// program: DGE objects deleted, DAE arguments and returns removed, call
// sites inlined and functions the inliner deleted. Making a pass cheaper
// must leave every count alone.
func TestTable2WorkCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the whole workload suite")
	}
	type work struct{ dge, dae, inlined, deleted int }
	want := map[string]work{
		"164.gzip":    {10, 0, 20, 20},
		"175.vpr":     {21, 30, 42, 39},
		"176.gcc":     {96, 96, 156, 132},
		"177.mesa":    {36, 0, 68, 61},
		"179.art":     {4, 0, 10, 10},
		"181.mcf":     {4, 7, 9, 9},
		"183.equake":  {10, 0, 20, 20},
		"186.crafty":  {24, 0, 48, 45},
		"188.ammp":    {21, 0, 45, 40},
		"197.parser":  {27, 36, 63, 49},
		"253.perlbmk": {52, 56, 88, 76},
		"254.gap":     {52, 56, 96, 77},
		"255.vortex":  {75, 70, 140, 101},
		"256.bzip2":   {10, 0, 20, 20},
		"300.twolf":   {24, 0, 45, 42},
	}
	rows, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Errorf("%d Table 2 rows, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		got := work{r.DGEDeleted, r.DAEDeleted, r.NumInlined, r.FuncDeleted}
		if w, ok := want[r.Bench]; !ok || got != w {
			t.Errorf("%s: work (dge, dae, inlined, deleted) = %v, want %v", r.Bench, got, w)
		}
	}
}
