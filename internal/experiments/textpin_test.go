package experiments_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/experiments"
)

const textGolden = "testdata/text.golden"

var updateText = flag.Bool("update", false, "rewrite "+textGolden)

// TestPrintedTextGolden pins what the type system's representation must
// not change: the sha256 of the printed text of every golden-corpus
// module (the printer spells named types by name and literal types by
// their components, so how types are stored never shows), and Table 1's
// typed and untyped access counts per program.
func TestPrintedTextGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the whole corpus")
	}
	mods, err := corpus.Golden("../..")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, gm := range mods {
		sum := sha256.Sum256([]byte(gm.M.String()))
		got = append(got, gm.Name+" text "+hex.EncodeToString(sum[:]))
	}
	rows, err := experiments.Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		got = append(got, fmt.Sprintf("%s table1 typed=%d untyped=%d", r.Bench, r.Typed, r.Untyped))
	}
	if *updateText {
		if err := os.WriteFile(textGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(textGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		g, w := "<none>", "<none>"
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}
