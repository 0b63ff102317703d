package checker_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/checker"
	"repro/internal/corpus"
	"repro/internal/diag"
)

var update = flag.Bool("update", false, "rewrite testdata/diagnostics.golden")

const diagnosticsGolden = "testdata/diagnostics.golden"

// TestCheckerVersionPinsDiagnostics holds checker.Version to the output it
// names. testdata/diagnostics.golden records the version, a SHA-256 over
// the diagnostics JSON of every golden-corpus module (which includes
// examples/checker) and one line per module so a change can be located.
// Stored /check reports are keyed by the version, so a change to the
// diagnostics without a new version would serve stale reports.
func TestCheckerVersionPinsDiagnostics(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the whole workload suite")
	}
	mods, err := corpus.Golden("../..")
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var lines []string
	for _, cm := range mods {
		rep, err := checker.New().Check(cm.M)
		if err != nil {
			t.Fatalf("%s: %v", cm.Name, err)
		}
		js, err := json.Marshal(rep.Diags)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\x00%d\x00", cm.Name, len(js))
		h.Write(js)
		sum := sha256.Sum256(js)
		lines = append(lines, fmt.Sprintf("%s diags=%d errors=%d %s",
			cm.Name, len(rep.Diags), diag.CountErrors(rep.Diags), hex.EncodeToString(sum[:8])))
	}
	digest := hex.EncodeToString(h.Sum(nil))
	if *update {
		out := fmt.Sprintf("version %s\nsha256 %s\n%s\n", checker.Version, digest, strings.Join(lines, "\n"))
		if err := os.WriteFile(diagnosticsGolden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(diagnosticsGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var wantVersion, wantDigest string
	var wantLines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "version "):
			wantVersion = strings.TrimPrefix(line, "version ")
		case strings.HasPrefix(line, "sha256 "):
			wantDigest = strings.TrimPrefix(line, "sha256 ")
		case line != "":
			wantLines = append(wantLines, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if digest == wantDigest && checker.Version == wantVersion {
		return
	}
	for i := 0; i < len(lines) || i < len(wantLines); i++ {
		var got, want string
		if i < len(lines) {
			got = lines[i]
		}
		if i < len(wantLines) {
			want = wantLines[i]
		}
		if got != want {
			t.Logf("module line %d:\n got  %s\n want %s", i, got, want)
		}
	}
	switch {
	case checker.Version == wantVersion:
		t.Fatalf("checker diagnostics changed (sha256 %s, recorded %s) but checker.Version is still %q: "+
			"bump checker.Version, then re-record with go test -run TestCheckerVersionPinsDiagnostics -update",
			digest, wantDigest, checker.Version)
	default:
		t.Fatalf("checker.Version is %q but %s records %q: re-record with go test -run TestCheckerVersionPinsDiagnostics -update",
			checker.Version, diagnosticsGolden, wantVersion)
	}
}
