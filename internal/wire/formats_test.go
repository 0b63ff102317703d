package wire_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/corpus"
	"repro/internal/dsa"
	"repro/internal/summary"
)

// blobs holds one corpus module's three binary encodings: its bytecode,
// its LLPT1 points-to summary and its .sum interprocedural summary.
type blobs struct {
	mod                   corpus.Module
	bytecode, llpt1, sums []byte
}

var (
	corpusOnce  sync.Once
	corpusBlobs []blobs
	corpusErr   error
)

// corpusEncodings encodes every module of the golden corpus once per test
// binary in all three formats.
func corpusEncodings(t *testing.T) []blobs {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the whole workload suite")
	}
	corpusOnce.Do(func() {
		mods, err := corpus.Golden("../..")
		if err != nil {
			corpusErr = err
			return
		}
		for _, cm := range mods {
			bc, err := bytecode.Encode(cm.M)
			if err != nil {
				corpusErr = fmt.Errorf("%s: %v", cm.Name, err)
				return
			}
			corpusBlobs = append(corpusBlobs, blobs{
				mod:      cm,
				bytecode: bc,
				llpt1:    dsa.Analyze(cm.M).Encode(cm.M),
				sums:     summary.Encode(summary.Compute(cm.M)),
			})
		}
	})
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return corpusBlobs
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestWireFormatsGolden pins the three binary formats byte for byte: one
// SHA-256 per corpus module for its bytecode, LLPT1 and .sum encodings,
// listed in testdata/formats.golden. Changing how a format is written
// without changing what is written must leave every line alone.
func TestWireFormatsGolden(t *testing.T) {
	var got []string
	for _, b := range corpusEncodings(t) {
		got = append(got, fmt.Sprintf("%s bytecode=%s llpt1=%s sum=%s",
			b.mod.Name, digest(b.bytecode), digest(b.llpt1), digest(b.sums)))
	}
	f, err := os.Open("testdata/formats.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		g, w := "<none>", "<none>"
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("encodings differ from the pinned corpus at line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}

// prefixCuts returns up to 200 evenly spaced strict prefix lengths of an
// n-byte blob, every length from 0 when the blob is shorter than that.
func prefixCuts(n int) []int {
	const max = 200
	var cuts []int
	if n <= max {
		for i := 0; i < n; i++ {
			cuts = append(cuts, i)
		}
		return cuts
	}
	for i := 0; i < max; i++ {
		cuts = append(cuts, i*n/max)
	}
	return cuts
}

// TestDecodersRejectTruncation cuts every corpus blob short at evenly
// spaced points and requires each decoder to refuse every prefix with an
// error and no result. A bytecode prefix must be refused by the decoder's
// own checks, not by its panic recovery.
func TestDecodersRejectTruncation(t *testing.T) {
	var nBC, nPT, nSum int
	for _, b := range corpusEncodings(t) {
		for _, cut := range prefixCuts(len(b.bytecode)) {
			nBC++
			m, err := bytecode.Decode(b.bytecode[:cut])
			if err == nil || m != nil {
				t.Fatalf("%s: bytecode prefix %d/%d accepted", b.mod.Name, cut, len(b.bytecode))
			}
			if strings.Contains(err.Error(), "invalid input") {
				t.Fatalf("%s: bytecode prefix %d/%d reached the panic recovery: %v", b.mod.Name, cut, len(b.bytecode), err)
			}
		}
		for _, cut := range prefixCuts(len(b.llpt1)) {
			nPT++
			r, err := dsa.Decode(b.llpt1[:cut], b.mod.M)
			if err == nil || r != nil {
				t.Fatalf("%s: LLPT1 prefix %d/%d accepted", b.mod.Name, cut, len(b.llpt1))
			}
		}
		for _, cut := range prefixCuts(len(b.sums)) {
			nSum++
			s, err := summary.Decode(b.sums[:cut])
			if err == nil || s != nil {
				t.Fatalf("%s: .sum prefix %d/%d accepted", b.mod.Name, cut, len(b.sums))
			}
		}
	}
	t.Logf("rejected %d bytecode, %d LLPT1 and %d .sum prefixes", nBC, nPT, nSum)
}
