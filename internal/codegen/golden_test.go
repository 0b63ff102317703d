package codegen_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/workload"
)

// imagesGolden pins every native image the golden corpus produces. Its
// header line is the sha256 of Code, Data, FuncSizes (sorted by name) and
// Size() for both targets, in corpus order; the lines after it list one
// digest per function so that a mismatch can be located. Changing how
// code is generated without changing what is generated must leave it
// alone. Re-record it with go test -run TestCompileModuleGolden -update.
const imagesGolden = "testdata/images.golden"

var update = flag.Bool("update", false, "rewrite "+imagesGolden)

// goldenModule is one named input of the golden corpus.
type goldenModule struct {
	name string
	m    *core.Module
}

// goldenCorpus builds every workload program linked raw and linked after
// the per-unit standard pipeline, internalize and the link-time pipeline,
// followed by every .ll module under examples/, in a fixed order.
func goldenCorpus(tb testing.TB) []goldenModule {
	tb.Helper()
	mods, err := corpus.Golden("../..")
	if err != nil {
		tb.Fatal(err)
	}
	return toGolden(mods)
}

// exampleModules parses every .ll module under examples/, in path order.
func exampleModules(tb testing.TB) []goldenModule {
	tb.Helper()
	mods, err := corpus.Examples("../..")
	if err != nil {
		tb.Fatal(err)
	}
	return toGolden(mods)
}

func toGolden(mods []corpus.Module) []goldenModule {
	out := make([]goldenModule, len(mods))
	for i, cm := range mods {
		out[i] = goldenModule{cm.Name, cm.M}
	}
	return out
}

// buildSuite compiles and links one workload program; with opt it runs
// the standard pipeline per unit, then internalize and the link-time
// pipeline on the linked module.
func buildSuite(tb testing.TB, p workload.Profile, opt bool) *core.Module {
	tb.Helper()
	m, err := corpus.Suite(p, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

var goldenTargets = []codegen.Target{codegen.Cisc86{}, codegen.RiscV9{}}

// imageDigest feeds one image into h and returns its listing lines: one
// per function (name, size, code digest) and one for the image as a whole.
func imageDigest(h hash.Hash, module string, im *codegen.Image) []string {
	var n [8]byte
	putInt := func(v int) {
		binary.LittleEndian.PutUint64(n[:], uint64(v))
		h.Write(n[:])
	}
	putBytes := func(b []byte) {
		putInt(len(b))
		h.Write(b)
	}
	putBytes([]byte(module))
	putBytes([]byte(im.Target))
	putBytes(im.Code)
	putBytes(im.Data)
	names := make([]string, 0, len(im.FuncSizes))
	for name := range im.FuncSizes {
		names = append(names, name)
	}
	sort.Strings(names)
	var lines []string
	off := 0
	for _, name := range names {
		size := im.FuncSizes[name]
		putBytes([]byte(name))
		putInt(size)
		code := im.Code[min(off, len(im.Code)):min(off+size, len(im.Code))]
		sum := sha256.Sum256(code)
		lines = append(lines, fmt.Sprintf("%s %s %s %d %s", module, im.Target, name, size, hex.EncodeToString(sum[:8])))
		off += size
	}
	putInt(im.Size())
	data := sha256.Sum256(im.Data)
	lines = append(lines, fmt.Sprintf("%s %s <image> code=%d data=%s size=%d",
		module, im.Target, len(im.Code), hex.EncodeToString(data[:8]), im.Size()))
	return lines
}

// TestCompileModuleGolden holds both back-ends to the exact images they
// produced when the corpus was pinned.
func TestCompileModuleGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the whole workload suite")
	}
	h := sha256.New()
	var got []string
	for _, gm := range goldenCorpus(t) {
		for _, tgt := range goldenTargets {
			got = append(got, imageDigest(h, gm.name, codegen.CompileModule(gm.m, tgt))...)
		}
	}
	header := "sha256 " + hex.EncodeToString(h.Sum(nil))
	if *update {
		out := header + "\n" + strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(imagesGolden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(imagesGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if want[0] == header {
		return
	}
	want = want[1:]
	for i := 0; i < len(got) || i < len(want); i++ {
		g, w := "<none>", "<none>"
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("images differ from %s (%s)\nfirst difference at listing line %d:\n got  %s\n want %s",
				imagesGolden, header, i+1, g, w)
		}
	}
	t.Fatalf("images differ from %s (%s) although every listed digest matches", imagesGolden, header)
}

// imageSink keeps BenchmarkCompileModule's results observable.
var imageSink *codegen.Image

// BenchmarkCompileModule generates both native images for every workload
// program after the standard and link-time pipelines, the back-end share
// of the compile_cold benchmark workload.
func BenchmarkCompileModule(b *testing.B) {
	var mods []*core.Module
	for _, p := range workload.Suite() {
		mods = append(mods, buildSuite(b, p, true))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range mods {
			for _, tgt := range goldenTargets {
				imageSink = codegen.CompileModule(m, tgt)
			}
		}
	}
}

// TestCompileModuleAllocs bounds the allocations of one CompileModule on
// the largest linked workload module by a small constant per defined
// function: the back-end reuses its lowering and allocation scratch, so
// its allocation count must not grow with the instruction count.
func TestCompileModuleAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the whole workload suite")
	}
	var largest *core.Module
	for _, gm := range goldenCorpus(t) {
		if largest == nil || gm.m.NumInstructions() > largest.NumInstructions() {
			largest = gm.m
		}
	}
	defined := 0
	for _, f := range largest.Funcs {
		if !f.IsDeclaration() {
			defined++
		}
	}
	const perFunc, fixed = 2, 64
	for _, tgt := range goldenTargets {
		allocs := testing.AllocsPerRun(5, func() { codegen.CompileModule(largest, tgt) })
		t.Logf("%s %s: %.0f allocations for %d defined functions, %d instructions",
			largest.Name, tgt.Name(), allocs, defined, largest.NumInstructions())
		if limit := float64(perFunc*defined + fixed); allocs > limit {
			t.Errorf("%s %s: %.0f allocations per CompileModule, want at most %.0f (%d per defined function + %d)",
				largest.Name, tgt.Name(), allocs, limit, perFunc, fixed)
		}
	}
}
