package asm_test

import (
	"bytes"
	"testing"

	"repro/internal/asm"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/corpus"
)

// TestCorpusTextRoundTrip holds the text form to being lossless (§2.5) on
// every module of the golden corpus, the link-time-optimized ones
// included: printing, parsing and printing again is the identity, the
// re-parsed module verifies, the module's bytecode decodes to the same
// text, and the text is a fixed point at the bytecode level too (parsing
// it and parsing its re-print encode alike). The parsed module's types
// are the module's own, record for record (TestCorpusTypeTables in
// internal/bytecode); its bytecode still differs from the module's in
// value names, as the parser names the values the printer numbers.
func TestCorpusTextRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the whole corpus")
	}
	mods, err := corpus.Golden("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, gm := range mods {
		text := gm.M.String()
		back := parseVerified(t, gm.M.Name, text)
		if back == nil {
			continue
		}
		if again := back.String(); again != text {
			t.Errorf("%s: print → parse → print is not the identity", gm.Name)
			continue
		}
		bc, err := bytecode.Encode(gm.M)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := bytecode.Decode(bc)
		if err != nil {
			t.Fatal(err)
		}
		if dec.String() != text {
			t.Errorf("%s: bytecode decodes to different text", gm.Name)
		}
		again := parseVerified(t, gm.M.Name, back.String())
		if again == nil {
			continue
		}
		want, err1 := bytecode.Encode(back)
		got, err2 := bytecode.Encode(again)
		if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: re-parsing the re-printed text changes the bytecode", gm.Name)
		}
	}
	if len(mods) < 40 {
		t.Fatalf("only %d corpus members checked", len(mods))
	}
}

func parseVerified(t *testing.T, name, text string) *core.Module {
	t.Helper()
	m, err := asm.ParseModule(name, text)
	if err != nil {
		t.Errorf("%s: printed text does not parse: %v", name, err)
		return nil
	}
	if err := core.Verify(m); err != nil {
		t.Errorf("%s: re-parsed module does not verify: %v", name, err)
		return nil
	}
	return m
}

// TestWideIntArrayPrintsAsList is the minimal case: a NUL-terminated
// array of longs must not print as c"..." (which reads back as sbyte),
// while a ubyte string keeps both the shorthand and its element type.
func TestWideIntArrayPrintsAsList(t *testing.T) {
	long := core.NewArrayConst(core.LongType, []core.Constant{
		core.NewInt(core.LongType, 56), core.NewInt(core.LongType, 8), core.NewInt(core.LongType, 0)})
	if got, want := long.String(), "[ long 56, long 8, long 0 ]"; got != want {
		t.Errorf("long array prints as %s, want %s", got, want)
	}
	m, err := asm.ParseModule("u", "%u = internal constant [3 x ubyte] c\"hi\\00\"\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	if got := m.Globals[0].Init.(*core.ConstantArray).String(); got != `c"hi\00"` {
		t.Errorf("ubyte string prints as %s", got)
	}
}
