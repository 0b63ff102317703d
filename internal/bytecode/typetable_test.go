package bytecode

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/wire"
)

// typeRecords decodes data's type table. It returns one spelling per
// derived-type record (a named struct with its body) and the number of
// distinct types the records decode to.
func typeRecords(data []byte) ([]string, int, error) {
	r := wire.NewReader(data)
	r.Expect(string(Magic[:]))
	r.Byte()
	d := &decoder{r: r}
	d.strs = make([]string, r.Count(1))
	for i := range d.strs {
		d.strs[i] = r.Str()
	}
	r.Str()
	d.readTypeTable()
	if r.Err() != nil {
		return nil, 0, r.Err()
	}
	distinct := map[core.Type]bool{}
	var recs []string
	for _, t := range d.types[firstDerivedType:] {
		s := t.String()
		if st, ok := t.(*core.StructType); ok && st.Name != "" {
			s += " = " + st.LiteralString()
		}
		recs = append(recs, s)
		distinct[t] = true
	}
	return recs, len(distinct), nil
}

// TestCorpusTypeTables holds every golden-corpus module's bytecode to one
// record per distinct type, and the module parsed back from its text to
// the same records in the same order.
func TestCorpusTypeTables(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the whole corpus")
	}
	mods, err := corpus.Golden("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, gm := range mods {
		data, err := Encode(gm.M)
		if err != nil {
			t.Fatal(err)
		}
		recs, distinct, err := typeRecords(data)
		if err != nil {
			t.Fatalf("%s: %v", gm.Name, err)
		}
		if len(recs) != distinct {
			t.Errorf("%s: %d type records for %d distinct types", gm.Name, len(recs), distinct)
		}
		back, err := asm.ParseModule(gm.M.Name, gm.M.String())
		if err != nil {
			t.Fatalf("%s: %v", gm.Name, err)
		}
		backData, err := Encode(back)
		if err != nil {
			t.Fatal(err)
		}
		if backRecs, _, err := typeRecords(backData); err != nil || !slices.Equal(backRecs, recs) {
			t.Errorf("%s: the parsed text writes other type records (%v)", gm.Name, err)
		}
	}
}

// TestDecodeParentFormat decodes an image written before types were
// canonical (testdata/parent_list.bc, examples/checker/clean_list.ll as
// assembled then): one record per spelling in the text, components listed
// after the types built on them. Its duplicate records collapse on decode,
// and the module re-encodes to the bytes the current encoder writes for
// the same source.
func TestDecodeParentFormat(t *testing.T) {
	old, err := os.ReadFile("testdata/parent_list.bc")
	if err != nil {
		t.Fatal(err)
	}
	recs, distinct, err := typeRecords(old)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) <= distinct {
		t.Fatalf("the old image holds %d records for %d types; it should repeat some", len(recs), distinct)
	}
	m, err := Decode(old)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("../../examples/checker/clean_list.ll")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := asm.ParseModule("clean_list.ll", string(src))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Encode(fresh)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the old image re-encodes to %d bytes, not the %d the source encodes to", len(got), len(want))
	}
	if len(got) >= len(old) {
		t.Errorf("re-encoding did not shrink the image: %d bytes, was %d", len(got), len(old))
	}
}

// literalCycleImages are images whose type table holds literal records
// that lead back to themselves, a pointer to itself and a pointer to a
// later array of the pointer, and one with a chain of pointers, each to
// the next record, nested deeper than the decoder follows. The encoder
// never writes them: a type built through the constructors cannot be its
// own component, and its components precede it.
func literalCycleImages() map[string][]byte {
	image := func(records func(w *wire.Writer)) []byte {
		var w wire.Writer
		w.Raw(Magic[:])
		w.Byte(Version)
		w.Uvarint(0) // strings
		w.Str("m")
		records(&w)
		return w.Bytes()
	}
	return map[string][]byte{
		"deep": image(func(w *wire.Writer) {
			const n = 2 * maxTypeNesting
			w.Uvarint(n)
			for i := 1; i < n; i++ {
				w.Byte(tkPointer)
				w.Uvarint(uint64(firstDerivedType + i))
			}
			w.Byte(tkPointer)
			w.Uvarint(6) // int
		}),
		"self": image(func(w *wire.Writer) {
			w.Uvarint(1)
			w.Byte(tkPointer)
			w.Uvarint(firstDerivedType)
		}),
		"pair": image(func(w *wire.Writer) {
			w.Uvarint(2)
			w.Byte(tkPointer)
			w.Uvarint(firstDerivedType + 1)
			w.Byte(tkArray)
			w.Uvarint(2)
			w.Uvarint(firstDerivedType)
		}),
	}
}

// TestDecodeRefusesLiteralTypeCycles: every image is refused with an
// offset error; the cycles also seed FuzzDecode (testdata/fuzz).
func TestDecodeRefusesLiteralTypeCycles(t *testing.T) {
	want := map[string]string{"self": "leads back to itself", "pair": "leads back to itself", "deep": "nests deeper"}
	for name, data := range literalCycleImages() {
		m, err := Decode(data)
		if m != nil || err == nil || !strings.Contains(err.Error(), "offset") ||
			!strings.Contains(err.Error(), want[name]) {
			t.Errorf("%s: Decode = %v, %v; want a refusal at an offset", name, m, err)
		}
	}
}
