package summary

import (
	"reflect"
	"testing"

	"repro/internal/corpus"
)

// FuzzSummaryDecode: arbitrary bytes give summaries or an error, never a
// panic or an allocation sized by a hostile count, and accepted summaries
// re-encode to a blob that decodes equal.
func FuzzSummaryDecode(f *testing.F) {
	mods, err := corpus.Examples("../..")
	if err != nil {
		f.Fatal(err)
	}
	for _, cm := range mods {
		f.Add(Encode(Compute(cm.M)))
	}
	f.Add([]byte("LLSM"))
	f.Fuzz(func(t *testing.T, data []byte) {
		sums, err := Decode(data)
		if err != nil {
			return
		}
		back, err := Decode(Encode(sums))
		if err != nil {
			t.Fatalf("re-encoded summaries rejected: %v", err)
		}
		if !reflect.DeepEqual(sums, back) {
			t.Fatalf("re-encoded summaries decode differently:\n%+v\nvs\n%+v", sums, back)
		}
	})
}
