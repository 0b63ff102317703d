package dsa_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dsa"
)

// fuzzModule is the fixed corpus module FuzzDecodeSummaries decodes
// against: small, with heap nodes, pointees and per-argument summaries.
const fuzzModule = "examples/checker/clean_list.ll"

// FuzzDecodeSummaries: an LLPT1 blob decoded against a fixed module gives
// a result or an error, never a panic or an allocation sized by a hostile
// count. Every seed is the module's own encoding or a prefix of it, and the
// whole encoding re-encodes byte for byte.
func FuzzDecodeSummaries(f *testing.F) {
	mods, err := corpus.Examples("../..")
	if err != nil {
		f.Fatal(err)
	}
	var m *core.Module
	for _, cm := range mods {
		if cm.Name == fuzzModule {
			m = cm.M
		}
	}
	if m == nil {
		f.Fatalf("%s not in the corpus", fuzzModule)
	}
	enc := dsa.Analyze(m).Encode(m)
	res, err := dsa.Decode(enc, m)
	if err != nil {
		f.Fatal(err)
	}
	if again := res.Encode(m); !bytes.Equal(again, enc) {
		f.Fatalf("restored result re-encodes to %d bytes, want the %d decoded", len(again), len(enc))
	}
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add([]byte("LLPT1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := dsa.Decode(data, m)
		if (res == nil) == (err == nil) {
			t.Fatalf("Decode = %v, %v; want exactly one of a result and an error", res, err)
		}
	})
}
