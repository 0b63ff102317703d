package wire_test

import (
	"testing"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dsa"
	"repro/internal/workload"
)

var (
	modSink *core.Module
	ptSink  *dsa.Result
)

// BenchmarkDecode decodes every workload program linked raw and after the
// link-time pipeline: its bytecode, and its LLPT1 summary against the
// module. These are the decodes the store runs on a first sight, a /check
// and an artifact miss.
func BenchmarkDecode(b *testing.B) {
	var mods []*core.Module
	var bcs, pts [][]byte
	for _, p := range workload.Suite() {
		for _, opt := range []bool{false, true} {
			m, err := corpus.Suite(p, opt)
			if err != nil {
				b.Fatal(err)
			}
			bc, err := bytecode.Encode(m)
			if err != nil {
				b.Fatal(err)
			}
			mods = append(mods, m)
			bcs = append(bcs, bc)
			pts = append(pts, dsa.Analyze(m).Encode(m))
		}
	}
	b.Run("bytecode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, bc := range bcs {
				m, err := bytecode.Decode(bc)
				if err != nil {
					b.Fatal(err)
				}
				modSink = m
			}
		}
	})
	b.Run("llpt1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, pt := range pts {
				r, err := dsa.Decode(pt, mods[j])
				if err != nil {
					b.Fatal(err)
				}
				ptSink = r
			}
		}
	})
}
