package repro

// The benchmark harness regenerating the paper's evaluation (§4). One
// benchmark per table/figure, with sub-benchmarks per SPEC-analogue
// program; `go test -bench=. -benchmem` prints the same rows the paper
// reports (typed-access percentages, per-pass timings vs baseline compile
// time, executable sizes). cmd/llvm-bench prints them as formatted tables.

import (
	"bytes"
	"compress/flate"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/asm"
	"repro/internal/bytecode"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/dsa"
	"repro/internal/experiments"
	"repro/internal/frontend/minic"
	"repro/internal/interp"
	"repro/internal/linker"
	"repro/internal/obs"
	"repro/internal/passes"
	"repro/internal/profile"
	"repro/internal/workload"
)

// buildCache holds each benchmark's built module as bytecode, so benches
// that need a fresh module per iteration decode (fast) instead of
// rebuilding from source (slow). The bytecode round trip is lossless, so
// the decoded module is equivalent to the built one.
var buildCache = map[string][]byte{}

// mustBuild returns a fresh copy of the linked, internalized,
// compile-time-optimized module for a benchmark.
func mustBuild(b *testing.B, p workload.Profile) *core.Module {
	b.Helper()
	bc, ok := buildCache[p.Name]
	if !ok {
		m, err := experiments.Build(p)
		if err != nil {
			b.Fatal(err)
		}
		bc = mustEncode(b, m)
		buildCache[p.Name] = bc
	}
	m, err := bytecode.Decode(bc)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// rawBuildCache is buildCache's counterpart for unoptimized modules.
var rawBuildCache = map[string][]byte{}

// mustBuildRaw returns a fresh copy of the linked module WITHOUT the
// per-unit compile-time pipeline, so whole-pipeline benchmarks (analysis
// caching, parallel scheduling) measure real transformation work instead
// of a second pass over already-clean IR.
func mustBuildRaw(b *testing.B, p workload.Profile) *core.Module {
	b.Helper()
	bc, ok := rawBuildCache[p.Name]
	if !ok {
		prog := workload.Generate(p)
		mods := make([]*core.Module, 0, len(prog.Units))
		for i, src := range prog.Units {
			m, err := minic.Compile(fmt.Sprintf("%s.u%d", p.Name, i), src)
			if err != nil {
				b.Fatal(err)
			}
			mods = append(mods, m)
		}
		m, err := linker.Link(p.Name, mods...)
		if err != nil {
			b.Fatal(err)
		}
		bc = mustEncode(b, m)
		rawBuildCache[p.Name] = bc
	}
	m, err := bytecode.Decode(bc)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func mustEncode(b *testing.B, m *core.Module) []byte {
	b.Helper()
	bc, err := bytecode.Encode(m)
	if err != nil {
		b.Fatal(err)
	}
	return bc
}

func mustEncodeStripped(b *testing.B, m *core.Module) []byte {
	b.Helper()
	bc, err := bytecode.EncodeStripped(m)
	if err != nil {
		b.Fatal(err)
	}
	return bc
}

// BenchmarkTable1 regenerates Table 1: for each benchmark, the fraction of
// static loads and stores with provably reliable type information (DSA).
// The typed%% is attached as a custom metric.
func BenchmarkTable1(b *testing.B) {
	for _, p := range workload.Suite() {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			m := mustBuild(b, p)
			var r *dsa.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r = dsa.Analyze(m)
			}
			b.ReportMetric(r.TypedPercent(), "typed%")
			b.ReportMetric(float64(r.Typed()), "typed-accesses")
			b.ReportMetric(float64(r.Untyped()), "untyped-accesses")
		})
	}
}

// BenchmarkTable2 regenerates Table 2: the running time of each link-time
// interprocedural optimization (DGE, DAE, inline) on the whole program,
// against the baseline of fully compiling the program per-unit (the
// paper's "GCC -O3" comparison column). Every iteration rebuilds the
// module outside the timer so each pass sees fresh work.
func BenchmarkTable2(b *testing.B) {
	type passCase struct {
		name string
		make func() passes.ModulePass
	}
	cases := []passCase{
		{"DGE", func() passes.ModulePass { return passes.NewDeadGlobalElim() }},
		{"DAE", func() passes.ModulePass { return passes.NewDeadArgElim() }},
		{"inline", func() passes.ModulePass { return passes.NewInline(passes.DefaultInlineThreshold) }},
	}
	for _, p := range workload.Suite() {
		p := p
		for _, pc := range cases {
			pc := pc
			b.Run(p.Name+"/"+pc.name, func(b *testing.B) {
				// Each iteration needs a fresh module; decoding it is part
				// of the timed loop (so iteration counts stay sane), and
				// the pass-only time is reported as pass-ms, the Table 2
				// figure.
				work := 0
				var passNs int64
				for i := 0; i < b.N; i++ {
					m := mustBuild(b, p)
					pass := pc.make()
					t0 := time.Now()
					work += pass.RunOnModule(m)
					passNs += time.Since(t0).Nanoseconds()
				}
				b.ReportMetric(float64(work)/float64(b.N), "changes")
				b.ReportMetric(float64(passNs)/float64(b.N)/1e6, "pass-ms")
			})
		}
		b.Run(p.Name+"/baseline-compile", func(b *testing.B) {
			prog := workload.Generate(p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for u, src := range prog.Units {
					m, err := minic.Compile(fmt.Sprintf("u%d", u), src)
					if err != nil {
						b.Fatal(err)
					}
					pm := passes.NewPassManager()
					pm.AddStandardPipeline()
					if _, err := pm.Run(m); err != nil {
						b.Fatal(err)
					}
					codegen.CompileModule(m, codegen.Cisc86{})
				}
			}
		})
	}
}

// BenchmarkFigure5 regenerates Figure 5: executable sizes for the LLVM
// bytecode form versus the CISC-86 and RISC-V9 native images, plus the
// compressed-bytecode ratio from §4.1.3. Sizes are attached as metrics.
func BenchmarkFigure5(b *testing.B) {
	for _, p := range workload.Suite() {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			m := mustBuild(b, p)
			var llvm, x86, sparc, packed int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc := mustEncode(b, m)
				llvm = len(bc)
				x86 = codegen.CompileModule(m, codegen.Cisc86{}).Size()
				sparc = codegen.CompileModule(m, codegen.RiscV9{}).Size()
				var buf bytes.Buffer
				zw, _ := flate.NewWriter(&buf, flate.BestCompression)
				zw.Write(bc)
				zw.Close()
				packed = buf.Len()
			}
			b.ReportMetric(float64(llvm), "llvm-bytes")
			b.ReportMetric(float64(x86), "x86-bytes")
			b.ReportMetric(float64(sparc), "sparc-bytes")
			b.ReportMetric(float64(llvm)/float64(x86), "llvm/x86")
			b.ReportMetric(float64(llvm)/float64(sparc), "llvm/sparc")
			b.ReportMetric(float64(packed)/float64(llvm), "packed/llvm")
		})
	}
}

// BenchmarkLinkTimePipeline times the full link-time interprocedural
// pipeline (§3.3) per program — the end-to-end cost a user pays at link
// time, complementing Table 2's per-pass numbers.
func BenchmarkLinkTimePipeline(b *testing.B) {
	for _, p := range workload.Suite() {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			var pipeNs int64
			for i := 0; i < b.N; i++ {
				m := mustBuild(b, p)
				pm := passes.NewPassManager()
				pm.AddLinkTimePipeline()
				t0 := time.Now()
				if _, err := pm.Run(m); err != nil {
					b.Fatal(err)
				}
				pipeNs += time.Since(t0).Nanoseconds()
			}
			b.ReportMetric(float64(pipeNs)/float64(b.N)/1e6, "pipeline-ms")
		})
	}
}

// traceOptProgram has the shape the runtime optimizer targets: a hot loop
// whose body calls small helpers ~2000 times — profile-guided inlining has
// real work here (static thresholds alone would also fire; the point is
// the profile pipeline end to end).
const traceOptProgram = `
static int checksum(int x) { return (x * 31 + 17) % 97; }
static int slowpath(int x) {
	int r = 0;
	int i;
	for (i = 0; i < 16; i++) r += (x + i) % 7;
	return r;
}
int main() {
	int acc = 0;
	int i;
	for (i = 0; i < 2000; i++) {
		if (checksum(i) == 0) { acc += slowpath(i); }
		else { acc += checksum(acc + i); }
	}
	return acc % 251;
}
`

// BenchmarkTraceOpt exercises the §3.5/§3.6 strategy: instrument, profile
// under the execution engine, detect hot regions, and reoptimize with the
// end-user profile. The metric is the interpreter-step reduction.
func BenchmarkTraceOpt(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := minic.Compile("traceopt", traceOptProgram)
		if err != nil {
			b.Fatal(err)
		}
		pmc := passes.NewPassManager()
		pmc.AddStandardPipeline()
		if _, err := pmc.Run(m); err != nil {
			b.Fatal(err)
		}
		ref, _ := interp.NewMachine(m, nil)
		if _, err := ref.RunMain(); err != nil {
			b.Fatal(err)
		}
		before := ref.Steps
		b.StartTimer()

		ins := profile.Instrument(m)
		mc, _ := interp.NewMachine(m, nil)
		if _, err := mc.RunMain(); err != nil {
			b.Fatal(err)
		}
		data, err := ins.ReadCounts(mc)
		if err != nil {
			b.Fatal(err)
		}
		ins.Strip()
		profile.Reoptimize(m, data, profile.DefaultReoptOptions())

		b.StopTimer()
		after, _ := interp.NewMachine(m, nil)
		if _, err := after.RunMain(); err != nil {
			b.Fatal(err)
		}
		ratio = float64(after.Steps) / float64(before)
		b.StartTimer()
	}
	b.ReportMetric(ratio, "steps-after/before")
}

// BenchmarkRepresentation measures the core representation machinery the
// paper's §4.1.4 speed argument rests on: parsing, printing, verification,
// and bytecode encode/decode throughput on the largest benchmark.
func BenchmarkRepresentation(b *testing.B) {
	p, _ := workload.ByName("176.gcc")
	m := mustBuild(b, p)
	text := m.String()
	bc := mustEncode(b, m)

	b.Run("print", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = m.String()
		}
		b.SetBytes(int64(len(text)))
	})
	b.Run("parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := parseText(text); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(text)))
	})
	b.Run("verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := core.Verify(m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bc = mustEncode(b, m)
		}
		b.SetBytes(int64(len(bc)))
	})
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bytecode.Decode(bc); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(bc)))
	})
}

// BenchmarkAblation quantifies DESIGN.md's called-out design choices: the
// compact 32-bit instruction word (vs all-escape encoding is approximated
// by symbol-stripped vs full size), and the cost of the interprocedural
// may-unwind analysis behind exception-handler pruning.
func BenchmarkAblation(b *testing.B) {
	p, _ := workload.ByName("176.gcc")
	m := mustBuild(b, p)
	b.Run("bytecode-symbols", func(b *testing.B) {
		var full, stripped int
		for i := 0; i < b.N; i++ {
			full = len(mustEncode(b, m))
			stripped = len(mustEncodeStripped(b, m))
		}
		b.ReportMetric(float64(full), "full-bytes")
		b.ReportMetric(float64(stripped), "stripped-bytes")
	})
	b.Run("pruneeh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			mm := mustBuild(b, p)
			b.StartTimer()
			passes.NewPruneEH().RunOnModule(mm)
		}
	})

	// Analysis caching: the standard pipeline with the manager on vs off.
	// Serial in both arms so the delta is purely redundant DomTree/LoopInfo
	// builds. The cached arm also reports its hit/miss counts.
	runPipeline := func(b *testing.B, prof workload.Profile, uncached bool, jobs int) {
		var stats analysis.Stats
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			mm := mustBuildRaw(b, prof)
			b.StartTimer()
			pm := passes.NewPassManager()
			pm.DisableAnalysisCache = uncached
			pm.Parallelism = jobs
			pm.AddStandardPipeline()
			if _, err := pm.Run(mm); err != nil {
				b.Fatal(err)
			}
			stats = pm.AnalysisStats()
		}
		b.ReportMetric(float64(stats.Hits), "cache-hits")
		b.ReportMetric(float64(stats.Misses), "cache-misses")
	}
	for _, name := range []string{"164.gzip", "176.gcc"} {
		prof, _ := workload.ByName(name)
		b.Run("analysis-uncached/"+name, func(b *testing.B) { runPipeline(b, prof, true, 1) })
		b.Run("analysis-cached/"+name, func(b *testing.B) { runPipeline(b, prof, false, 1) })
	}

	// Parallel function-pass scheduling: wall clock of the standard pipeline
	// serial vs one worker per core, on the largest analogue.
	b.Run("pipeline-serial", func(b *testing.B) { runPipeline(b, p, false, 1) })
	b.Run("pipeline-parallel", func(b *testing.B) { runPipeline(b, p, false, runtime.GOMAXPROCS(0)) })
}

// parseText isolates the parse benchmark's input handling.
func parseText(src string) (*core.Module, error) {
	return asm.ParseModule("bench", src)
}

// BenchmarkObsOverhead times the standard pipeline with observability off
// (nil tracer/remarks/metrics — the default) against fully on, the number
// behind the "tracing disabled costs ≤1%" contract. The instrumented arm
// reports how many spans and remarks the run captured.
func BenchmarkObsOverhead(b *testing.B) {
	for _, name := range []string{"164.gzip", "176.gcc"} {
		p, _ := workload.ByName(name)
		run := func(b *testing.B, instrument bool) {
			var spans, remarks int
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := mustBuildRaw(b, p)
				b.StartTimer()
				pm := passes.NewPassManager()
				pm.AddStandardPipeline()
				if instrument {
					pm.Tracer = obs.NewTracer()
					pm.Remarks = obs.NewRemarks()
					pm.Metrics = obs.NewRegistry()
				}
				if _, err := pm.Run(m); err != nil {
					b.Fatal(err)
				}
				if instrument {
					spans = pm.Tracer.Len()
					remarks = pm.Remarks.Len()
				}
			}
			if instrument {
				b.ReportMetric(float64(spans), "spans")
				b.ReportMetric(float64(remarks), "remarks")
			}
		}
		b.Run(name+"/off", func(b *testing.B) { run(b, false) })
		b.Run(name+"/on", func(b *testing.B) { run(b, true) })
	}
}

// TestObsDisabledZeroAlloc guards the disabled-observability contract at
// the integration point (obs_test.go covers the bare primitives): the
// per-pass and per-function instrumentation sequence the pass manager
// executes with its obs fields left nil must not allocate at all. A
// regression here taxes every pipeline run that never asked for tracing.
func TestObsDisabledZeroAlloc(t *testing.T) {
	pm := passes.NewPassManager() // Tracer/Remarks/Metrics nil, as in llvm-opt without flags
	allocs := testing.AllocsPerRun(1000, func() {
		span := pm.Tracer.Begin("licm", "pass", 0)
		fsp := pm.Tracer.Begin("hot", "function", 1)
		if pm.Remarks.Enabled() {
			t.Fatal("remarks unexpectedly enabled on a fresh pass manager")
		}
		fsp.End()
		span.End() // runOne builds EndArgs' map only when pm.Tracer != nil
	})
	if allocs != 0 {
		t.Errorf("disabled observability allocated %v times per function, want 0", allocs)
	}

	// The distributed-tracing and flight-recorder primitives keep the same
	// contract: a nil tracer mints no span IDs, a nil recorder drops
	// records, and a nil request record swallows every mutator — the
	// serving path pays nothing when the operator left them off.
	var tr *obs.Tracer
	var rec *obs.Recorder
	var rr *obs.RequestRecord
	parent := obs.SpanContext{Trace: "t-zeroalloc", Span: "s1"}
	allocs = testing.AllocsPerRun(1000, func() {
		sp := tr.StartSpan("request", "http", 0, parent)
		if sc := sp.Context(); sc.Span != "" {
			t.Fatal("nil tracer minted a span ID")
		}
		sp.End()
		rr.SetCache("hit")
		rr.SetDedup("follower", "t-other")
		rr.SetError("boom")
		rec.Add(obs.RequestRecord{})
	})
	if allocs != 0 {
		t.Errorf("disabled span/recorder primitives allocated %v times per request, want 0", allocs)
	}
}

// BenchmarkExecutionEngine compares the portable interpreter against the
// function-at-a-time JIT translation (§3.4's two execution paths) on a
// loop-heavy benchmark program.
func BenchmarkExecutionEngine(b *testing.B) {
	p, _ := workload.ByName("179.art")
	m := mustBuild(b, p)
	b.Run("interpreter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mc, _ := interp.NewMachine(m, nil)
			if _, err := mc.RunMain(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("jit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mc, _ := interp.NewMachine(m, nil)
			mc.EnableJIT()
			if _, err := mc.RunMain(); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The optimizing tier and the auto policy each run on a warm shared
	// Program, like a resident module in llvm-serve: translations exist and,
	// for auto, an earlier machine has already folded its heat in.
	for _, arm := range []struct {
		name   string
		policy interp.TierPolicy
	}{{"tier2", interp.TierOpt}, {"auto-warm", interp.TierAuto}} {
		prog := interp.NewProgram(m)
		run := func(b *testing.B) {
			mc, _ := interp.NewMachine(m, nil)
			mc.SetTier(arm.policy)
			if err := mc.AttachProgram(prog); err != nil {
				b.Fatal(err)
			}
			if _, err := mc.RunMain(); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(arm.name, func(b *testing.B) {
			run(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(b)
			}
		})
	}
}

// BenchmarkAblationInlineThreshold sweeps the inliner's size threshold —
// the main tunable of the link-time pipeline — reporting the resulting
// code size and dynamic work for the gcc analogue. It quantifies the
// size/speed trade DESIGN.md calls out.
func BenchmarkAblationInlineThreshold(b *testing.B) {
	p, _ := workload.ByName("186.crafty")
	for _, threshold := range []int{0, 10, 40, 200} {
		threshold := threshold
		b.Run(fmt.Sprintf("t=%d", threshold), func(b *testing.B) {
			var size int
			var steps int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := mustBuild(b, p)
				b.StartTimer()
				pm := passes.NewPassManager()
				inliner := passes.NewInline(threshold)
				inliner.SingleCallerAlways = false // isolate the threshold
				pm.Add(passes.NewIPConstProp(), inliner,
					passes.NewDeadArgElim(), passes.NewDeadGlobalElim())
				pm.AddStandardPipeline()
				if _, err := pm.Run(m); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				size = len(mustEncode(b, m))
				mc, _ := interp.NewMachine(m, nil)
				if _, err := mc.RunMain(); err != nil {
					b.Fatal(err)
				}
				steps = mc.Steps
				b.StartTimer()
			}
			b.ReportMetric(float64(size), "bytecode-bytes")
			b.ReportMetric(float64(steps), "interp-steps")
		})
	}
}
