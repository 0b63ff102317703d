package main

import (
	"fmt"
	"time"

	"repro/internal/bytecode"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/dsa"
	"repro/internal/frontend/minic"
	"repro/internal/linker"
	"repro/internal/passes"
)

// compileCold is the paper's Table 2 / Figure 5 path: one op takes one
// program from source to two native images, with no store and no HTTP.
// One caller: the pass manager is itself parallel at GOMAXPROCS.
type compileCold struct {
	cfg   config
	progs []*program
	refs  []outcome

	last     [][]byte // last bytecode produced per program
	lastSize []int    // last out_bytes per program
}

func newCompileCold(cfg config) runner { return &compileCold{cfg: cfg} }

func (w *compileCold) limit() time.Duration { return 250 * time.Millisecond }

func (w *compileCold) prepare() error {
	refs, err := references(w.cfg.seed, suite(w.cfg.seed, 0, 1))
	w.refs = refs
	return err
}

// setUp generates the sources and takes every program through the whole
// path once, so the first timed op is not the process's first compile.
func (w *compileCold) setUp() error {
	w.progs = suite(w.cfg.seed, 0, 1)
	w.last = make([][]byte, len(w.progs))
	w.lastSize = make([]int, len(w.progs))
	for i := range w.progs {
		if _, err := w.compile(i, nil, 0, nil); err != nil {
			return err
		}
	}
	return nil
}

func (w *compileCold) tearDown() {}

func (w *compileCold) measure(d time.Duration) (window, error) {
	return closedLoop(1, d, func(n int) (int, bool) {
		i := n % len(w.progs)
		_, err := w.compile(i, nil, 0, nil)
		return i, err == nil
	}), nil
}

func (w *compileCold) check() []error {
	var errs []error
	for i, p := range w.progs {
		if err := checkArtifact(w.last[i], w.refs[i]); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", p.name, err))
		}
	}
	return errs
}

func (w *compileCold) outBytes() int {
	n := 0
	for _, s := range w.lastSize {
		n += s
	}
	return n
}

// coldFacts is what one traced op reports besides its spans: the pass
// manager's own results and the exact counts.
type coldFacts struct {
	results                       []passes.PassResult
	hits, misses, invalidations   uint64
	instsIn, instsStd, instsLTO   int
	bcBytes, ciscBytes, riscBytes int
	srcBytes                      int
}

// compile is the op. Every stage is one call into a layer's public
// function; under a span log each call is wrapped in a span named after the
// layer. parallelism 0 is the pass manager's default.
func (w *compileCold) compile(i int, log *spanLog, op int, facts *coldFacts) (*core.Module, error) {
	p := w.progs[i]
	root := log.start("op.compile_cold", op, nil)
	defer root.end()
	if facts != nil {
		facts.srcBytes = p.srcBytes()
	}
	mods := make([]*core.Module, 0, len(p.units))
	for u, src := range p.units {
		sp := log.start("minic.compile", op, root)
		m, err := minic.Compile(fmt.Sprintf("%s.u%d", p.name, u), src)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("%s unit %d: %w", p.name, u, err)
		}
		sp = log.start("core.verify", op, root)
		err = core.Verify(m)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("%s unit %d: %w", p.name, u, err)
		}
		if facts != nil {
			facts.instsIn += m.NumInstructions()
		}
		pm := passes.NewPassManager()
		pm.Parallelism = w.cfg.parallelism
		pm.AddStandardPipeline()
		sp = log.start("passes.std", op, root)
		_, err = pm.Run(m)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("%s unit %d: %w", p.name, u, err)
		}
		if facts != nil {
			facts.add(pm)
			facts.instsStd += m.NumInstructions()
		}
		mods = append(mods, m)
	}
	sp := log.start("linker.link", op, root)
	linked, err := linker.Link(p.name, mods...)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	pm := passes.NewPassManager()
	pm.Parallelism = w.cfg.parallelism
	pm.AddLinkTimePipeline()
	sp = log.start("passes.lto", op, root)
	passes.NewInternalize().RunOnModule(linked)
	_, err = pm.Run(linked)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	sp = log.start("core.verify", op, root)
	err = core.Verify(linked)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	sp = log.start("bytecode.encode", op, root)
	bc, err := bytecode.Encode(linked)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	sp = log.start("codegen.native", op, root)
	cisc := codegen.CompileModule(linked, codegen.Cisc86{}).Size()
	risc := codegen.CompileModule(linked, codegen.RiscV9{}).Size()
	sp.end()
	w.last[i], w.lastSize[i] = bc, len(bc)+cisc+risc
	if facts != nil {
		facts.add(pm)
		facts.instsLTO = linked.NumInstructions()
		facts.bcBytes, facts.ciscBytes, facts.riscBytes = len(bc), cisc, risc
	}
	return linked, nil
}

func (f *coldFacts) add(pm *passes.PassManager) {
	f.results = append(f.results, pm.Results...)
	st := pm.AnalysisStats()
	f.hits += st.Hits
	f.misses += st.Misses
	f.invalidations += st.Invalidations
}

// tracedPasses are the passes reported by name, as PassResult.Pass spells
// them.
var tracedPasses = []string{
	"sroa", "mem2reg", "instcombine", "sccp", "cse", "licm", "dse", "adce",
	"simplifycfg", "ipcp", "inline", "dae", "dge", "gloadelim",
}

// trace runs whole passes over the suite with every stage under a span.
// Times are medians over ops; counts are sums over the first pass of the
// suite, which are exact and must repeat from run to run.
func (w *compileCold) trace(log *spanLog, ops int, lm layerMetrics) error {
	n := len(w.progs)
	rounds := (ops + n - 1) / n

	// The same ops with no span log, for the tracing overhead.
	var plainMs, tracedMs []float64
	for op := 0; op < rounds*n; op++ {
		t0 := time.Now()
		if _, err := w.compile(op%n, nil, op, nil); err != nil {
			return err
		}
		plainMs = append(plainMs, ms(time.Since(t0)))
	}

	var all []coldFacts
	var typedPct []float64
	var queries dsa.QueryStats
	for op := 0; op < rounds*n; op++ {
		var f coldFacts
		q0 := dsa.Stats()
		t0 := time.Now()
		linked, err := w.compile(op%n, log, op, &f)
		if err != nil {
			return err
		}
		tracedMs = append(tracedMs, ms(time.Since(t0)))
		all = append(all, f)
		if op >= n {
			continue
		}
		q1 := dsa.Stats()
		queries.No += q1.No - q0.No
		queries.May += q1.May - q0.May
		queries.Must += q1.Must - q0.Must
		// Table 1's quantity, on the module the link-time pipeline
		// produced. A root span of its own: it is not part of the op.
		sp := log.start("dsa.analyze", op, nil)
		res := dsa.Analyze(linked)
		sp.end()
		typedPct = append(typedPct, res.TypedPercent())
	}

	recs, self := log.recs, selfTimes(log.recs)
	named := func(name string) []float64 {
		return perOp(recs, self, func(s string) bool { return s == name })
	}
	for span, metric := range map[string]string{
		"minic.compile":   "minic.compile_ms",
		"core.verify":     "core.verify_ms",
		"passes.std":      "passes.std_ms",
		"passes.lto":      "passes.lto_ms",
		"linker.link":     "linker.link_ms",
		"bytecode.encode": "bytecode.encode_ms",
		"codegen.native":  "codegen.native_ms",
		"dsa.analyze":     "dsa.analyze_ms",
	} {
		lm.set(metric, median(named(span)))
	}
	lm.set("dsa.typed_access_pct", sum(typedPct)/float64(len(typedPct)))
	lm.set("dsa.alias_queries", float64(queries.Total()))
	if t := queries.Total(); t > 0 {
		lm.set("dsa.no_alias_share", float64(queries.No)/float64(t))
	}

	var srcKB, bcMB float64
	var cpu, wall time.Duration
	var hits, misses, invalidations uint64
	passMs := map[string][]float64{}
	for op, f := range all {
		perPass := map[string]time.Duration{}
		for _, r := range f.results {
			perPass[r.Pass] += r.Duration
			cpu += r.CPUTime
			wall += r.Duration
			if op < n {
				lm.add("passes."+r.Pass+".changed", float64(r.Changed))
			}
		}
		for _, name := range tracedPasses {
			passMs[name] = append(passMs[name], ms(perPass[name]))
		}
		hits, misses, invalidations = hits+f.hits, misses+f.misses, invalidations+f.invalidations
		srcKB += float64(f.srcBytes) / 1024
		bcMB += float64(f.bcBytes) / (1 << 20)
		if op < n {
			lm.add("core.ir_insts_in", float64(f.instsIn))
			lm.add("core.ir_insts_std", float64(f.instsStd))
			lm.add("core.ir_insts_lto", float64(f.instsLTO))
			lm.add("codegen.cisc_bytes", float64(f.ciscBytes))
			lm.add("codegen.risc_bytes", float64(f.riscBytes))
		}
	}
	for _, name := range tracedPasses {
		lm.set("passes."+name+".ms", median(passMs[name]))
	}
	lm.set("passes.cpu_ms", ms(cpu)/float64(len(all)))
	lm.set("passes.parallel_speedup", float64(cpu)/float64(wall))
	lm.set("analysis.cache_hit_ratio", float64(hits)/float64(hits+misses))
	lm.set("analysis.invalidations", float64(invalidations)/float64(rounds))
	lm.set("minic.src_kb_per_s", srcKB/(sum(named("minic.compile"))/1000))
	lm.set("bytecode.mb_per_s", bcMB/(sum(named("bytecode.encode"))/1000))
	lm.set("obs.trace_overhead_share", median(tracedMs)/median(plainMs)-1)
	lm.set("obs.span_count", float64(len(recs)))
	printShares("compile_cold", recs, self, "op.compile_cold")
	return nil
}
