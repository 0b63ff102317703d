// Command benchmark is the repository's benchmark: four workloads, nine
// end-to-end metrics measured with tracing off, and a traced pass that times
// calls into each layer's public functions from outside. See README.md.
//
// It imports only the layer packages, never internal/experiments or
// cmd/llvm-bench: those reproduce the paper's tables and must stay free to
// change without editing the benchmark.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// config is one run's settings.
type config struct {
	workload    string
	seed        int64
	seconds     time.Duration // the timed window
	warmUp      time.Duration // discarded before it
	trace       bool
	tracedOps   int
	setUps      int    // how often set-up runs; setup_s is the median
	parallelism int    // pass manager workers on compile_cold; only the repeatability test sets it
	dir         string // the benchmark's own directory
	tmp         string // stores and scratch, removed on exit
}

// runner is one workload. prepare computes the reference outcomes once;
// setUp takes the generated inputs to a system ready for its first op and
// can be repeated after tearDown, so set-up time is a median.
type runner interface {
	prepare() error
	setUp() error
	tearDown()
	measure(d time.Duration) (window, error)
	check() []error
	outBytes() int
	limit() time.Duration
	trace(log *spanLog, ops int, lm layerMetrics) error
}

var runners = map[string]func(config) runner{
	"compile_cold": newCompileCold,
	"serve_hit":    newServeHit,
	"run_hot":      newRunHot,
	"serve_mix":    newServeMix,
}

// setUpRepeats is how often set-up runs untraced, so that setup_s is a
// median; the traced pass sets up once.
const setUpRepeats = 3

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg config
	var seconds float64
	var trace int
	var selfcheck, update, printManifest bool
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: compile_cold, serve_hit, run_hot, serve_mix or all")
	flag.Int64Var(&cfg.seed, "seed", pinnedSeed, "seed every generated input derives from")
	flag.Float64Var(&seconds, "seconds", runSeconds, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass and its per-layer metrics")
	flag.IntVar(&cfg.tracedOps, "traced-ops", 60, "ops of the traced pass")
	flag.StringVar(&cfg.dir, "dir", ".", "the benchmark's directory (out/ and testdata/ live in it)")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run the whole set twice and compare the two against each metric's bound")
	flag.BoolVar(&update, "update-expected", false, "regenerate testdata/expected_seed1.json")
	flag.BoolVar(&printManifest, "manifest", false, "print BENCHMARK.json")
	flag.Parse()
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.warmUp = cfg.seconds / 5
	cfg.trace = trace != 0
	cfg.setUps = setUpRepeats
	if cfg.trace {
		cfg.setUps = 1
	}

	var err error
	switch {
	case printManifest:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(theManifest())
	case update:
		err = updateExpected(cfg.dir)
	case selfcheck:
		err = selfCheck(cfg)
	case cfg.workload == "all":
		err = runAll(cfg)
	default:
		var res *result
		if res, err = runOne(cfg); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and returns its result line.
func runOne(cfg config) (*result, error) {
	newRunner, ok := runners[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	out := filepath.Join(cfg.dir, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(out, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	cfg.tmp = tmp

	bi, _ := debug.ReadBuildInfo()
	fmt.Printf("%s: seed %d, window %v, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		cfg.workload, cfg.seed, cfg.seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commitOf(bi))

	w := newRunner(cfg)
	if err := w.prepare(); err != nil {
		return nil, err
	}
	var setUps []float64
	for i := 0; i < cfg.setUps; i++ {
		w.tearDown()
		t0 := time.Now()
		if err := w.setUp(); err != nil {
			w.tearDown()
			return nil, err
		}
		setUps = append(setUps, time.Since(t0).Seconds())
	}
	defer w.tearDown()
	if _, err := w.measure(cfg.warmUp); err != nil {
		return nil, err
	}
	if cfg.trace {
		return tracedRun(cfg, w)
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	win, err := timedWindow(w, cfg.seconds)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	ws := summarize(win, cfg.seconds, w.limit())
	wrong := wrongOutputs(w)
	failed := ws.failed + wrong

	values := map[string]float64{
		"setup_s":            median(setUps),
		"ops_per_s":          ws.opsPerS,
		"p50_ms":             ws.p50,
		"p95_ms":             ws.p95,
		"geomean_ms":         ws.geomean,
		"within_limit_share": ws.withinLimit,
		"ok_share":           1 - float64(failed)/float64(ws.attempted+wrong),
		"out_bytes":          float64(w.outBytes()),
		"peak_rss_mb":        peakRSSMiB(),
	}
	res := &result{Correct: failed == 0, Attempted: ws.attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
		fmt.Printf("  %-20s %14.4f %s\n", m.Name, values[m.Name], m.Unit)
	}
	q1, q3 := quartiles(ws.sliceOps)
	fmt.Printf("  ops/s over %d slices: median %.1f, quartiles %.1f..%.1f; p95 has %d samples beyond it; limit %v\n",
		slices, median(ws.sliceOps), q1, q3, ws.tailBeyond, w.limit())
	fmt.Printf("  loadgen: inflight max %d, late p99 %.3f ms; go: %.4f MiB allocated per op, %.3f ms GC pause\n",
		win.inflightMax, ws.lateP99, allocPerOp(m0, m1, ws.attempted), gcPauseMs(m0, m1))
	if ws.lateP99 > lateLimitMs {
		fmt.Printf("  INVALID WINDOW: the generator sent %.1f ms late at p99 (limit %v ms)\n", ws.lateP99, lateLimitMs)
		res.Correct = false
	}
	printPerKey(cfg.workload, ws)
	return res, nil
}

// timedWindow is one measured window; a window that held no op (a length of
// zero, or shorter than the open loop's first arrival) is an error, not a
// result of zeros.
func timedWindow(w runner, d time.Duration) (window, error) {
	win, err := w.measure(d)
	if err == nil && len(win.samples) == 0 {
		err = fmt.Errorf("the window of %v held no op", d)
	}
	return win, err
}

// wrongOutputs runs the after-window output check and reports what it found.
func wrongOutputs(w runner) int {
	wrong := w.check()
	for _, e := range wrong {
		fmt.Println("WRONG OUTPUT:", e)
	}
	return len(wrong)
}

// lateLimitMs is how late the open loop's generator may send at p99 before
// its window is no measurement of the server.
const lateLimitMs = 25.0

func allocPerOp(m0, m1 runtime.MemStats, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / float64(ops)
}

func gcPauseMs(m0, m1 runtime.MemStats) float64 {
	return float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
}

func commitOf(bi *debug.BuildInfo) string {
	if bi != nil {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// printPerKey prints each program's (or request class's) median op time.
func printPerKey(workload string, ws windowStats) {
	keys := make([]int, 0, len(ws.perKey))
	for k := range ws.perKey {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	fmt.Printf("  median op time per key (ms):")
	for _, k := range keys {
		name := fmt.Sprint(k)
		if workload == "serve_mix" {
			name = classNames[k]
		}
		fmt.Printf(" %s=%.3f", name, ws.perKey[k])
	}
	fmt.Println()
}

// tracedRun is the --trace 1 half: a short untraced window for the load
// generator's and the runtime's own figures, then the traced pass.
func tracedRun(cfg config, w runner) (*result, error) {
	lm := newLayerMetrics()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	win, err := timedWindow(w, cfg.seconds/3)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	ws := summarize(win, cfg.seconds/3, w.limit())
	lm.set("loadgen.late_ms_p99", ws.lateP99)
	lm.set("loadgen.inflight_max", float64(win.inflightMax))
	lm.set("go.alloc_mb_per_op", allocPerOp(m0, m1, ws.attempted))
	lm.set("go.gc_pause_ms", gcPauseMs(m0, m1))

	log := newSpanLog()
	if err := w.trace(log, cfg.tracedOps, lm); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.dir, "out", "trace-"+cfg.workload+".json")
	if err := log.writeTrace(path); err != nil {
		return nil, err
	}
	fmt.Printf("  %d spans written to %s\n", len(log.recs), path)

	failed := ws.failed + wrongOutputs(w)
	res := &result{Correct: failed == 0, Attempted: ws.attempted + cfg.tracedOps, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range perLayer {
		res.Metrics[m.Name] = metricValue{lm[m.Name], m.Unit}
		fmt.Printf("  %-30s %16.4f %s\n", m.Name, lm[m.Name], m.Unit)
	}
	return res, nil
}
