package main

// The benchmark's contract with BENCHMARK.json. The lists below are the
// source: `-manifest` prints BENCHMARK.json from them, and a test holds the
// committed file against that print, so a name exists in both or neither.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type manifest struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []workloadSpec  `json:"workloads"`
	EndToEnd   []boundedMetric `json:"end_to_end"`
	PerLayer   []layerMetric   `json:"per_layer"`
}

const runSeconds = 20

var workloads = []workloadSpec{
	{"compile_cold", "closed loop, 1 caller: source to two native images with no store and no HTTP (paper Table 2, Fig. 5); minic, passes, dsa, linker, codegen do all the work, lifelong, cluster, interp none"},
	{"serve_hit", "closed loop, nproc callers: /compile of 30 stored modules through the 3-node front; front, hop, bytecode, verify and the store do all the work, passes and interp none"},
	{"run_hot", "closed loop, nproc callers: /run?profile=0 of optimised programs (LoopIters x50) on one daemon, no cluster; interp does most of the work, passes none, the store only re-interns"},
	{"serve_mix", "open loop, 40 req/s on a seeded paced schedule, 1 MiB store cap per node: 60% hits, 10% never-seen compiles, 20% profiled /run, 10% /check; the store's write, merge and eviction paths beside its reads"},
}

var endToEnd = []boundedMetric{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p95_ms", "ms", "lower", 0.25},
	{"geomean_ms", "ms", "lower", 0.25},
	{"within_limit_share", "ratio", "higher", 0.02},
	{"ok_share", "ratio", "higher", 0.001},
	{"out_bytes", "bytes", "lower", 0.01},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

var perLayer = buildPerLayer()

func buildPerLayer() []layerMetric {
	l := []layerMetric{
		{"minic.compile_ms", "ms", "lower"},
		{"minic.src_kb_per_s", "KiB/s", "higher"},
		{"core.verify_ms", "ms", "lower"},
		{"core.ir_insts_in", "count", "lower"},
		{"core.ir_insts_std", "count", "lower"},
		{"core.ir_insts_lto", "count", "lower"},
		{"passes.std_ms", "ms", "lower"},
		{"passes.lto_ms", "ms", "lower"},
		{"passes.cpu_ms", "ms", "lower"},
		{"passes.parallel_speedup", "ratio", "higher"},
	}
	for _, p := range tracedPasses {
		l = append(l, layerMetric{"passes." + p + ".ms", "ms", "lower"}, layerMetric{"passes." + p + ".changed", "count", "higher"})
	}
	return append(l, []layerMetric{
		{"analysis.cache_hit_ratio", "ratio", "higher"},
		{"analysis.invalidations", "count", "lower"},
		{"dsa.analyze_ms", "ms", "lower"},
		{"dsa.alias_queries", "count", "lower"},
		{"dsa.no_alias_share", "ratio", "higher"},
		{"dsa.typed_access_pct", "%", "higher"},
		{"linker.link_ms", "ms", "lower"},
		{"bytecode.encode_ms", "ms", "lower"},
		{"bytecode.decode_ms", "ms", "lower"},
		{"bytecode.hash_ms", "ms", "lower"},
		{"bytecode.mb_per_s", "MiB/s", "higher"},
		{"codegen.native_ms", "ms", "lower"},
		{"codegen.cisc_bytes", "bytes", "lower"},
		{"codegen.risc_bytes", "bytes", "lower"},
		{"codegen.lower_exec_ms", "ms", "lower"},
		{"interp.t0_steps_per_s", "1/s", "higher"},
		{"interp.t1_steps_per_s", "1/s", "higher"},
		{"interp.t2_steps_per_s", "1/s", "higher"},
		{"interp.auto_steps_per_s", "1/s", "higher"},
		{"interp.t1_translate_ms", "ms", "lower"},
		{"interp.t2_translate_ms", "ms", "lower"},
		{"interp.tier_ups", "count", "lower"},
		{"interp.t2_call_share", "ratio", "higher"},
		{"interp.machine_setup_ms", "ms", "lower"},
		{"interp.alloc_kb_per_run", "KiB", "lower"},
		{"profile.counts_ms", "ms", "lower"},
		{"profile.merge_ms", "ms", "lower"},
		{"store.put_module_known_ms", "ms", "lower"},
		{"store.put_module_new_ms", "ms", "lower"},
		{"store.get_artifact_ms", "ms", "lower"},
		{"store.put_artifact_ms", "ms", "lower"},
		{"store.merge_profile_ms", "ms", "lower"},
		{"store.get_profile_ms", "ms", "lower"},
		{"store.compile_warm_ms", "ms", "lower"},
		{"store.compile_cold_ms", "ms", "lower"},
		{"store.open_ms", "ms", "lower"},
		{"store.index_bytes", "bytes", "lower"},
		{"store.artifact_hit_ratio", "ratio", "higher"},
		{"store.evictions", "count", "lower"},
		{"server.compile_hit_ms", "ms", "lower"},
		{"server.run_ms", "ms", "lower"},
		{"server.check_ms", "ms", "lower"},
		{"server.read_body_ms", "ms", "lower"},
		{"server.gzip_reply_ms", "ms", "lower"},
		{"server.rejected_503", "count", "lower"},
		{"server.dedup_followers", "count", "higher"},
		{"server.phase.read_parse_ms", "ms", "lower"},
		{"server.phase.compile_ms", "ms", "lower"},
		{"server.phase.execute_ms", "ms", "lower"},
		{"cluster.front_overhead_ms", "ms", "lower"},
		{"cluster.front_canon_ms", "ms", "lower"},
		{"cluster.ring_owner_us", "us", "lower"},
		{"cluster.remote_hit_ms", "ms", "lower"},
		{"cluster.retries", "count", "lower"},
		{"cluster.owner_spread", "ratio", "lower"},
		{"checker.check_ms", "ms", "lower"},
		{"obs.trace_overhead_share", "ratio", "lower"},
		{"obs.span_count", "count", "lower"},
		{"loadgen.late_ms_p99", "ms", "lower"},
		{"loadgen.inflight_max", "count", "lower"},
		{"go.alloc_mb_per_op", "MiB", "lower"},
		{"go.gc_pause_ms", "ms", "lower"},
		{"serve_hit.unattributed_ms", "ms", "lower"},
		{"run_hot.unattributed_ms", "ms", "lower"},
	}...)
}

func theManifest() manifest {
	return manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}
