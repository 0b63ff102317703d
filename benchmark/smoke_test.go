package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func smokeConfig(workload string, trace bool) config {
	return config{
		workload: workload, seed: pinnedSeed, seconds: time.Second, warmUp: 200 * time.Millisecond,
		trace: trace, tracedOps: 5, setUps: 1, dir: ".",
	}
}

func runSmoke(t *testing.T, cfg config) *result {
	t.Helper()
	res, err := runOne(cfg)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", cfg.workload, cfg.trace, err)
	}
	if res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace=%v: %d of %d ops failed", cfg.workload, cfg.trace, res.Failed, res.Attempted)
	}
	return res
}

// Every workload emits exactly the end-to-end metrics untraced and exactly
// the per-layer metrics traced, with no failed op.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, wl := range workloads {
		res := runSmoke(t, smokeConfig(wl.Name, false))
		if len(res.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics emitted, %d declared", wl.Name, len(res.Metrics), len(endToEnd))
		}
		for _, m := range endToEnd {
			v, ok := res.Metrics[m.Name]
			if !ok || v.Unit != m.Unit {
				t.Errorf("%s: %s missing or in unit %q, want %q", wl.Name, m.Name, v.Unit, m.Unit)
			}
			if v.Value == 0 {
				t.Errorf("%s: %s is 0; an end-to-end metric must never be", wl.Name, m.Name)
			}
		}

		res = runSmoke(t, smokeConfig(wl.Name, true))
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, %d declared", wl.Name, len(res.Metrics), len(perLayer))
		}
		for _, m := range perLayer {
			if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("%s: %s missing or in unit %q, want %q", wl.Name, m.Name, v.Unit, m.Unit)
			}
		}
		if _, err := os.Stat("out/trace-" + wl.Name + ".json"); err != nil {
			t.Errorf("%s: no trace file: %v", wl.Name, err)
		}
	}
}

// The counts a compiler change is judged by repeat exactly: from run to run,
// and whether the pass manager works on one function at a time or several.
func TestExactCountsRepeat(t *testing.T) {
	exact := regexp.MustCompile(`^(core\.ir_insts_.*|passes\..*\.changed|dsa\.typed_access_pct|dsa\.alias_queries|codegen\..*_bytes)$`)
	cfg := smokeConfig("compile_cold", true)
	cfg.tracedOps = 15
	first := runSmoke(t, cfg)
	again := runSmoke(t, cfg)
	cfg.parallelism = 1
	serial := runSmoke(t, cfg)
	checked := 0
	for _, m := range perLayer {
		if !exact.MatchString(m.Name) {
			continue
		}
		checked++
		a, b, c := first.Metrics[m.Name].Value, again.Metrics[m.Name].Value, serial.Metrics[m.Name].Value
		if a != b || a != c {
			t.Errorf("%s: %v, %v on a second run, %v at parallelism 1", m.Name, a, b, c)
		}
		if a == 0 && !strings.HasSuffix(m.Name, ".changed") {
			t.Errorf("%s is 0 on compile_cold", m.Name)
		}
	}
	if checked < 20 {
		t.Fatalf("only %d exact-count metrics matched", checked)
	}

	cfg = smokeConfig("compile_cold", false)
	a := runSmoke(t, cfg).Metrics["out_bytes"].Value
	cfg.parallelism = 1
	if b := runSmoke(t, cfg).Metrics["out_bytes"].Value; a != b {
		t.Errorf("out_bytes %v at default parallelism, %v at 1", a, b)
	}
}

// BENCHMARK.json is the print of the lists in metrics.go and keeps within
// the limits of the driver's contract.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(theManifest()); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("../BENCHMARK.json differs from `benchmark -manifest`; regenerate it")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(got))
	}

	m := theManifest()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range m.Workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters or more than a line", w.Name, len(w.Why))
		}
		if runners[w.Name] == nil {
			t.Errorf("%s has no runner", w.Name)
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	setup := false
	for _, e := range m.EndToEnd {
		use(e.Name)
		if !unit.MatchString(e.Unit) || (e.Better != "lower" && e.Better != "higher") || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: unit %q, better %q, bound %v", e.Name, e.Unit, e.Better, e.Bound)
		}
		setup = setup || (e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, l := range m.PerLayer {
		use(l.Name)
		if !unit.MatchString(l.Unit) || (l.Better != "lower" && l.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", l.Name, l.Unit, l.Better)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
}

// The pinned references are those the oracle computes today.
func TestPinnedReferences(t *testing.T) {
	if _, err := references(pinnedSeed, pinnedPrograms()[:20]); err != nil {
		t.Fatal(err)
	}
	var pinned map[string]outcome
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		t.Fatal(err)
	}
	for _, p := range pinnedPrograms() {
		if _, ok := pinned[p.name]; !ok {
			t.Fatalf("%s is not pinned; run -update-expected", p.name)
		}
	}
}
