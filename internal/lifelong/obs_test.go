package lifelong

// Tests for the daemon's observability surface: /metrics must expose the
// pass, analysis-cache, interpreter, store, and request series after real
// traffic; /stats must agree with /metrics (both render the same
// counters); every response must carry a trace id, and the access log one
// JSON line per request keyed by it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// scrape fetches /metrics and returns the Prometheus text.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q, want text/plain", ct)
	}
	return string(data)
}

func TestMetricsExposesAllSubsystems(t *testing.T) {
	_, ts := newTestServer(t, Config{DisableReopt: true})
	mod := hotModuleText(t)
	if resp, _ := post(t, ts.URL+"/compile", mod); resp.StatusCode != http.StatusOK {
		t.Fatalf("/compile: %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/run", mod); resp.StatusCode != http.StatusOK {
		t.Fatalf("/run: %d", resp.StatusCode)
	}
	out := scrape(t, ts.URL)
	for _, series := range []string{
		`llvm_pass_runs_total{pass="mem2reg"}`,
		"llvm_pass_wall_seconds_bucket",
		"llvm_pass_cpu_seconds_total",
		"llvm_analysis_cache_hits_total",
		"llvm_analysis_cache_misses_total",
		"llvm_interp_runs_total 1",
		"llvm_interp_instructions_total",
		"llvm_store_artifact_misses_total 1",
		"llvm_store_module_hits_total",
		`llvm_serve_requests_total{endpoint="compile"} 1`,
		`llvm_serve_requests_total{endpoint="run"} 1`,
		`llvm_serve_request_seconds_count{endpoint="/compile"} 1`,
		"llvm_serve_inflight",
		"llvm_reopt_builds_total 0",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
}

// TestRequestMetricLabelCardinality checks that unknown request paths do
// not mint new histogram series: each distinct path would otherwise become
// a permanent registry entry, letting any client grow daemon memory and
// /metrics output without bound.
func TestRequestMetricLabelCardinality(t *testing.T) {
	_, ts := newTestServer(t, Config{DisableReopt: true})
	for _, p := range []string{"/nope", "/nope/2", "/admin", "/x/y/z"} {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	out := scrape(t, ts.URL)
	if !strings.Contains(out, `llvm_serve_request_seconds_count{endpoint="other"} 4`) {
		t.Errorf("unknown paths not collapsed to endpoint=\"other\":\n%s", out)
	}
	for _, leaked := range []string{`endpoint="/nope"`, `endpoint="/admin"`, `endpoint="/x/y/z"`} {
		if strings.Contains(out, leaked) {
			t.Errorf("/metrics leaked per-path series %s", leaked)
		}
	}
}

// TestStatsAgreesWithMetrics drives traffic, then checks the /stats JSON
// and the /metrics scrape report identical request and store counts —
// the rebuilt /stats reads the registry, so disagreement is structural
// breakage, not a race.
func TestStatsAgreesWithMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{DisableReopt: true})
	mod := hotModuleText(t)
	canon := canonicalBytes(t, mod)
	// The text teaches the daemon the module; its canonical bytes are then
	// served by content address, except on the /run that makes it resident.
	post(t, ts.URL+"/compile", mod)
	for i := 0; i < 2; i++ {
		post(t, ts.URL+"/compile", canon)
		post(t, ts.URL+"/run", canon)
	}
	post(t, ts.URL+"/check", mod)

	var st statsResponse
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	out := scrape(t, ts.URL)
	for series, want := range map[string]uint64{
		`llvm_serve_requests_total{endpoint="compile"}`:    st.Requests.Compile,
		`llvm_serve_requests_total{endpoint="run"}`:        st.Requests.Run,
		`llvm_serve_requests_total{endpoint="check"}`:      st.Requests.Check,
		"llvm_serve_rejected_total":                        st.Requests.Rejected,
		`llvm_serve_known_bytes_total{endpoint="compile"}`: st.Requests.KnownBytes.Compile,
		`llvm_serve_known_bytes_total{endpoint="run"}`:     st.Requests.KnownBytes.Run,
		"llvm_store_artifact_hits_total":                   st.Store.ArtifactHits,
		"llvm_store_artifact_misses_total":                 st.Store.ArtifactMisses,
		"llvm_store_evictions_total":                       st.Store.Evictions,
		"llvm_reopt_builds_total":                          st.Reopt.ArtifactsBuilt,
	} {
		line := fmt.Sprintf("%s %d\n", series, want)
		if !strings.Contains(out, line) {
			t.Errorf("/metrics disagrees with /stats: want line %q in:\n%s", line, out)
		}
	}
	if st.Requests.Compile != 3 || st.Requests.Run != 2 || st.Requests.Check != 1 ||
		st.Requests.KnownBytes.Compile != 2 || st.Requests.KnownBytes.Run != 1 {
		t.Errorf("stats = %+v, want 3 compiles (2 by content address) / 2 runs (1) / 1 check", st.Requests)
	}
}

// syncBuffer is a goroutine-safe log sink (requests log concurrently).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestTraceIDsAndAccessLog(t *testing.T) {
	var log syncBuffer
	tr := obs.NewTracer()
	_, ts := newTestServer(t, Config{DisableReopt: true, AccessLog: &log, Tracer: tr})
	mod := hotModuleText(t)

	resp, _ := post(t, ts.URL+"/compile", mod)
	id1 := resp.Header.Get("X-Trace-Id")
	resp2, _ := post(t, ts.URL+"/compile", mod)
	id2 := resp2.Header.Get("X-Trace-Id")
	if id1 == "" || id2 == "" || id1 == id2 {
		t.Fatalf("trace ids not unique: %q vs %q", id1, id2)
	}

	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("access log has %d lines, want 2:\n%s", len(lines), log.String())
	}
	var rec accessRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("access log line is not JSON: %v", err)
	}
	if rec.TraceID != id1 || rec.Path != "/compile" || rec.Status != http.StatusOK ||
		rec.Method != http.MethodPost || rec.Bytes <= 0 {
		t.Errorf("access record = %+v, want trace %s POST /compile 200", rec, id1)
	}

	// The tracer saw the request span plus the compile span with per-pass
	// children (first request was a miss, so the pipeline ran).
	if tr.Len() == 0 {
		t.Fatal("server tracer recorded no events")
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	trace := buf.String()
	for _, name := range []string{`"/compile"`, `"compile"`, `"mem2reg"`} {
		if !strings.Contains(trace, name) {
			t.Errorf("trace missing span %s", name)
		}
	}
}
