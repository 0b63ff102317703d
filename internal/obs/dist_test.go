package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestValidTraceID(t *testing.T) {
	for id, want := range map[string]bool{
		"abc-123.x_Y":           true,
		"1f3a9-7":               true,
		"":                      false,
		strings.Repeat("a", 64): true,
		strings.Repeat("a", 65): false,
		"has space":             false,
		"quote\"инъекция":       false,
		"newline\n":             false,
		`{"json":"breaker"}`:    false,
		"semi;colon":            false,
	} {
		if got := ValidTraceID(id); got != want {
			t.Errorf("ValidTraceID(%q) = %v, want %v", id, got, want)
		}
	}
}

func TestNewTraceIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if !ValidTraceID(id) {
			t.Fatalf("minted trace ID %q fails its own validation", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}

// TestStartSpanIdentity pins the distributed-span contract: a span under a
// parent inherits the trace, mints a fresh span ID, and exports all three
// identity args (trace_id / span_id / parent_id) — the keys MergeTraces
// filtering and the cross-process ancestry tests rely on.
func TestStartSpanIdentity(t *testing.T) {
	tr := NewTracer()
	parent := SpanContext{Trace: "t-1", Span: "s-parent"}
	sp := tr.StartSpan("request", "http", 0, parent)
	sc := sp.Context()
	if sc.Trace != "t-1" {
		t.Errorf("child trace = %q, want t-1", sc.Trace)
	}
	if sc.Span == "" || sc.Span == "s-parent" {
		t.Errorf("child span = %q, want a freshly minted ID", sc.Span)
	}
	sp.EndArgs(map[string]string{"status": "200"})

	// Root span: trace identity but no parent link.
	root := tr.StartSpan("edge", "http", 0, SpanContext{Trace: "t-2"})
	root.End()

	// Zero parent = no trace identity at all.
	if sc := tr.StartSpan("anon", "http", 0, SpanContext{}).Context(); sc != (SpanContext{}) {
		t.Errorf("span without a parent trace got identity %+v", sc)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	byName := map[string]map[string]string{}
	for _, ev := range f.TraceEvents {
		byName[ev.Name] = ev.Args
	}
	req := byName["request"]
	if req["trace_id"] != "t-1" || req["span_id"] != sc.Span {
		t.Errorf("request span args = %v, want trace_id t-1 span_id %s", req, sc.Span)
	}
	if req["parent_id"] != "s-parent" {
		t.Errorf("request parent_id = %q, want s-parent", req["parent_id"])
	}
	if req["status"] != "200" {
		t.Errorf("request kept caller args? got %v", req)
	}
	if root := byName["edge"]; root["parent_id"] != "" {
		t.Errorf("root span has parent_id %q, want none", root["parent_id"])
	}
}

func TestRecorderRingEviction(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 6; i++ {
		r.Add(RequestRecord{TraceID: fmt.Sprintf("t-%d", i)})
	}
	if r.Len() != 4 || r.Cap() != 4 {
		t.Fatalf("len=%d cap=%d, want 4/4", r.Len(), r.Cap())
	}
	if r.Total() != 6 {
		t.Errorf("total = %d, want 6", r.Total())
	}
	snap := r.Snapshot()
	var got []string
	for _, rec := range snap {
		got = append(got, rec.TraceID)
	}
	// Newest first; t-0 and t-1 were evicted.
	want := []string{"t-5", "t-4", "t-3", "t-2"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("snapshot order = %v, want %v", got, want)
	}
	if hits := r.ByTrace("t-4"); len(hits) != 1 || hits[0].TraceID != "t-4" {
		t.Errorf("ByTrace(t-4) = %v", hits)
	}
	if hits := r.ByTrace("t-0"); hits != nil {
		t.Errorf("ByTrace found evicted record: %v", hits)
	}
}

// mkTraceFile builds a WriteJSON-shaped trace file for merge tests.
func mkTraceFile(t *testing.T, epochMicros int64, pid int, proc string, evs []traceEvent) []byte {
	t.Helper()
	f := traceFile{DisplayTimeUnit: "ms", EpochMicros: epochMicros}
	if proc != "" {
		f.TraceEvents = append(f.TraceEvents, traceEvent{
			Name: "process_name", Phase: "M", PID: pid,
			Args: map[string]string{"name": proc},
		})
	}
	f.TraceEvents = append(f.TraceEvents, evs...)
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestMergeTracesAlignsAndRenumbers pins the merge semantics: timelines
// shift onto the earliest file's wall-clock epoch, colliding process IDs
// are renumbered per file, and a trace-ID filter keeps only that request
// tree plus the process metadata that names the tracks.
func TestMergeTracesAlignsAndRenumbers(t *testing.T) {
	front := mkTraceFile(t, 1_000_000, 1, "front", []traceEvent{
		{Name: "/compile", Cat: "request", Phase: "X", TS: 100, Dur: 500, PID: 1,
			Args: map[string]string{"trace_id": "t-a", "span_id": "f1"}},
		{Name: "/stats", Cat: "request", Phase: "X", TS: 900, Dur: 10, PID: 1,
			Args: map[string]string{"trace_id": "t-b", "span_id": "f2"}},
	})
	// The node's tracer started 200µs later and also calls itself pid 1.
	node := mkTraceFile(t, 1_000_200, 1, "node0", []traceEvent{
		{Name: "/compile", Cat: "request", Phase: "X", TS: 50, Dur: 300, PID: 1,
			Args: map[string]string{"trace_id": "t-a", "span_id": "n1", "parent_id": "f1"}},
	})

	var buf bytes.Buffer
	if err := MergeTraces(&buf, "", front, node); err != nil {
		t.Fatal(err)
	}
	var merged traceFile
	if err := json.Unmarshal(buf.Bytes(), &merged); err != nil {
		t.Fatal(err)
	}
	if merged.EpochMicros != 1_000_000 {
		t.Errorf("merged epoch = %d, want the earliest input's (1000000)", merged.EpochMicros)
	}
	var nodeSpan, frontSpan *traceEvent
	pids := map[int]bool{}
	for i := range merged.TraceEvents {
		ev := &merged.TraceEvents[i]
		pids[ev.PID] = true
		switch ev.Args["span_id"] {
		case "n1":
			nodeSpan = ev
		case "f1":
			frontSpan = ev
		}
	}
	if nodeSpan == nil || frontSpan == nil {
		t.Fatalf("merged trace lost spans: %s", buf.String())
	}
	// 50µs into a file whose epoch is 200µs later = 250µs on the merged line.
	if nodeSpan.TS != 250 {
		t.Errorf("node span ts = %d, want 250 (offset by epoch delta)", nodeSpan.TS)
	}
	if frontSpan.TS != 100 {
		t.Errorf("front span ts = %d, want 100 (earliest epoch shifts by 0)", frontSpan.TS)
	}
	if frontSpan.PID == nodeSpan.PID {
		t.Errorf("pid collision survived the merge: front %d, node %d", frontSpan.PID, nodeSpan.PID)
	}

	// Filtered to one request tree: t-b's span disappears, metadata stays.
	buf.Reset()
	if err := MergeTraces(&buf, "t-a", front, node); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, `"f2"`) {
		t.Errorf("trace filter kept another request's span:\n%s", out)
	}
	if !strings.Contains(out, `"n1"`) || !strings.Contains(out, `"f1"`) {
		t.Errorf("trace filter dropped the requested tree:\n%s", out)
	}
	if !strings.Contains(out, "process_name") {
		t.Errorf("trace filter dropped process metadata:\n%s", out)
	}
}

// TestHTTPObsMiddleware pins the edge protocol: an invalid or missing
// X-Trace-Id is replaced with a minted one, a valid one is adopted, the
// response always carries the header back, the handler sees the identity
// through its context, and the access log gets one JSON line with the
// final status.
func TestHTTPObsMiddleware(t *testing.T) {
	var log bytes.Buffer
	o := NewHTTPObs(nil, "", NewTracer(), &log, false)
	var seen SpanContext
	h := o.Handler(map[string]http.Handler{"/compile": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = SpanFromContext(r.Context())
		RecordFromContext(r.Context()).SetCache("hit")
		w.WriteHeader(http.StatusTeapot)
	})})

	// Adopted: valid incoming ID with a parent span.
	req := httptest.NewRequest("POST", "/compile", nil)
	req.Header.Set(HeaderTraceID, "t-incoming")
	req.Header.Set(HeaderSpanID, "s-parent")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if got := rr.Header().Get(HeaderTraceID); got != "t-incoming" {
		t.Errorf("adopted trace = %q, want t-incoming", got)
	}
	if seen.Trace != "t-incoming" || seen.Span == "" {
		t.Errorf("handler saw span context %+v", seen)
	}

	// Minted: a log-injection attempt is discarded, not adopted.
	req = httptest.NewRequest("POST", "/compile", nil)
	req.Header.Set(HeaderTraceID, `evil" status=200`)
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	minted := rr.Header().Get(HeaderTraceID)
	if minted == "" || !ValidTraceID(minted) {
		t.Errorf("minted trace = %q, want a fresh valid ID", minted)
	}

	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("access log has %d lines, want 2:\n%s", len(lines), log.String())
	}
	var entry RequestRecord
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("access log line is not JSON: %v", err)
	}
	if entry.TraceID != "t-incoming" || entry.Status != http.StatusTeapot ||
		entry.Path != "/compile" || entry.Cache != "hit" {
		t.Errorf("access log entry = %+v", entry)
	}
	if got := o.Recorder().ByTrace("t-incoming"); len(got) != 1 || got[0].Status != http.StatusTeapot {
		t.Errorf("flight recorder ByTrace = %+v", got)
	}
}

// TestHTTPObsClientGone pins the 499 convention: a handler that wrote
// nothing because the request context died is logged as 499, not 200.
func TestHTTPObsClientGone(t *testing.T) {
	var log bytes.Buffer
	o := NewHTTPObs(nil, "", nil, &log, false)
	h := o.Handler(map[string]http.Handler{"/run": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Bail without writing, as a handler does when its budget expires.
	})})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/run", nil).WithContext(ctx)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	var entry RequestRecord
	if err := json.Unmarshal(bytes.TrimSpace(log.Bytes()), &entry); err != nil {
		t.Fatal(err)
	}
	if entry.Status != StatusClientClosed {
		t.Errorf("status = %d, want %d", entry.Status, StatusClientClosed)
	}
}

func TestPropagateHeaders(t *testing.T) {
	h := http.Header{}
	PropagateHeaders(context.Background(), h)
	if len(h) != 0 {
		t.Errorf("traceless context set headers: %v", h)
	}
	ctx := ContextWithSpan(context.Background(), SpanContext{Trace: "t-1", Span: "s-1"})
	PropagateHeaders(ctx, h)
	if h.Get(HeaderTraceID) != "t-1" || h.Get(HeaderSpanID) != "s-1" {
		t.Errorf("propagated headers = %v", h)
	}
}

// TestQuantileFromBuckets pins the histogram_quantile-style interpolation
// shared by /stats and the tests that recompute quantiles from /metrics.
func TestQuantileFromBuckets(t *testing.T) {
	r := NewRegistry()
	hist := r.Histogram("llvm_q_seconds", []float64{0.001, 0.01, 0.1, 1})
	// 10 obs in (0, 1ms], 80 in (1ms, 10ms], 10 in (10ms, 100ms].
	for i := 0; i < 10; i++ {
		hist.Observe(0.0005)
	}
	for i := 0; i < 80; i++ {
		hist.Observe(0.005)
	}
	for i := 0; i < 10; i++ {
		hist.Observe(0.05)
	}
	bounds, cum := hist.Cumulative()
	p50 := QuantileFromBuckets(bounds, cum, 0.50)
	// Rank 50 of 100 lands mid-bucket (1ms, 10ms]: interpolated.
	if p50 <= 0.001 || p50 > 0.01 {
		t.Errorf("p50 = %v, want within (0.001, 0.01]", p50)
	}
	if got := hist.Quantile(0.50); got != p50 {
		t.Errorf("Histogram.Quantile = %v, QuantileFromBuckets = %v; must agree", got, p50)
	}
	// A quantile landing in +Inf clamps to the highest finite bound.
	hist.Observe(10)
	bounds, cum = hist.Cumulative()
	if got := QuantileFromBuckets(bounds, cum, 1.0); got != 1 {
		t.Errorf("p100 in +Inf bucket = %v, want clamp to 1", got)
	}
}
