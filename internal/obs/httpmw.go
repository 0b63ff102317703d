package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// StatusClientClosed is the access-log status for a request that
// terminated without a response being written — the client went away (or
// the per-request budget expired) mid-flight. 499 is nginx's convention;
// logging it beats the old behavior of recording such aborts as 200.
const StatusClientClosed = 499

// HTTPObs is the HTTP edge every serving process shares: the lifelong
// daemon, the cluster node that wraps it, and the cluster front. Its
// middleware speaks the trace-context protocol: adopt the request's
// X-Trace-Id (minting one at the cluster's edge), parent a request span
// under the sender's X-Span-Id, expose both to the handler through the
// request context, and finalize one RequestRecord per request into the
// access log, the flight recorder, and the per-endpoint latency
// histogram. No terminated request — 503 on saturation, 413 on the
// body-size guard, timeouts, aborted replies — escapes without an
// X-Trace-Id and a record carrying its final status.
//
// Next to the process's own routes, Handler serves the observability
// surface over the edge's registry and its always-on flight recorder:
//
//	/metrics           the registry in the Prometheus text format
//	/debug/requests    recent requests, newest first (ring of Recorder.Cap)
//	/debug/trace/<id>  the recorded requests carrying one trace ID
//	/debug/pprof/*     net/http/pprof, only when the edge was built with pprof
type HTTPObs struct {
	metrics   *Registry
	histogram string
	tracer    *Tracer
	accessLog io.Writer
	pprof     bool
	recorder  *Recorder

	logMu sync.Mutex
}

// NewHTTPObs builds one process's edge. metrics is the registry /metrics
// renders; the request-duration histogram family named histogram lives in
// it, labelled by endpoint. tracer and accessLog may be nil. pprof mounts
// net/http/pprof, which can stall the process and so is off unless an
// operator asks for it.
func NewHTTPObs(metrics *Registry, histogram string, tracer *Tracer, accessLog io.Writer, pprof bool) *HTTPObs {
	return &HTTPObs{
		metrics:   metrics,
		histogram: histogram,
		tracer:    tracer,
		accessLog: accessLog,
		pprof:     pprof,
		recorder:  NewRecorder(0),
	}
}

// Recorder returns the edge's flight recorder.
func (o *HTTPObs) Recorder() *Recorder { return o.recorder }

// Latency returns the request-duration histogram for one endpoint label.
func (o *HTTPObs) Latency(endpoint string) *Histogram {
	return o.metrics.Histogram(o.histogram, ServeLatencyBuckets, "endpoint", endpoint)
}

// Handler serves routes (keyed by ServeMux pattern) and the observability
// surface, all inside the middleware. Endpoint labels come from the
// patterns registered here: any path under /debug/ is "/debug" (trace IDs
// in /debug/trace/<id> are client-chosen), a path equal to a pattern is
// that pattern, and every other path is "other". The label set is the
// registry's series key, so labelling raw paths would let any client mint
// a new histogram series per 404 and grow /metrics without bound.
func (o *HTTPObs) Handler(routes map[string]http.Handler) http.Handler {
	mux := http.NewServeMux()
	patterns := map[string]bool{}
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, h)
		patterns[pattern] = true
	}
	for pattern, h := range routes {
		handle(pattern, h.ServeHTTP)
	}
	handle("/metrics", o.serveMetrics)
	handle("/debug/requests", o.serveRequests)
	handle("/debug/trace/", o.serveTrace)
	if o.pprof {
		handle("/debug/pprof/", pprof.Index)
		handle("/debug/pprof/cmdline", pprof.Cmdline)
		handle("/debug/pprof/profile", pprof.Profile)
		handle("/debug/pprof/symbol", pprof.Symbol)
		handle("/debug/pprof/trace", pprof.Trace)
	}
	return o.middleware(mux, func(path string) string {
		switch {
		case strings.HasPrefix(path, "/debug/"):
			return "/debug"
		case patterns[path]:
			return path
		}
		return "other"
	})
}

// WriteJSON writes v as a tab-indented JSON reply: the one reply shape of
// every serving process.
func WriteJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	jsonEncoder(w).Encode(v)
}

// EncodeJSON renders v exactly as WriteJSON sends it, for a reply stored
// now and sent later.
func EncodeJSON(v interface{}) []byte {
	var buf bytes.Buffer
	jsonEncoder(&buf).Encode(v)
	return buf.Bytes()
}

func jsonEncoder(w io.Writer) *json.Encoder {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	return enc
}

// WriteError writes the {"error": ...} reply.
func WriteError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	WriteJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (o *HTTPObs) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	o.metrics.WritePrometheus(w)
}

// DebugRequests is /debug/requests' JSON shape.
type DebugRequests struct {
	// Capacity and Total bound what the ring can say: Total - len(Requests)
	// requests have already been evicted.
	Capacity int             `json:"capacity"`
	Total    uint64          `json:"total"`
	Requests []RequestRecord `json:"requests"`
}

func (o *HTTPObs) serveRequests(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, DebugRequests{
		Capacity: o.recorder.Cap(),
		Total:    o.recorder.Total(),
		Requests: o.recorder.Snapshot(), // never nil: the edge owns its recorder
	})
}

func (o *HTTPObs) serveTrace(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
	if !ValidTraceID(id) {
		WriteError(w, http.StatusBadRequest, "invalid trace id")
		return
	}
	recs := o.recorder.ByTrace(id)
	if len(recs) == 0 {
		WriteError(w, http.StatusNotFound, "trace %s not in the flight recorder (evicted or never seen here)", id)
		return
	}
	WriteJSON(w, http.StatusOK, recs)
}

// statusWriter captures the response status and size.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// middleware wraps next in the observability envelope; endpoint maps a
// request path to its bounded label.
func (o *HTTPObs) middleware(next http.Handler, endpoint func(path string) string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace := r.Header.Get(HeaderTraceID)
		if !ValidTraceID(trace) {
			trace = NewTraceID()
		}
		label := endpoint(r.URL.Path)
		// The span parents under the sender's span when the request came
		// from another cluster process; at the edge the parent is empty
		// and this span is the trace's root.
		parent := SpanContext{Trace: trace}
		if p := r.Header.Get(HeaderSpanID); ValidTraceID(p) {
			parent.Span = p
		}
		sp := o.tracer.StartSpan(label, "request", 0, parent)
		sc := sp.Context()
		if sc.Trace == "" {
			// Tracer disabled: the trace identity still propagates so
			// downstream processes that do trace join the same tree.
			sc = parent
		}
		w.Header().Set(HeaderTraceID, trace)

		t0 := time.Now()
		rec := &RequestRecord{
			Time:     t0.UTC(),
			TraceID:  trace,
			SpanID:   sc.Span,
			Method:   r.Method,
			Path:     r.URL.Path,
			Endpoint: label,
		}
		ctx := ContextWithSpan(r.Context(), sc)
		ctx = ContextWithRecord(ctx, rec)
		sw := &statusWriter{ResponseWriter: w}

		// A handler that aborts its reply (panics with
		// http.ErrAbortHandler) is still finalized; the panic then goes
		// on to net/http, which drops the connection.
		defer func() {
			aborted := recover()
			dur := time.Since(t0)
			if sw.status == 0 {
				// Nothing was written. A live client would have gotten an
				// implicit 200; a handler that bailed because the client
				// (or the request budget) went away wrote nothing and must
				// not be logged as success.
				if r.Context().Err() != nil {
					sw.status = StatusClientClosed
				} else {
					sw.status = http.StatusOK
				}
			}
			rec.Status = sw.status
			rec.Bytes = sw.bytes
			rec.Duration = dur.Seconds()
			sp.EndArgs(map[string]string{"status": strconv.Itoa(sw.status)})
			o.Latency(label).Observe(dur.Seconds())
			o.recorder.Add(*rec)
			if o.accessLog != nil {
				if line, err := json.Marshal(rec); err == nil {
					o.logMu.Lock()
					o.accessLog.Write(append(line, '\n'))
					o.logMu.Unlock()
				}
			}
			if aborted != nil {
				panic(aborted)
			}
		}()
		next.ServeHTTP(sw, r.WithContext(ctx))
	})
}

// PropagateHeaders stamps the trace-context headers on an outbound
// cluster hop from the span carried by ctx. No-op without a trace.
func PropagateHeaders(ctx context.Context, h http.Header) {
	sc := SpanFromContext(ctx)
	if sc.Trace == "" {
		return
	}
	h.Set(HeaderTraceID, sc.Trace)
	if sc.Span != "" {
		h.Set(HeaderSpanID, sc.Span)
	}
}
