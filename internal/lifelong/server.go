package lifelong

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/bytecode"
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/dsa"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/tooling"
	"repro/internal/validate"
)

// Config parameterizes the lifelong compilation daemon.
type Config struct {
	// Store is the persistent module store (required).
	Store *Store
	// Workers bounds concurrently-served requests (0 = GOMAXPROCS).
	Workers int
	// RequestTimeout is the per-request wall-clock budget, enforced by the
	// sandbox's cooperative cancellation for /run and by the worker-slot
	// wait for queued requests (0 = 30s).
	RequestTimeout time.Duration
	// DefaultPipeline is the /compile pipeline spec when the request names
	// none ("" = "std").
	DefaultPipeline string
	// MaxBody caps request size (0 = tooling.MaxInputSize).
	MaxBody int64
	// MaxSteps and MaxHeapBytes bound /run execution (0 = interp defaults).
	MaxSteps     int64
	MaxHeapBytes int64
	// IdleDelay is how long the request queue must stay empty before the
	// idle reoptimizer picks up a module (0 = 1s).
	IdleDelay time.Duration
	// DisableReopt turns the idle-time reoptimizer off.
	DisableReopt bool
	// DisableValidate turns off translation validation of reoptimized
	// artifacts (llvm-serve -no-validate). Validation is on by default:
	// a reoptimized artifact the oracle confirms miscompiled goes to
	// quarantine and the daemon keeps serving the prior-epoch artifact.
	DisableValidate bool
	// Metrics is the registry /metrics exposes and /stats reads (nil = the
	// server creates its own). Request, store, reopt, and interpreter
	// counters all live here, so the two endpoints can never disagree.
	Metrics *obs.Registry
	// Tracer, when set, records request spans, per-pass compile spans, and
	// store cache events (llvm-serve -trace-out).
	Tracer *obs.Tracer
	// AccessLog, when set, receives one JSON line per request with the
	// request's trace id (also returned in the X-Trace-Id header), method,
	// path, status, and latency.
	AccessLog io.Writer
	// Recorder is the flight recorder /debug/requests serves (nil = the
	// server creates its own at obs.DefaultRecorderCap — the recorder is
	// always on; its cost is one small struct copy per request).
	Recorder *obs.Recorder
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (llvm-serve
	// -pprof). Off by default: the profiling surface can stall the process
	// and belongs behind an operator's explicit flag.
	EnablePprof bool
	// RemoteFetch, when set, is consulted on a local artifact miss before
	// compiling: the cluster layer's fetch-through to the peer owning the
	// module's hash range. A remote miss (or a down owner) degrades to a
	// local compile — fail-open.
	RemoteFetch RemoteFetch
	// ProfileSink, when set, is offered each run's profile counts before
	// the local store merge. Returning handled=true means the counts were
	// routed to their cluster owner (whose epoch and advancement the /run
	// response then reports); handled=false falls back to the local merge,
	// so a down owner degrades to local accumulation instead of dropping
	// end-user evidence.
	// ctx carries the request's trace context for header propagation and
	// its flight-recorder record for hop annotation.
	ProfileSink func(ctx context.Context, modHash string, c *profile.Counts) (epoch int64, advanced bool, handled bool)
	// ExtraHandlers adds endpoints to Handler()'s mux — the cluster
	// layer's /cluster/* surface. They run under the observability
	// middleware (trace ids, latency histogram, access log) but not the
	// worker pool: peer health probes must answer even when every worker
	// slot is busy.
	ExtraHandlers map[string]http.Handler
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if out.RequestTimeout <= 0 {
		out.RequestTimeout = 30 * time.Second
	}
	if out.DefaultPipeline == "" {
		out.DefaultPipeline = "std"
	}
	if out.MaxBody <= 0 {
		out.MaxBody = tooling.MaxInputSize
	}
	if out.MaxSteps <= 0 {
		out.MaxSteps = interp.DefaultMaxSteps
	}
	if out.MaxHeapBytes <= 0 {
		out.MaxHeapBytes = interp.DefaultMaxHeapBytes
	}
	if out.IdleDelay <= 0 {
		out.IdleDelay = time.Second
	}
	return out
}

// Server is the lifelong compilation daemon: /compile serves optimized
// bytecode from the store (compiling on miss), /run executes modules in
// the sandbox and folds their profiles back into the store, /check runs
// the static memory-safety checker, and /stats reports cache and
// reoptimizer activity. A bounded worker pool backs all serving paths,
// and an idle-time goroutine reoptimizes the hottest profiled modules
// whenever the request queue goes quiet.
type Server struct {
	cfg     Config
	store   *Store
	sem     chan struct{}
	metrics *obs.Registry
	// progs keeps hot modules resident with their shared translation
	// caches, so repeated /run requests never retranslate a function.
	progs *progCache

	inflight     atomic.Int64
	lastActivity atomic.Int64 // UnixNano of the last request start/finish
	start        time.Time

	// recorder is the always-on flight recorder; httpObs is the shared
	// observability middleware wrapping Handler()'s mux.
	recorder *obs.Recorder
	httpObs  *obs.HTTPObs

	// Request and reopt counters live in the metrics registry; /stats reads
	// them back from there (see handleStats) so the JSON and Prometheus
	// views are two renderings of one set of counters.
	cCompile, cRun, cCheck, cRejected *obs.Counter
	// cKnownCompile and cKnownRun count the requests served by content
	// address: bodies the store already held, never parsed.
	cKnownCompile, cKnownRun  *obs.Counter
	cReoptBuilt, cReoptErrors *obs.Counter
	// Validation counters share the llvm_validate_* names the pass
	// manager uses, labeled pass="reoptimize", plus the quarantine total.
	cValidateRuns, cValidateMiscompiles, cValidateInconclusive *obs.Counter
	cQuarantined                                               *obs.Counter
	// Alias-summary persistence counters: reuse counts /check requests
	// served from a stored summary blob, computed counts fresh analyses
	// (which are then persisted for the next request).
	cAliasReuse, cAliasComputed *obs.Counter
	// flight deduplicates concurrent identical /compile requests; cDedup
	// counts the followers that shared another request's pipeline run.
	flight flightGroup
	cDedup *obs.Counter

	// oracle checks reoptimized artifacts (nil when DisableValidate).
	oracle *validate.Oracle

	reoptMu    sync.Mutex
	reoptLast  string
	reoptEpoch int64

	stop chan struct{}
	done chan struct{}
}

// NewServer builds a daemon over st and starts its idle reoptimizer
// (unless disabled). Callers must Close it.
func NewServer(cfg Config) *Server {
	s := &Server{
		cfg:   cfg.withDefaults(),
		store: cfg.Store,
		start: time.Now(),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	s.metrics = s.cfg.Metrics
	if s.metrics == nil {
		s.metrics = obs.NewRegistry()
	}
	s.cCompile = s.metrics.Counter("llvm_serve_requests_total", "endpoint", "compile")
	s.cRun = s.metrics.Counter("llvm_serve_requests_total", "endpoint", "run")
	s.cCheck = s.metrics.Counter("llvm_serve_requests_total", "endpoint", "check")
	s.cRejected = s.metrics.Counter("llvm_serve_rejected_total")
	s.cKnownCompile = s.metrics.Counter("llvm_serve_known_bytes_total", "endpoint", "compile")
	s.cKnownRun = s.metrics.Counter("llvm_serve_known_bytes_total", "endpoint", "run")
	s.cReoptBuilt = s.metrics.Counter("llvm_reopt_builds_total")
	s.cReoptErrors = s.metrics.Counter("llvm_reopt_errors_total")
	s.cValidateRuns = s.metrics.Counter("llvm_validate_runs_total", "pass", "reoptimize")
	s.cValidateMiscompiles = s.metrics.Counter("llvm_validate_confirmed_miscompiles_total", "pass", "reoptimize")
	s.cValidateInconclusive = s.metrics.Counter("llvm_validate_inconclusive_total", "pass", "reoptimize")
	s.cQuarantined = s.metrics.Counter("llvm_reopt_quarantined_total")
	s.cAliasReuse = s.metrics.Counter("llvm_alias_summary_reuse_total")
	s.cAliasComputed = s.metrics.Counter("llvm_alias_summary_computed_total")
	s.cDedup = s.metrics.Counter("llvm_serve_singleflight_shared_total")
	for _, b := range []struct {
		result string
		get    func(dsa.QueryStats) int64
	}{
		{"no", func(st dsa.QueryStats) int64 { return st.No }},
		{"may", func(st dsa.QueryStats) int64 { return st.May }},
		{"must", func(st dsa.QueryStats) int64 { return st.Must }},
	} {
		b := b
		s.metrics.CounterFunc("llvm_alias_queries_total", func() float64 {
			return float64(b.get(dsa.Stats()))
		}, "result", b.result)
	}
	if !s.cfg.DisableValidate {
		s.oracle = validate.Default()
	}
	s.progs = newProgCache(defaultProgCacheSize)
	for _, b := range []struct {
		name, tier string
		get        func(interp.ProgramStats) int64
	}{
		{"llvm_interp_translation_compiles_total", "1", func(st interp.ProgramStats) int64 { return st.T1Compiles }},
		{"llvm_interp_translation_compiles_total", "2", func(st interp.ProgramStats) int64 { return st.T2Compiles }},
		{"llvm_interp_translation_reuses_total", "1", func(st interp.ProgramStats) int64 { return st.T1Reused }},
		{"llvm_interp_translation_reuses_total", "2", func(st interp.ProgramStats) int64 { return st.T2Reused }},
	} {
		b := b
		s.metrics.CounterFunc(b.name, func() float64 {
			st, _ := s.progs.stats()
			return float64(b.get(st))
		}, "tier", b.tier)
	}
	s.metrics.GaugeFunc("llvm_serve_resident_programs", func() float64 {
		_, n := s.progs.stats()
		return float64(n)
	})
	s.metrics.GaugeFunc("llvm_serve_inflight", func() float64 { return float64(s.inflight.Load()) })
	s.metrics.GaugeFunc("llvm_serve_uptime_seconds", func() float64 { return time.Since(s.start).Seconds() })
	s.store.RegisterMetrics(s.metrics)
	if s.cfg.Tracer != nil {
		s.store.Tracer = s.cfg.Tracer
	}
	s.recorder = s.cfg.Recorder
	if s.recorder == nil {
		s.recorder = obs.NewRecorder(0)
	}
	s.httpObs = &obs.HTTPObs{
		Tracer:    s.cfg.Tracer,
		Recorder:  s.recorder,
		AccessLog: s.cfg.AccessLog,
		Endpoint:  endpointLabel,
		Latency: func(endpoint string) *obs.Histogram {
			return s.metrics.Histogram("llvm_serve_request_seconds",
				obs.ServeLatencyBuckets, "endpoint", endpoint)
		},
	}
	s.sem = make(chan struct{}, s.cfg.Workers)
	s.lastActivity.Store(time.Now().UnixNano())
	if s.cfg.DisableReopt {
		close(s.done)
	} else {
		go s.idleLoop()
	}
	return s
}

// Metrics returns the server's registry (for tests and embedding callers).
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Close stops the idle reoptimizer and waits for it to exit.
func (s *Server) Close() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
}

// Handler returns the daemon's HTTP mux. Every request is wrapped in the
// shared observability middleware (obs.HTTPObs): a trace id — adopted
// from a valid X-Trace-Id header or minted here, echoed back in the
// response header and the access log — a request span parented under the
// sender's X-Span-Id, a flight-recorder entry, and a per-endpoint latency
// histogram.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/compile", s.withWorker(s.handleCompile))
	mux.HandleFunc("/run", s.withWorker(s.handleRun))
	mux.HandleFunc("/check", s.withWorker(s.handleCheck))
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	s.addDebugHandlers(mux)
	for path, h := range s.cfg.ExtraHandlers {
		mux.Handle(path, h)
	}
	return s.httpObs.Middleware(mux)
}

// accessRecord is one structured access-log line — the flight recorder's
// request record rendered as JSON; one schema for both surfaces.
type accessRecord = obs.RequestRecord

// endpointLabel maps a request path to the llvm_serve_request_seconds
// endpoint label. Unknown paths collapse to "other": the label set is the
// registry's series key, so labeling raw paths would let any client mint
// a new histogram series per 404 and grow /metrics without bound. The
// /debug tree collapses to one label for the same reason (trace IDs in
// /debug/trace/<id> paths are client-chosen).
func endpointLabel(path string) string {
	switch path {
	case "/compile", "/run", "/check", "/stats", "/metrics",
		"/cluster/artifact", "/cluster/profile", "/cluster/health", "/cluster/peers":
		return path
	}
	if strings.HasPrefix(path, "/debug/") {
		return "/debug"
	}
	return "other"
}

// handleMetrics serves the registry in the Prometheus text exposition
// format: pass, analysis-cache, interpreter, store, reopt, and request
// series in one scrape.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w)
}

// withWorker funnels a handler through the bounded pool: the request
// waits for a slot for up to its whole RequestTimeout and is rejected with
// 503 only when that budget elapses first. Under overload requests
// therefore queue for the full budget before being refused; nothing sheds
// them early.
func (s *Server) withWorker(h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST a module (bytecode or assembly) to this endpoint")
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			s.cRejected.Inc()
			// The middleware already stamped X-Trace-Id on the response and
			// will log this 503 with its status; the record keeps the why.
			obs.RecordFromContext(r.Context()).SetError("saturated: no worker slot within the request budget")
			httpError(w, http.StatusServiceUnavailable, "server saturated: no worker slot within the request budget")
			return
		}
		defer func() { <-s.sem }()
		s.inflight.Add(1)
		s.lastActivity.Store(time.Now().UnixNano())
		defer func() {
			s.inflight.Add(-1)
			s.lastActivity.Store(time.Now().UnixNano())
		}()
		h(w, r.WithContext(ctx))
	}
}

// readBody reads the request body, transparently decoding gzipped bodies
// (Content-Encoding: gzip); the size cap applies to the decoded bytes.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := ReadBody(r, s.cfg.MaxBody)
	if err != nil {
		obs.RecordFromContext(r.Context()).SetError(err.Error())
		if errors.Is(err, ErrBodyTooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge, "module exceeds the %d-byte limit", s.cfg.MaxBody)
		} else {
			httpError(w, http.StatusBadRequest, "%v", err)
		}
		return nil, false
	}
	return body, true
}

// intern parses body (bytecode or assembly), verifies the module and
// stores it at its content address, replying 422 when body is not a valid
// module. Verifying before PutModule is what keeps every module blob in
// the store the canonical encoding of a verified module.
func (s *Server) intern(w http.ResponseWriter, body []byte) (m *core.Module, hash string, canonical []byte, ok bool) {
	m, err := tooling.LoadModuleBytes("request", body)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "parsing module: %v", err)
		return nil, "", nil, false
	}
	if err := core.Verify(m); err != nil {
		httpError(w, http.StatusUnprocessableEntity, "module invalid: %v", err)
		return nil, "", nil, false
	}
	if hash, canonical, err = s.store.PutModule(m); err != nil {
		httpError(w, http.StatusInternalServerError, "storing module: %v", err)
		return nil, "", nil, false
	}
	return m, hash, canonical, true
}

// compileResponse is /compile's JSON shape (raw=1 returns the bytecode
// bytes directly, with the metadata in X- headers).
type compileResponse struct {
	CompileResult
	BytecodeB64 string `json:"bytecode_b64"`
	Size        int    `json:"size"`
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.cCompile.Inc()
	rec := obs.RecordFromContext(r.Context())
	sc := obs.SpanFromContext(r.Context())
	// /compile responses (raw bytecode or base64 JSON) compress well;
	// honor Accept-Encoding before any body bytes are written.
	w, finish := Compress(w, r)
	defer finish()
	tRead := time.Now()
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	// Content address first: bytes the store already holds are the
	// canonical encoding of a module verified when it was interned, so they
	// skip parse, verify and encode. Anything else is interned here, once.
	hash, canonical := bytecode.HashBytes(body), body
	if s.store.TouchModule(hash) {
		s.cKnownCompile.Inc()
	} else if _, hash, canonical, ok = s.intern(w, body); !ok {
		return
	}
	rec.AddPhase("read-parse", time.Since(tRead))
	spec := r.URL.Query().Get("pipeline")
	if spec == "" {
		spec = s.cfg.DefaultPipeline
	}
	// Single-flight: concurrent identical requests — same module content,
	// same pipeline, same profile epoch — share one pipeline run. The key
	// includes the epoch so a request racing an epoch advance never shares
	// a stale-epoch result.
	var epoch int64
	if f, ok := s.store.GetProfile(hash); ok {
		epoch = f.Epoch
	}
	key := fmt.Sprintf("%s\x1f%s\x1f%d", hash, spec, epoch)
	tCompile := time.Now()
	res, leaderTrace, shared, err := s.flight.Do(key, sc.Trace, func() (*CompileResult, error) {
		return compileCanonical(s.store, hash, canonical, spec, CompileOpts{
			Ctx:     r.Context(),
			Parent:  sc,
			Tracer:  s.cfg.Tracer,
			Metrics: s.metrics,
			Remote:  s.cfg.RemoteFetch,
		})
	})
	rec.AddPhase("compile", time.Since(tCompile))
	if shared {
		// This request joined another request's in-flight pipeline run.
		// Attribute the shared work: the follower's log line and recorder
		// entry name the leader's trace, and the response says so too.
		s.cDedup.Inc()
		rec.SetDedup("follower", leaderTrace)
		w.Header().Set("X-Dedup", "follower")
		if leaderTrace != "" {
			w.Header().Set("X-Dedup-Joined", leaderTrace)
		}
	}
	if err != nil {
		rec.SetError(err.Error())
		httpError(w, http.StatusInternalServerError, "compile: %v", err)
		return
	}
	rec.SetCache(res.CacheWord())
	if r.URL.Query().Get("raw") == "1" {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Module-Hash", res.ModuleHash)
		w.Header().Set("X-Cache", res.CacheWord())
		w.Header().Set("X-Artifact-Epoch", fmt.Sprint(res.ArtifactEpoch))
		w.Header().Set("X-Profile-Epoch", fmt.Sprint(res.ProfileEpoch))
		w.Header().Set("X-Reoptimized", fmt.Sprint(res.Reoptimized))
		w.Write(res.Data)
		return
	}
	writeJSON(w, http.StatusOK, compileResponse{
		CompileResult: *res,
		BytecodeB64:   base64.StdEncoding.EncodeToString(res.Data),
		Size:          len(res.Data),
	})
}

// runResponse is /run's JSON shape.
type runResponse struct {
	ModuleHash string `json:"module_hash"`
	ExitCode   int64  `json:"exit_code"`
	Output     string `json:"output"`
	Steps      int64  `json:"steps"`
	Trap       string `json:"trap,omitempty"`
	// Profiled reports the run's counts were merged into the store;
	// ProfileEpoch is the accumulated epoch afterwards, and EpochAdvanced
	// that this run crossed the materiality threshold.
	Profiled      bool  `json:"profiled"`
	ProfileEpoch  int64 `json:"profile_epoch"`
	EpochAdvanced bool  `json:"epoch_advanced"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.cRun.Inc()
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	profiled := r.URL.Query().Get("profile") != "0"

	// Run the resident module object so the shared translation cache
	// applies. Bytes that hash to a resident module whose blob the store
	// still holds are that module's canonical encoding: no parse needed.
	hash := bytecode.HashBytes(body)
	mod, prog, resident := s.progs.lookup(hash)
	if resident && s.store.TouchModule(hash) {
		s.cKnownRun.Inc()
	} else {
		// Intern the module first: the profile is keyed by its hash, and
		// the idle reoptimizer needs the canonical bytes to rebuild from.
		var m *core.Module
		if m, hash, _, ok = s.intern(w, body); !ok {
			return
		}
		// The freshly parsed copy is only used on first sight.
		mod, prog, _ = s.progs.fetch(hash, m)
	}
	var out bytes.Buffer
	mc, err := interp.NewMachine(mod, &out)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "preparing machine: %v", err)
		return
	}
	mc.MaxSteps = s.cfg.MaxSteps
	mc.MaxHeapBytes = s.cfg.MaxHeapBytes
	mc.Metrics = s.metrics
	mc.SetTier(interp.TierAuto)
	if err := mc.AttachProgram(prog); err != nil {
		httpError(w, http.StatusInternalServerError, "attaching program: %v", err)
		return
	}
	if profiled {
		// The engine counts blocks itself — no instrumentation probes, so
		// the resident module is never mutated and stays shareable.
		mc.EnableProfile()
	}
	// Lifelong seeding: the store's accumulated cross-run profile marks
	// warm functions hot at start, skipping the baseline tier.
	if pf, ok := s.store.GetProfile(hash); ok {
		mc.SeedProfile(pf.Counts.Funcs)
	}

	rec := obs.RecordFromContext(r.Context())
	resp := runResponse{ModuleHash: hash}
	tRun := time.Now()
	code, runErr := mc.RunMainContext(r.Context())
	rec.AddPhase("execute", time.Since(tRun))
	resp.Steps = mc.Steps
	resp.Output = out.String()
	var ee *interp.ExitError
	switch {
	case runErr == nil:
		resp.ExitCode = code
	case errors.As(runErr, &ee):
		resp.ExitCode = ee.Code
		runErr = nil
	default:
		resp.Trap = runErr.Error()
		rec.SetError(runErr.Error())
	}

	// A trapped or cancelled run still profiled the blocks it executed;
	// partial profiles are real end-user evidence, so merge them too. In
	// cluster mode the sink routes counts to the peer owning this hash
	// range, so epoch advancement sees cluster-wide heat; a down owner
	// falls back to the local merge.
	if profiled {
		if c := profile.CountsFromBlocks(mc.BlockCounts()); c.Total > 0 {
			handled := false
			if s.cfg.ProfileSink != nil {
				if epoch, advanced, ok := s.cfg.ProfileSink(r.Context(), hash, c); ok {
					resp.Profiled = true
					resp.ProfileEpoch = epoch
					resp.EpochAdvanced = advanced
					handled = true
				}
			}
			if !handled {
				f, bumped, err := s.store.MergeProfile(hash, c)
				if err == nil {
					resp.Profiled = true
					resp.ProfileEpoch = f.Epoch
					resp.EpochAdvanced = bumped
				}
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// checkResponse is /check's JSON shape.
type checkResponse struct {
	ModuleHash  string            `json:"module_hash"`
	Diagnostics []diag.Diagnostic `json:"diagnostics"`
	Errors      int               `json:"errors"`
	// SummariesReused reports the points-to / mod-ref summaries came from
	// the store's persisted blob instead of a fresh bottom-up analysis.
	SummariesReused bool `json:"summaries_reused"`
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	s.cCheck.Inc()
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	m, hash, _, ok := s.intern(w, body)
	if !ok {
		return
	}
	// Lifelong summaries: reuse the persisted points-to result for this
	// content address when one exists, and seed it into the checker's
	// analysis cache so the run never recomputes it.
	pt, reused := SummariesFor(s.store, hash, m)
	if reused {
		s.cAliasReuse.Inc()
	} else {
		s.cAliasComputed.Inc()
	}
	am := analysis.NewManager()
	am.ModuleExt(dsa.Key, m, func(*core.Module) interface{} { return pt })
	ck := checker.New()
	ck.AM = am
	rep, err := ck.Check(m)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "check: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, checkResponse{
		ModuleHash:      hash,
		Diagnostics:     rep.Diags,
		Errors:          diag.CountErrors(rep.Diags),
		SummariesReused: reused,
	})
}

// statsResponse is /stats's JSON shape.
type statsResponse struct {
	UptimeSeconds float64    `json:"uptime_seconds"`
	Store         StoreStats `json:"store"`
	Requests      struct {
		Compile  uint64 `json:"compile"`
		Run      uint64 `json:"run"`
		Check    uint64 `json:"check"`
		Rejected uint64 `json:"rejected"`
		Active   int64  `json:"active"`
		// Deduped counts /compile requests that shared another request's
		// in-flight pipeline run (single-flight by hash/spec/epoch).
		Deduped uint64 `json:"deduped"`
		// KnownBytes counts requests served by content address: the body
		// was the canonical bytes of a module the store held, so it was
		// never parsed (llvm_serve_known_bytes_total).
		KnownBytes struct {
			Compile uint64 `json:"compile"`
			Run     uint64 `json:"run"`
		} `json:"known_bytes"`
	} `json:"requests"`
	Reopt struct {
		Enabled        bool   `json:"enabled"`
		ArtifactsBuilt uint64 `json:"artifacts_built"`
		Errors         uint64 `json:"errors"`
		LastModule     string `json:"last_module,omitempty"`
		LastEpoch      int64  `json:"last_epoch,omitempty"`
	} `json:"reopt"`
	Validate struct {
		Enabled      bool   `json:"enabled"`
		Runs         uint64 `json:"runs"`
		Miscompiles  uint64 `json:"confirmed_miscompiles"`
		Inconclusive uint64 `json:"inconclusive"`
		Quarantined  uint64 `json:"quarantined"`
	} `json:"validate"`
	Engine struct {
		ResidentPrograms int   `json:"resident_programs"`
		T1Compiles       int64 `json:"t1_compiles"`
		T1Reused         int64 `json:"t1_reused"`
		T2Compiles       int64 `json:"t2_compiles"`
		T2Reused         int64 `json:"t2_reused"`
	} `json:"engine"`
	Alias struct {
		SummariesReused   uint64 `json:"summaries_reused"`
		SummariesComputed uint64 `json:"summaries_computed"`
		QueriesNo         int64  `json:"queries_no"`
		QueriesMay        int64  `json:"queries_may"`
		QueriesMust       int64  `json:"queries_must"`
	} `json:"alias"`
	// Latency summarizes the per-endpoint request-duration histograms.
	// The quantiles are computed (obs.QuantileFromBuckets) from exactly
	// the cumulative buckets a /metrics scrape renders for
	// llvm_serve_request_seconds, so the two endpoints cannot disagree —
	// a test pins this by recomputing from the scraped text.
	Latency map[string]LatencySummary `json:"latency,omitempty"`
}

// LatencySummary is /stats' quantile view of one endpoint's
// request-duration histogram.
type LatencySummary struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_seconds"`
	P95   float64 `json:"p95_seconds"`
	P99   float64 `json:"p99_seconds"`
}

// handleStats renders the JSON view of the same counters /metrics scrapes:
// request and reopt totals are read back from the registry's series, and
// the store block from the same atomics the llvm_store_* bridges poll, so
// the two endpoints cannot drift apart.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var resp statsResponse
	resp.UptimeSeconds = time.Since(s.start).Seconds()
	resp.Store = s.store.Stats()
	resp.Requests.Compile = uint64(s.cCompile.Value())
	resp.Requests.Run = uint64(s.cRun.Value())
	resp.Requests.Check = uint64(s.cCheck.Value())
	resp.Requests.Rejected = uint64(s.cRejected.Value())
	resp.Requests.Active = s.inflight.Load()
	resp.Requests.Deduped = uint64(s.cDedup.Value())
	resp.Requests.KnownBytes.Compile = uint64(s.cKnownCompile.Value())
	resp.Requests.KnownBytes.Run = uint64(s.cKnownRun.Value())
	resp.Reopt.Enabled = !s.cfg.DisableReopt
	resp.Reopt.ArtifactsBuilt = uint64(s.cReoptBuilt.Value())
	resp.Reopt.Errors = uint64(s.cReoptErrors.Value())
	resp.Validate.Enabled = s.oracle != nil
	resp.Validate.Runs = uint64(s.cValidateRuns.Value())
	resp.Validate.Miscompiles = uint64(s.cValidateMiscompiles.Value())
	resp.Validate.Inconclusive = uint64(s.cValidateInconclusive.Value())
	resp.Validate.Quarantined = uint64(s.cQuarantined.Value())
	est, n := s.progs.stats()
	resp.Engine.ResidentPrograms = n
	resp.Engine.T1Compiles = est.T1Compiles
	resp.Engine.T1Reused = est.T1Reused
	resp.Engine.T2Compiles = est.T2Compiles
	resp.Engine.T2Reused = est.T2Reused
	resp.Alias.SummariesReused = uint64(s.cAliasReuse.Value())
	resp.Alias.SummariesComputed = uint64(s.cAliasComputed.Value())
	qs := dsa.Stats()
	resp.Alias.QueriesNo = qs.No
	resp.Alias.QueriesMay = qs.May
	resp.Alias.QueriesMust = qs.Must
	resp.Latency = map[string]LatencySummary{}
	for _, ep := range []string{"/compile", "/run", "/check", "/stats", "/metrics", "other"} {
		h := s.httpObs.Latency(ep)
		if h.Count() == 0 {
			continue
		}
		resp.Latency[ep] = LatencySummary{
			Count: h.Count(),
			P50:   h.Quantile(0.50),
			P95:   h.Quantile(0.95),
			P99:   h.Quantile(0.99),
		}
	}
	s.reoptMu.Lock()
	resp.Reopt.LastModule = s.reoptLast
	resp.Reopt.LastEpoch = s.reoptEpoch
	s.reoptMu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// idleLoop is the idle-time reoptimizer (§3.6): whenever the request
// queue has been empty for IdleDelay, it rebuilds the hottest profiled
// module whose current-epoch artifact is missing — one module per tick,
// so an arriving request never waits behind a long reoptimization batch.
func (s *Server) idleLoop() {
	defer close(s.done)
	ticker := time.NewTicker(s.cfg.IdleDelay)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		}
		if s.inflight.Load() != 0 {
			continue
		}
		idleFor := time.Since(time.Unix(0, s.lastActivity.Load()))
		if idleFor < s.cfg.IdleDelay {
			continue
		}
		target := nextReoptTarget(s.store, s.cfg.DefaultPipeline)
		if target == "" {
			continue
		}
		sp := s.cfg.Tracer.Begin("reoptimize", "reopt", 0)
		res, err := ReoptimizeStoredWith(s.store, target, s.cfg.DefaultPipeline, s.oracle)
		if err != nil {
			s.cReoptErrors.Inc()
		} else if res != nil {
			s.recordReopt(res)
		}
		if s.cfg.Tracer != nil {
			args := map[string]string{"module": shortHash(target)}
			if err != nil {
				args["error"] = err.Error()
			}
			sp.EndArgs(args)
		}
	}
}

// recordReopt folds one reoptimization's outcome into the daemon's
// counters: build vs quarantine, plus the oracle's verdict tallies.
func (s *Server) recordReopt(res *ReoptResult) {
	if v := res.Verdict; v != nil {
		s.cValidateRuns.Inc()
		switch v.Verdict {
		case validate.Miscompile:
			s.cValidateMiscompiles.Inc()
		case validate.Inconclusive:
			s.cValidateInconclusive.Inc()
		}
	}
	if res.Quarantined {
		s.cQuarantined.Inc()
		return
	}
	s.cReoptBuilt.Inc()
	s.reoptMu.Lock()
	s.reoptLast = res.ModHash
	s.reoptEpoch = res.Epoch
	s.reoptMu.Unlock()
}

// ReoptimizeAll drains the reopt queue synchronously: every profiled
// module is brought up to its current epoch (or quarantined when the
// oracle condemns the rebuild). Used by tests and by llvm-serve's
// -reopt-now flag; the daemon path is idleLoop.
func (s *Server) ReoptimizeAll() (built int, err error) {
	for {
		target := nextReoptTarget(s.store, s.cfg.DefaultPipeline)
		if target == "" {
			return built, nil
		}
		res, rerr := ReoptimizeStoredWith(s.store, target, s.cfg.DefaultPipeline, s.oracle)
		if rerr != nil {
			return built, rerr
		}
		if res == nil {
			return built, nil
		}
		s.recordReopt(res)
		if !res.Quarantined {
			built++
		}
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "\t")
	enc.Encode(v)
}

func cacheWord(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}
