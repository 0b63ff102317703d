package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/lifelong"
	"repro/internal/obs"
	"repro/internal/tooling"
)

// FrontConfig parameterizes the thin front-end.
type FrontConfig struct {
	// Peers is the cluster membership the front routes over (identical to
	// the nodes' lists).
	Peers []string
	// VNodes must match the nodes' ring configuration (0 = DefaultVNodes).
	VNodes int
	// ProbeInterval is the health-probe period (0 = 2s).
	ProbeInterval time.Duration
	// PeerTimeout bounds each forwarded request (0 = 30s — forwarded
	// compiles do real pass work at the peer).
	PeerTimeout time.Duration
	// MaxBody caps request size (0 = tooling.MaxInputSize).
	MaxBody int64
	// Metrics is the front's registry (nil = a fresh one).
	Metrics *obs.Registry
	// Tracer, when set, records the front's request and routing spans. The
	// front is the cluster's edge: requests arriving without an X-Trace-Id
	// are assigned one here, and every forwarded hop carries it plus the
	// front's span as X-Span-Id, so the peer's spans parent under it.
	Tracer *obs.Tracer
	// AccessLog, when set, receives one JSON line per request (same schema
	// as the nodes' access logs).
	AccessLog io.Writer
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
}

// Front is the cluster front-end: it owns no store and runs no passes.
// Each /compile, /run, or /check request is addressed by the digest of its
// module's canonical bytecode, routed to the peer owning that hash range,
// and retried down the ring's successor order on failure — so one front
// address gives clients the whole cluster, and a dead peer costs a retry,
// not an error. Its only state is the set of digests of verified modules'
// canonical bytes it has seen, which spares known bytes the parse (see
// lifelong.Resolve). A body that is no valid module is refused here.
type Front struct {
	cfg     FrontConfig
	ring    *Ring
	health  *Health
	view    *clusterView
	metrics *obs.Registry
	client  *http.Client
	edge    *obs.HTTPObs
	known   knownSet

	cRequests map[string]*obs.Counter // by endpoint
	// cKnown counts, by endpoint, the requests routed by the body's own
	// digest: bytes the front already knew to be canonical, never parsed.
	cKnown   map[string]*obs.Counter
	cRetries *obs.Counter
	cFailed  *obs.Counter
	// Per-peer outcome counters, labels bounded by the configured list.
	peerOK, peerErr map[string]*obs.Counter
}

// NewFront builds a front over the peer list and starts its health
// prober (callers must Close it).
func NewFront(cfg FrontConfig) (*Front, error) {
	ring, err := NewRing(cfg.Peers, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = 30 * time.Second
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = tooling.MaxInputSize
	}
	// The transport to the peers must not ask for gzip on its own: it would
	// then gunzip every reply, and the front would have to gzip it again.
	// The front forwards the client's Accept-Encoding instead, so a peer's
	// reply is already in an encoding the client takes and passes through
	// as it came.
	relay := http.DefaultTransport.(*http.Transport).Clone()
	relay.DisableCompression = true
	f := &Front{
		cfg:     cfg,
		ring:    ring,
		client:  &http.Client{Timeout: cfg.PeerTimeout, Transport: relay},
		metrics: cfg.Metrics,
	}
	if f.metrics == nil {
		f.metrics = obs.NewRegistry()
	}
	f.cRequests = map[string]*obs.Counter{}
	f.cKnown = map[string]*obs.Counter{}
	for _, ep := range []string{"compile", "run", "check"} {
		f.cRequests[ep] = f.metrics.Counter("llvm_front_requests_total", "endpoint", ep)
		f.cKnown[ep] = f.metrics.Counter("llvm_front_known_bytes_total", "endpoint", ep)
	}
	f.cRetries = f.metrics.Counter("llvm_front_retries_total")
	f.cFailed = f.metrics.Counter("llvm_front_failed_total")
	f.edge = obs.NewHTTPObs(f.metrics, "llvm_front_request_seconds", cfg.Tracer, cfg.AccessLog, cfg.EnablePprof)
	f.peerOK = map[string]*obs.Counter{}
	f.peerErr = map[string]*obs.Counter{}
	probeClient := &http.Client{Timeout: cfg.ProbeInterval}
	f.health = newHealth(ring.Peers(), "", cfg.ProbeInterval, httpProbe(probeClient))
	f.view = newClusterView("front", "front", ring, f.health, f.metrics)
	for _, p := range ring.Peers() {
		f.peerOK[p] = f.metrics.Counter("llvm_front_peer_requests_total", "peer", p, "result", "ok")
		f.peerErr[p] = f.metrics.Counter("llvm_front_peer_requests_total", "peer", p, "result", "error")
	}
	return f, nil
}

// Ring exposes the front's placement ring (tests, llvm-bench).
func (f *Front) Ring() *Ring { return f.ring }

// Metrics returns the front's registry.
func (f *Front) Metrics() *obs.Registry { return f.metrics }

// Close stops the health prober.
func (f *Front) Close() { f.health.Close() }

// Handler returns the front's HTTP surface behind the same edge the nodes
// use. The front is where trace IDs are minted for requests entering
// through it.
func (f *Front) Handler() http.Handler {
	return f.edge.Handler(map[string]http.Handler{
		"/compile":        f.route("compile"),
		"/run":            f.route("run"),
		"/check":          f.route("check"),
		"/cluster/health": http.HandlerFunc(f.view.handleHealth),
		"/cluster/peers":  http.HandlerFunc(f.view.handlePeers),
	})
}

// route builds the handler for one proxied endpoint: resolve the module
// to its content address (lifelong.Admit, with the known set as known),
// pick the owner, forward the canonical bytes with retry-next-peer.
func (f *Front) route(endpoint string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		a, ok := lifelong.Admit(w, r, f.cfg.MaxBody, f.cRequests[endpoint], f.cKnown[endpoint], f.known.has, f.known.learn)
		if !ok {
			return
		}

		// Owner first, then ring successors. Pass 0 tries peers believed
		// alive; pass 1 fails open through the rest — a fully-down health
		// view must not turn into a refused request if a peer is actually
		// reachable.
		order := f.ring.Ordered(a.Hash)
		tried := map[string]bool{}
		attempts := 0
		for pass := 0; pass < 2; pass++ {
			for _, peer := range order {
				if tried[peer] || (pass == 0 && !f.health.Up(peer)) {
					continue
				}
				tried[peer] = true
				if attempts > 0 {
					f.cRetries.Inc()
				}
				attempts++
				if f.forward(w, r, peer, endpoint, a.Canonical) {
					return
				}
			}
		}
		f.cFailed.Inc()
		obs.RecordFromContext(r.Context()).SetError("no cluster peer could serve the request")
		obs.WriteError(w, http.StatusBadGateway, "no cluster peer could serve the request (%d tried)", attempts)
	}
}

// forward sends the canonical module bytes to one peer and, on success,
// passes the peer's reply through to the client. Returns false when the
// next peer should be tried (transport error or 5xx); 4xx responses are
// the client's problem and are relayed as-is. A reply that cannot be
// relayed whole aborts the request (http.ErrAbortHandler).
func (f *Front) forward(w http.ResponseWriter, r *http.Request, peer, endpoint string, body []byte) bool {
	u := "http://" + peer + "/" + endpoint
	if q := r.URL.RawQuery; q != "" {
		u += "?" + q
	}
	rec := obs.RecordFromContext(r.Context())
	t0 := time.Now()
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if ae := r.Header.Get("Accept-Encoding"); ae != "" {
		req.Header.Set("Accept-Encoding", ae)
	}
	// Trace context crosses the hop: the peer adopts this trace ID and
	// parents its request span under the front's span.
	obs.PropagateHeaders(r.Context(), req.Header)
	resp, err := f.client.Do(req)
	if err != nil {
		f.peerErr[peer].Inc()
		f.health.MarkDown(peer)
		rec.AddHop(peer, "route", "down", time.Since(t0))
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		f.peerErr[peer].Inc()
		f.health.MarkDown(peer)
		rec.AddHop(peer, "route", "error", time.Since(t0))
		return false
	}
	f.health.MarkUp(peer)
	rec.AddHop(peer, "route", "ok", time.Since(t0))
	rec.SetPeer(peer)
	if cache := resp.Header.Get("X-Cache"); cache != "" {
		rec.SetCache(cache)
	}
	// The peer encoded its reply for this client's Accept-Encoding, so the
	// body and its Content-Encoding pass through untouched. Identifying
	// headers pass too, and the serving peer is named (it came from
	// config, never request data).
	for name, vals := range resp.Header {
		if strings.HasPrefix(name, "X-") || name == "Content-Type" || name == "Content-Encoding" {
			w.Header()[name] = vals
		}
	}
	w.Header().Set("X-Cluster-Peer", peer)
	w.WriteHeader(resp.StatusCode)
	// The status is out, so a reply the relay cannot finish (the peer's
	// stream breaks, or the reply reaches the cap and is cut) can only be
	// aborted: ending it cleanly would pass a truncated reply off as whole.
	limit := f.cfg.MaxBody + f.cfg.MaxBody/2 + 1024
	if n, err := io.Copy(w, io.LimitReader(resp.Body, limit)); err != nil || n == limit {
		if err == nil {
			err = fmt.Errorf("reply reached the %d-byte relay cap", limit)
		}
		f.peerErr[peer].Inc()
		rec.SetError(fmt.Sprintf("relaying the reply from %s: %v", peer, err))
		panic(http.ErrAbortHandler)
	}
	f.peerOK[peer].Inc()
	return true
}

// knownCap bounds the front's set of known canonical digests; a full set
// holds well under a megabyte.
const knownCap = 4096

// knownSet holds the digests of bodies the front has seen to be the
// canonical bytecode of a verified module. Both depend on the bytes alone
// (decode then encode is deterministic), so an entry never goes stale and
// nothing invalidates it. At the cap the set starts over, which costs each
// module one more parse. The zero value is an empty set.
type knownSet struct {
	mu  sync.Mutex
	set map[string]struct{}
}

func (k *knownSet) has(hash string) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	_, ok := k.set[hash]
	return ok
}

func (k *knownSet) add(hash string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.set == nil || len(k.set) >= knownCap {
		k.set = make(map[string]struct{})
	}
	k.set[hash] = struct{}{}
}

// learn adds the digest of a module lifelong.Resolve has just parsed and
// verified.
func (k *knownSet) learn(hash string, _ []byte) error {
	k.add(hash)
	return nil
}

// FrontUsage is a one-line reminder for llvm-serve's flag error paths.
const FrontUsage = "llvm-serve -front -peers host1:port,host2:port,... [-addr :8190]"
