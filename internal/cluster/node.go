package cluster

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"regexp"
	"strconv"
	"time"

	"repro/internal/lifelong"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/tooling"
)

// Config parameterizes one cluster node.
type Config struct {
	// Self is this node's address (host:port) and must appear in Peers.
	Self string
	// Peers is the full cluster membership, identical on every node (any
	// order — the ring sorts it). Peer addresses double as metric label
	// values, so the label space is bounded by this list.
	Peers []string
	// VNodes is the virtual-node count per peer (0 = DefaultVNodes).
	VNodes int
	// ProbeInterval is the health-probe period (0 = 2s).
	ProbeInterval time.Duration
	// PeerTimeout bounds each peer HTTP call — fetch-through, profile
	// forward, probe (0 = 5s).
	PeerTimeout time.Duration
	// Lifelong configures the wrapped single-node daemon. Its Store is
	// required; its RemoteFetch, ProfileSink, and ExtraHandlers fields
	// are owned by the cluster layer and must be left unset.
	Lifelong lifelong.Config
}

// Node is one llvm-serve cluster peer: a full lifelong daemon (it serves
// /compile, /run, /check, /stats, /metrics exactly like a standalone
// node) plus the cluster surface — /cluster/artifact, /cluster/profile,
// /cluster/health, /cluster/peers — and the two owner-directed flows:
// artifact fetch-through on local miss and profile forwarding on /run.
type Node struct {
	cfg     Config
	ring    *Ring
	health  *Health
	srv     *lifelong.Server
	store   *lifelong.Store
	metrics *obs.Registry
	client  *http.Client
	maxBody int64

	// Per-peer counters, pre-registered from the configured peer list
	// only: request data can never mint a new label value (the
	// label-cardinality bound /metrics relies on).
	fetchHit, fetchMiss, fetchErr map[string]*obs.Counter
	forwardOK, forwardErr         map[string]*obs.Counter
	cOwnerDown                    *obs.Counter
}

var moduleHashRe = regexp.MustCompile(`^[0-9a-f]{64}$`)

// NewNode builds a cluster node and starts its health prober and the
// wrapped lifelong daemon (callers must Close it).
func NewNode(cfg Config) (*Node, error) {
	ring, err := NewRing(cfg.Peers, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	self := false
	for _, p := range ring.Peers() {
		if p == cfg.Self {
			self = true
		}
	}
	if !self {
		return nil, fmt.Errorf("cluster: self %q not in peer list %v", cfg.Self, ring.Peers())
	}
	if cfg.Lifelong.Store == nil {
		return nil, fmt.Errorf("cluster: node needs a lifelong store")
	}
	if cfg.Lifelong.RemoteFetch != nil || cfg.Lifelong.ProfileSink != nil || cfg.Lifelong.ExtraHandlers != nil {
		return nil, fmt.Errorf("cluster: Lifelong.RemoteFetch/ProfileSink/ExtraHandlers are owned by the cluster layer")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * time.Second
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = 5 * time.Second
	}
	n := &Node{
		cfg:     cfg,
		ring:    ring,
		store:   cfg.Lifelong.Store,
		client:  &http.Client{Timeout: cfg.PeerTimeout},
		maxBody: cfg.Lifelong.MaxBody,
	}
	if n.maxBody <= 0 {
		n.maxBody = tooling.MaxInputSize
	}
	n.metrics = cfg.Lifelong.Metrics
	if n.metrics == nil {
		n.metrics = obs.NewRegistry()
	}
	n.registerMetrics()
	n.health = newHealth(ring.Peers(), cfg.Self, cfg.ProbeInterval, httpProbe(n.client))
	view := newClusterView(cfg.Self, "node", ring, n.health, n.metrics)

	lcfg := cfg.Lifelong
	lcfg.Metrics = n.metrics
	lcfg.RemoteFetch = n.fetchThrough
	lcfg.ProfileSink = n.forwardProfile
	lcfg.ExtraHandlers = map[string]http.Handler{
		"/cluster/artifact": http.HandlerFunc(n.handleArtifact),
		"/cluster/profile":  http.HandlerFunc(n.handleProfile),
		"/cluster/health":   http.HandlerFunc(view.handleHealth),
		"/cluster/peers":    http.HandlerFunc(view.handlePeers),
	}
	n.srv = lifelong.NewServer(lcfg)
	return n, nil
}

// registerMetrics pre-creates every per-peer series from the configured
// peer list. llvm_cluster_fetch_total counts fetch-through attempts by
// owning peer and outcome; llvm_cluster_profile_forward_total the profile
// flows; and llvm_cluster_owner_down_total the fail-open local compiles
// taken because the owner was unreachable. The clusterView registers
// llvm_cluster_peer_up.
func (n *Node) registerMetrics() {
	n.fetchHit = map[string]*obs.Counter{}
	n.fetchMiss = map[string]*obs.Counter{}
	n.fetchErr = map[string]*obs.Counter{}
	n.forwardOK = map[string]*obs.Counter{}
	n.forwardErr = map[string]*obs.Counter{}
	for _, p := range n.ring.Peers() {
		n.fetchHit[p] = n.metrics.Counter("llvm_cluster_fetch_total", "peer", p, "result", "hit")
		n.fetchMiss[p] = n.metrics.Counter("llvm_cluster_fetch_total", "peer", p, "result", "miss")
		n.fetchErr[p] = n.metrics.Counter("llvm_cluster_fetch_total", "peer", p, "result", "error")
		n.forwardOK[p] = n.metrics.Counter("llvm_cluster_profile_forward_total", "peer", p, "result", "ok")
		n.forwardErr[p] = n.metrics.Counter("llvm_cluster_profile_forward_total", "peer", p, "result", "error")
	}
	n.cOwnerDown = n.metrics.Counter("llvm_cluster_owner_down_total")
	n.metrics.GaugeFunc("llvm_cluster_peers", func() float64 { return float64(len(n.ring.Peers())) })
}

// Handler returns the node's full HTTP surface: the lifelong daemon's
// endpoints (observability middleware included) plus /cluster/*.
func (n *Node) Handler() http.Handler { return n.srv.Handler() }

// Server exposes the wrapped lifelong daemon (tests, -reopt-now).
func (n *Node) Server() *lifelong.Server { return n.srv }

// Store exposes the node's persistent store (tests).
func (n *Node) Store() *lifelong.Store { return n.store }

// Ring exposes the node's placement ring.
func (n *Node) Ring() *Ring { return n.ring }

// Self returns this node's peer address.
func (n *Node) Self() string { return n.cfg.Self }

// Metrics returns the node's registry (shared with the lifelong daemon).
func (n *Node) Metrics() *obs.Registry { return n.metrics }

// Close stops the health prober and the wrapped daemon.
func (n *Node) Close() {
	n.health.Close()
	n.srv.Close()
}

// ---------------------------------------------------------------------------
// Owner-directed flows

// fetchThrough implements lifelong.RemoteFetch: on a local artifact miss,
// ask the peer owning this hash range for its best artifact. Only the
// owner is asked — successors don't compile for ranges they don't own, so
// asking them would just add misses — and every failure path returns
// ok=false, degrading to a local compile. ctx carries the request's trace
// context across the hop (the owner's /cluster/artifact span parents
// under this node's compile span) and its flight-recorder record, which
// gets one hop entry per attempt.
func (n *Node) fetchThrough(ctx context.Context, modHash, spec string) ([]byte, int64, bool) {
	rec := obs.RecordFromContext(ctx)
	owner := n.ring.Owner(modHash)
	if owner == n.cfg.Self {
		return nil, 0, false
	}
	if !n.health.Up(owner) {
		n.cOwnerDown.Inc()
		rec.AddHop(owner, "fetch-through", "down", 0)
		return nil, 0, false
	}
	t0 := time.Now()
	u := fmt.Sprintf("http://%s/cluster/artifact?module=%s&spec=%s",
		owner, url.QueryEscape(modHash), url.QueryEscape(spec))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, 0, false
	}
	obs.PropagateHeaders(ctx, req.Header)
	resp, err := n.client.Do(req)
	if err != nil {
		n.fetchErr[owner].Inc()
		n.health.MarkDown(owner)
		rec.AddHop(owner, "fetch-through", "error", time.Since(t0))
		return nil, 0, false
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		data, err := readLimited(resp, n.maxBody)
		if err != nil {
			n.fetchErr[owner].Inc()
			rec.AddHop(owner, "fetch-through", "error", time.Since(t0))
			return nil, 0, false
		}
		epoch, _ := strconv.ParseInt(resp.Header.Get("X-Artifact-Epoch"), 10, 64)
		n.fetchHit[owner].Inc()
		n.health.MarkUp(owner)
		rec.AddHop(owner, "fetch-through", "hit", time.Since(t0))
		return data, epoch, true
	case resp.StatusCode == http.StatusNotFound:
		// The owner answered but has nothing yet: a healthy miss.
		n.fetchMiss[owner].Inc()
		n.health.MarkUp(owner)
		rec.AddHop(owner, "fetch-through", "miss", time.Since(t0))
		return nil, 0, false
	default:
		n.fetchErr[owner].Inc()
		if resp.StatusCode >= 500 {
			n.health.MarkDown(owner)
		}
		rec.AddHop(owner, "fetch-through", "error", time.Since(t0))
		return nil, 0, false
	}
}

// forwardProfile implements lifelong.Config.ProfileSink: run counts for a
// module another peer owns are merged into the owner's store, so its
// epoch bookkeeping accumulates the whole cluster's heat and its idle
// reoptimizer sees every run. handled=false (owner == self, owner down,
// transport failure) falls back to the local merge — evidence is never
// dropped.
func (n *Node) forwardProfile(ctx context.Context, modHash string, c *profile.Counts) (int64, bool, bool) {
	rec := obs.RecordFromContext(ctx)
	owner := n.ring.Owner(modHash)
	if owner == n.cfg.Self || !n.health.Up(owner) {
		return 0, false, false
	}
	payload, err := json.Marshal(c)
	if err != nil {
		return 0, false, false
	}
	t0 := time.Now()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write(payload)
	gz.Close()
	u := fmt.Sprintf("http://%s/cluster/profile?module=%s", owner, url.QueryEscape(modHash))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, &buf)
	if err != nil {
		return 0, false, false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Content-Encoding", "gzip")
	obs.PropagateHeaders(ctx, req.Header)
	resp, err := n.client.Do(req)
	if err != nil {
		n.forwardErr[owner].Inc()
		n.health.MarkDown(owner)
		rec.AddHop(owner, "profile-forward", "error", time.Since(t0))
		return 0, false, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		n.forwardErr[owner].Inc()
		if resp.StatusCode >= 500 {
			n.health.MarkDown(owner)
		}
		rec.AddHop(owner, "profile-forward", "error", time.Since(t0))
		return 0, false, false
	}
	var pr profileResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		n.forwardErr[owner].Inc()
		rec.AddHop(owner, "profile-forward", "error", time.Since(t0))
		return 0, false, false
	}
	n.forwardOK[owner].Inc()
	n.health.MarkUp(owner)
	rec.AddHop(owner, "profile-forward", "ok", time.Since(t0))
	return pr.ProfileEpoch, pr.EpochAdvanced, true
}

// ---------------------------------------------------------------------------
// Cluster endpoints

// handleArtifact serves the peer fetch-through protocol: a read-only
// probe of this node's store for its best artifact under (module, spec) —
// current-profile-epoch first, epoch 0 as fallback, 404 when neither
// exists. It never compiles: fetch-through must not amplify one client
// request into cascaded pipeline runs.
func (n *Node) handleArtifact(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		obs.WriteError(w, http.StatusMethodNotAllowed, "GET with ?module=HASH&spec=SPEC")
		return
	}
	modHash := r.URL.Query().Get("module")
	if !moduleHashRe.MatchString(modHash) {
		obs.WriteError(w, http.StatusBadRequest, "module must be a 64-char lowercase hex SHA-256")
		return
	}
	spec := r.URL.Query().Get("spec")
	if spec == "" {
		obs.WriteError(w, http.StatusBadRequest, "missing spec parameter")
		return
	}
	var epoch int64
	if f, ok := n.store.GetProfile(modHash); ok {
		epoch = f.Epoch
	}
	data, ok := []byte(nil), false
	servedEpoch := int64(0)
	if epoch > 0 {
		if data, ok = n.store.GetArtifact(modHash, spec, epoch); ok {
			servedEpoch = epoch
		}
	}
	if !ok {
		data, ok = n.store.GetArtifact(modHash, spec, 0)
	}
	if !ok {
		obs.WriteError(w, http.StatusNotFound, "no artifact for %s under %q", modHash[:12], spec)
		return
	}
	w, finish := lifelong.Compress(w, r)
	defer finish()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Module-Hash", modHash)
	w.Header().Set("X-Artifact-Epoch", fmt.Sprint(servedEpoch))
	w.Write(data)
}

// profileResponse is /cluster/profile's JSON shape, mirroring the /run
// response's profile fields.
type profileResponse struct {
	ModuleHash    string `json:"module_hash"`
	ProfileEpoch  int64  `json:"profile_epoch"`
	EpochAdvanced bool   `json:"epoch_advanced"`
}

// handleProfile accepts forwarded run counts from a peer and merges them
// into this node's store under the standard profile.File Merge semantics
// — the same path local /run merges take, so cluster-wide and single-node
// accumulation are literally the same algebra.
func (n *Node) handleProfile(w http.ResponseWriter, r *http.Request) {
	body, ok := lifelong.ReadPost(w, r, n.maxBody, nil)
	if !ok {
		return
	}
	modHash := r.URL.Query().Get("module")
	if !moduleHashRe.MatchString(modHash) {
		obs.WriteError(w, http.StatusBadRequest, "module must be a 64-char lowercase hex SHA-256")
		return
	}
	var c profile.Counts
	if err := json.Unmarshal(body, &c); err != nil {
		obs.WriteError(w, http.StatusUnprocessableEntity, "parsing counts: %v", err)
		return
	}
	var total int64
	for fn, per := range c.Funcs {
		for _, v := range per {
			if v < 0 {
				obs.WriteError(w, http.StatusUnprocessableEntity, "negative count in %%%s", fn)
				return
			}
			total += v
		}
	}
	if total != c.Total || total == 0 {
		obs.WriteError(w, http.StatusUnprocessableEntity, "total %d does not match summed counts %d (or is zero)", c.Total, total)
		return
	}
	f, bumped, err := n.store.MergeProfile(modHash, &c)
	if err != nil {
		obs.WriteError(w, http.StatusInternalServerError, "merging profile: %v", err)
		return
	}
	obs.WriteJSON(w, http.StatusOK, profileResponse{
		ModuleHash:    modHash,
		ProfileEpoch:  f.Epoch,
		EpochAdvanced: bumped,
	})
}

// ---------------------------------------------------------------------------
// Shared HTTP helpers

// readLimited reads at most max bytes from a peer response, erroring on
// anything larger (a peer, however trusted, must not be able to balloon
// this node's memory).
func readLimited(resp *http.Response, max int64) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(resp.Body, max+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > max {
		return nil, fmt.Errorf("cluster: peer response exceeds %d bytes", max)
	}
	return data, nil
}
