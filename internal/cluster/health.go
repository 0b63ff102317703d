package cluster

import (
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
)

// Health tracks peer liveness. Peers start optimistically up (so the
// first request tries the owner instead of waiting a probe period), a
// background prober corrects the view every interval, and request paths
// report failures reactively (MarkDown) so a dead peer stops receiving
// traffic before the next probe tick. All of it is advisory: routing
// fails open, a "down" peer is merely tried last, and a "up" peer that
// refuses a connection is retried elsewhere.
type Health struct {
	mu sync.Mutex
	up map[string]bool

	stop chan struct{}
	done chan struct{}
}

// newHealth starts a prober over peers (excluding self — a node never
// probes itself) with the given period. probe reports one peer's
// liveness; it must be safe for concurrent use.
func newHealth(peers []string, self string, interval time.Duration, probe func(peer string) bool) *Health {
	h := &Health{
		up:   map[string]bool{},
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	var probed []string
	for _, p := range peers {
		h.up[p] = true
		if p != self {
			probed = append(probed, p)
		}
	}
	go func() {
		defer close(h.done)
		if probe == nil || len(probed) == 0 || interval <= 0 {
			return
		}
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-ticker.C:
			}
			for _, p := range probed {
				if probe(p) {
					h.MarkUp(p)
				} else {
					h.MarkDown(p)
				}
			}
		}
	}()
	return h
}

// Close stops the prober and waits for it to exit.
func (h *Health) Close() {
	select {
	case <-h.stop:
	default:
		close(h.stop)
	}
	<-h.done
}

// Up reports whether peer is believed alive (unknown peers are down).
func (h *Health) Up(peer string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.up[peer]
}

// MarkUp records a successful contact with peer.
func (h *Health) MarkUp(peer string) {
	h.mu.Lock()
	if _, known := h.up[peer]; known {
		h.up[peer] = true
	}
	h.mu.Unlock()
}

// MarkDown records a failed contact with peer.
func (h *Health) MarkDown(peer string) {
	h.mu.Lock()
	if _, known := h.up[peer]; known {
		h.up[peer] = false
	}
	h.mu.Unlock()
}

// Snapshot returns the current liveness view, keyed by peer.
func (h *Health) Snapshot() map[string]bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]bool, len(h.up))
	for p, u := range h.up {
		out[p] = u
	}
	return out
}

// httpProbe builds the standard liveness probe: GET /cluster/health with
// a short budget; any 200 counts as alive.
func httpProbe(client *http.Client) func(peer string) bool {
	return func(peer string) bool {
		resp, err := client.Get("http://" + peer + "/cluster/health")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}
}

// clusterView is the cluster surface node and front share: one
// llvm_cluster_peer_up gauge per configured peer, and /cluster/health and
// /cluster/peers answered as self in role ("node" or "front").
type clusterView struct {
	self, role string
	ring       *Ring
	health     *Health
	start      time.Time
}

// newClusterView registers the peer-up gauges on metrics.
func newClusterView(self, role string, ring *Ring, health *Health, metrics *obs.Registry) *clusterView {
	for _, p := range ring.Peers() {
		metrics.GaugeFunc("llvm_cluster_peer_up", func() float64 {
			if health.Up(p) {
				return 1
			}
			return 0
		}, "peer", p)
	}
	return &clusterView{self: self, role: role, ring: ring, health: health, start: time.Now()}
}

// healthResponse is /cluster/health's JSON shape.
type healthResponse struct {
	Self          string  `json:"self"`
	Role          string  `json:"role"`
	Peers         int     `json:"peers"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (v *clusterView) handleHealth(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, http.StatusOK, healthResponse{
		Self:          v.self,
		Role:          v.role,
		Peers:         len(v.ring.Peers()),
		UptimeSeconds: time.Since(v.start).Seconds(),
	})
}

// peersResponse is /cluster/peers's JSON shape: membership, ring shape,
// and this process's liveness view of each peer.
type peersResponse struct {
	Self   string          `json:"self"`
	Role   string          `json:"role"`
	VNodes int             `json:"vnodes"`
	Peers  []string        `json:"peers"`
	Up     map[string]bool `json:"up"`
}

func (v *clusterView) handlePeers(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, http.StatusOK, peersResponse{
		Self:   v.self,
		Role:   v.role,
		VNodes: v.ring.VNodes(),
		Peers:  v.ring.Peers(),
		Up:     v.health.Snapshot(),
	})
}
