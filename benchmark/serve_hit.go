package main

import (
	"bytes"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cluster"
)

// serveHit is the warm hit through the cluster front: nproc callers post
// modules whose artifacts the owning nodes already hold.
type serveHit struct {
	cfg     config
	refs    []outcome
	ws      []*module
	lc      *cluster.LocalCluster
	client  *http.Client
	order   []int
	attempt int
}

func newServeHit(cfg config) runner { return &serveHit{cfg: cfg} }

func (w *serveHit) limit() time.Duration { return 50 * time.Millisecond }

func (w *serveHit) prepare() (err error) {
	w.refs, err = references(w.cfg.seed, workingSetPrograms(w.cfg.seed))
	return err
}

func (w *serveHit) setUp() (err error) {
	w.attempt++
	w.ws, w.lc, w.client, err = launchWarm(w.cfg, 0, w.attempt, w.refs)
	w.order = shuffled(w.cfg.seed, len(w.ws))
	return err
}

func (w *serveHit) tearDown() {
	if w.lc != nil {
		w.lc.Close()
		w.client.CloseIdleConnections()
		w.lc = nil
	}
}

// hit posts module i to base and checks the reply: 200, served from the
// cache, and byte-equal to the artifact set-up received, which the
// after-window check decodes, verifies and runs.
func (w *serveHit) hit(base string, i int) bool {
	m := w.ws[i]
	data, cache, err := compileVia(w.client, base, m)
	return err == nil && cache == "hit" && bytes.Equal(data, m.lastArtifact())
}

func (w *serveHit) measure(d time.Duration) (window, error) {
	front := w.lc.FrontURL()
	return closedLoop(runtime.NumCPU(), d, func(n int) (int, bool) {
		i := w.order[n%len(w.order)]
		return i, w.hit(front, i)
	}), nil
}

func (w *serveHit) check() []error { return checkArtifacts(w.ws) }

func checkArtifacts(ws []*module) []error {
	var errs []error
	for _, m := range ws {
		if err := checkArtifact(m.lastArtifact(), m.ref); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", m.name, err))
		}
	}
	return errs
}

func (w *serveHit) outBytes() int { return artifactBytes(w.ws) }

func artifactBytes(ws []*module) int {
	n := 0
	for _, m := range ws {
		n += len(m.lastArtifact())
	}
	return n
}

// ownerURL is the base URL of the node owning m, and other that of a node
// that does not.
func ownerURL(lc *cluster.LocalCluster, m *module) (owner, other string) {
	o := lc.Front.Ring().Owner(m.hash)
	for _, n := range lc.Nodes {
		if n.Self() == o {
			owner = "http://" + n.Self()
		} else if other == "" {
			other = "http://" + n.Self()
		}
	}
	return owner, other
}

// trace sends each traced op as a real request through the front, then to
// the owner directly, then replays the request's layers on a scratch store.
func (w *serveHit) trace(log *spanLog, ops int, lm layerMetrics) error {
	ring := w.lc.Front.Ring()
	rp, err := newReplayer(log, filepath.Join(w.cfg.tmp, "scratch"), ring, w.ws)
	if err != nil {
		return err
	}
	front := w.lc.FrontURL()

	// The same ops with no span log, for the tracing overhead.
	var plainMs []float64
	for op := 0; op < ops; op++ {
		i := w.order[op%len(w.order)]
		t0 := time.Now()
		if !w.hit(front, i) {
			return fmt.Errorf("%s: untraced request failed", w.ws[i].name)
		}
		plainMs = append(plainMs, ms(time.Since(t0)))
	}

	before := clusterStats(w.lc)
	var reqMs, directMs []float64
	for op := 0; op < ops; op++ {
		i := w.order[op%len(w.order)]
		m := w.ws[i]
		root := log.start("op.serve_hit", op, nil)

		sp := log.start("request", op, root)
		ok := w.hit(front, i)
		sp.end()
		if !ok {
			return fmt.Errorf("%s: traced request failed", m.name)
		}
		reqMs = append(reqMs, ms(log.recs[sp.idx].end-log.recs[sp.idx].start))

		owner, _ := ownerURL(w.lc, m)
		t0 := time.Now()
		if !w.hit(owner, i) {
			return fmt.Errorf("%s: direct request to the owner failed", m.name)
		}
		directMs = append(directMs, ms(time.Since(t0)))

		replay := log.start("replay", op, root)
		gz, err := rp.front(op, replay, m.body)
		if err != nil {
			return err
		}
		mod, err := rp.readModule(op, replay, gz, true)
		if err != nil {
			return err
		}
		data, err := rp.compile(op, replay, mod, true)
		if err != nil {
			return err
		}
		rp.relay(op, replay, rp.reply(op, replay, data))
		replay.end()
		root.end()
		if !bytes.Equal(data, m.lastArtifact()) {
			return fmt.Errorf("%s: replayed artifact differs from the served one", m.name)
		}
	}
	after := clusterStats(w.lc)

	recs, self := log.recs, selfTimes(log.recs)
	replayed := serveLayerMetrics(lm, recs, self)
	lm.set("server.compile_hit_ms", median(directMs))
	lm.set("cluster.front_overhead_ms", median(reqMs)-median(directMs))
	lm.set("serve_hit.unattributed_ms", median(reqMs)-replayed)
	lm.set("obs.trace_overhead_share", median(reqMs)/median(plainMs)-1)
	lm.set("obs.span_count", float64(len(recs)))
	after.delta(before).report(lm)
	phaseMetrics(lm, w.lc, "/compile")
	if err := ringMetrics(lm, w.lc, w.ws, w.client); err != nil {
		return err
	}
	printShares("serve_hit", recs, self, "replay")
	return rp.storeFacts(lm, w.ws)
}
