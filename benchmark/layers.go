package main

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/lifelong"
	"repro/internal/obs"
)

// layerMetrics holds one traced run's per-layer figures. Every name of
// perLayer is present from the start at 0: a layer the workload does not
// cross does no work there, and 0 is what the run measured.
type layerMetrics map[string]float64

func newLayerMetrics() layerMetrics {
	lm := layerMetrics{}
	for _, m := range perLayer {
		lm[m.Name] = 0
	}
	return lm
}

func (lm layerMetrics) set(name string, v float64) {
	if _, ok := lm[name]; !ok {
		panic("benchmark: " + name + " is not a per-layer metric of BENCHMARK.json")
	}
	lm[name] = v
}

// add accumulates into a metric if it is one: the pass manager also runs
// passes the benchmark does not report by name.
func (lm layerMetrics) add(name string, v float64) {
	if _, ok := lm[name]; ok {
		lm[name] += v
	}
}

// spanMetrics maps a replay span to the metric its per-op self time feeds.
var spanMetrics = map[string]string{
	"server.read_body":     "server.read_body_ms",
	"server.gzip_reply":    "server.gzip_reply_ms",
	"bytecode.decode":      "bytecode.decode_ms",
	"bytecode.encode":      "bytecode.encode_ms",
	"bytecode.hash":        "bytecode.hash_ms",
	"core.verify":          "core.verify_ms",
	"store.get_profile":    "store.get_profile_ms",
	"store.merge_profile":  "store.merge_profile_ms",
	"store.compile_warm":   "store.compile_warm_ms",
	"interp.machine_setup": "interp.machine_setup_ms",
	"profile.counts":       "profile.counts_ms",
	"profile.merge":        "profile.merge_ms",
	"checker.check":        "checker.check_ms",
	"dsa.analyze":          "dsa.analyze_ms",
}

// serveLayerMetrics turns the replay spans into metrics: for each span
// name, the median over ops of the self time all spans of that name took
// in the op. It returns the sum of those medians over everything under a
// replay, the part of a request the replay accounts for.
func serveLayerMetrics(lm layerMetrics, recs []spanRec, self []time.Duration) (replayed float64) {
	names := map[string]bool{}
	for _, r := range recs {
		if r.parent >= 0 && r.name != "request" && r.name != "replay" {
			names[r.name] = true
		}
	}
	for name := range names {
		name := name
		med := median(perOp(recs, self, func(s string) bool { return s == name }))
		replayed += med
		if metric, ok := spanMetrics[name]; ok {
			lm.set(metric, med)
		}
	}
	// The front's canonicalisation is reported whole, children included.
	var canon []float64
	for _, r := range recs {
		if r.name == "cluster.front_canon" {
			canon = append(canon, ms(r.end-r.start))
		}
	}
	lm.set("cluster.front_canon_ms", median(canon))
	return replayed
}

// printShares prints which share of the ops' time each layer's spans took:
// the check that a workload stresses the layers it was chosen for.
func printShares(workload string, recs []spanRec, self []time.Duration, under string) {
	// Only spans below an `under` span count, and `under` spans make the total.
	inside := make([]bool, len(recs))
	var total time.Duration
	byLayer := map[string]time.Duration{}
	for i, r := range recs {
		if r.name == under {
			inside[i] = true
			total += r.end - r.start
			continue
		}
		if r.parent >= 0 && inside[r.parent] {
			inside[i] = true
			byLayer[layerOf(r.name)] += self[i]
		}
	}
	if total == 0 {
		return
	}
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(a, b int) bool { return byLayer[layers[a]] > byLayer[layers[b]] })
	var parts []string
	for _, l := range layers {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", l, 100*float64(byLayer[l])/float64(total)))
	}
	fmt.Printf("%s: share of traced op time by layer: %s\n", workload, strings.Join(parts, ", "))
}

// liveStats sums what the live nodes and the front count themselves.
type liveStats struct {
	artifactHits, artifactMisses, evictions float64
	rejected, dedup, retries                float64
}

func clusterStats(lc *cluster.LocalCluster) liveStats {
	var s liveStats
	for _, n := range lc.Nodes {
		s.addServer(n.Server(), n.Store())
	}
	s.retries = lc.Front.Metrics().Counter("llvm_front_retries_total").Value()
	return s
}

func (s *liveStats) addServer(srv *lifelong.Server, st *lifelong.Store) {
	ss := st.Stats()
	s.artifactHits += float64(ss.ArtifactHits)
	s.artifactMisses += float64(ss.ArtifactMisses)
	s.evictions += float64(ss.Evictions)
	s.rejected += srv.Metrics().Counter("llvm_serve_rejected_total").Value()
	s.dedup += srv.Metrics().Counter("llvm_serve_singleflight_shared_total").Value()
}

func (s liveStats) delta(before liveStats) liveStats {
	return liveStats{
		artifactHits:   s.artifactHits - before.artifactHits,
		artifactMisses: s.artifactMisses - before.artifactMisses,
		evictions:      s.evictions - before.evictions,
		rejected:       s.rejected - before.rejected,
		dedup:          s.dedup - before.dedup,
		retries:        s.retries - before.retries,
	}
}

func (s liveStats) report(lm layerMetrics) {
	if n := s.artifactHits + s.artifactMisses; n > 0 {
		lm.set("store.artifact_hit_ratio", s.artifactHits/n)
	}
	lm.set("store.evictions", s.evictions)
	lm.set("server.rejected_503", s.rejected)
	lm.set("server.dedup_followers", s.dedup)
	lm.set("cluster.retries", s.retries)
}

// phaseMetrics reads the program's own request phases back from the nodes'
// flight recorders: a cross-check of the outside-in figures, not their
// source.
func phaseMetrics(lm layerMetrics, lc *cluster.LocalCluster, endpoint string) {
	var recs []obs.RequestRecord
	for _, n := range lc.Nodes {
		recs = append(recs, n.Server().Recorder().Snapshot()...)
	}
	recordedPhases(lm, recs, endpoint)
}

func recordedPhases(lm layerMetrics, recs []obs.RequestRecord, endpoint string) {
	byPhase := map[string][]float64{}
	for _, r := range recs {
		if r.Path != endpoint || r.Status != http.StatusOK {
			continue
		}
		for _, p := range r.Phases {
			byPhase[p.Name] = append(byPhase[p.Name], p.Seconds*1000)
		}
	}
	for phase, metric := range map[string]string{
		"read-parse": "server.phase.read_parse_ms",
		"compile":    "server.phase.compile_ms",
		"execute":    "server.phase.execute_ms",
	} {
		if v := byPhase[phase]; len(v) > 0 {
			lm.set(metric, median(v))
		}
	}
}

// ringMetrics measures placement: the cost of one Owner lookup, how evenly
// the working set spreads, and what a request to a non-owner costs (it
// fetches the artifact through from the owner). The non-owner posts come
// last: each leaves a copy of the artifact behind.
func ringMetrics(lm layerMetrics, lc *cluster.LocalCluster, ws []*module, client *http.Client) error {
	ring := lc.Front.Ring()
	const rounds = 200
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		for _, m := range ws {
			ring.Owner(m.hash)
		}
	}
	lm.set("cluster.ring_owner_us", float64(time.Since(t0).Nanoseconds())/1e3/float64(rounds*len(ws)))

	perNode := map[string]float64{}
	for _, m := range ws {
		perNode[ring.Owner(m.hash)]++
	}
	var most float64
	for _, n := range perNode {
		if n > most {
			most = n
		}
	}
	lm.set("cluster.owner_spread", most/(float64(len(ws))/float64(len(lc.Nodes))))

	var remoteMs []float64
	for _, m := range ws {
		_, other := ownerURL(lc, m)
		t0 := time.Now()
		_, cache, err := compileVia(client, other, m)
		if err != nil {
			return err
		}
		if cache == "remote" {
			remoteMs = append(remoteMs, ms(time.Since(t0)))
		}
	}
	lm.set("cluster.remote_hit_ms", median(remoteMs))
	return nil
}
