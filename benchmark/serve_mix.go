package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/cluster"
)

// serveMix drives the 3-node front open-loop at a fixed arrival rate with
// reads and writes mixed, and each node's store capped below the working
// set, so evictions, cold compiles and profile merges happen beside hits.
type serveMix struct {
	cfg     config
	refs    []outcome // working set, then the never-seen pool
	ws      []*module
	cold    []*module
	lc      *cluster.LocalCluster
	client  *http.Client
	attempt int
	used    int // never-seen modules already sent
	windows int
}

const (
	mixRate       = 40.0    // arrivals per second
	mixStoreBytes = 1 << 20 // per node: holds its share of the working set, not the never-seen modules on top
	// pinnedColdPool is how many never-seen programs the pinned references
	// cover: more than a run at the benchmark's window sends.
	pinnedColdPool = 160
)

// The request classes of the mix and their share of arrivals.
const (
	classHit = iota
	classCold
	classRun
	classCheck
	numClasses
)

var classNames = [numClasses]string{"compile-hit", "compile-cold", "run", "check"}

// classPattern holds the mix's shares exactly: of every ten arrivals six
// are hits, one a cold compile, two runs and one a check.
var classPattern = [10]int{classHit, classHit, classHit, classHit, classHit, classHit, classCold, classRun, classRun, classCheck}

const coldShare = 0.1

func newServeMix(cfg config) runner { return &serveMix{cfg: cfg} }

func (w *serveMix) limit() time.Duration { return 100 * time.Millisecond }

// coldPool generates n programs no request has carried before: further
// reseeded copies of the suite, in suite order, so any run of consecutive
// pool entries holds the same kinds of program whatever the seed.
func coldPool(seed int64, n int) []*program {
	var pool []*program
	for v := workingSetVariants; len(pool) < n; v++ {
		pool = append(pool, suite(seed, v, 1)...)
	}
	return pool[:n]
}

func (w *serveMix) coldNeeded() int {
	return int(mixRate*(w.cfg.seconds+w.cfg.warmUp).Seconds()*coldShare) + w.cfg.tracedOps/len(classPattern) + 8
}

func (w *serveMix) prepare() (err error) {
	progs := append(workingSetPrograms(w.cfg.seed), coldPool(w.cfg.seed, w.coldNeeded())...)
	w.refs, err = references(w.cfg.seed, progs)
	return err
}

// setUp is serve_hit's set-up under the store cap, plus building the
// never-seen modules the window will send.
func (w *serveMix) setUp() (err error) {
	w.attempt++
	w.used = 0
	w.ws, w.lc, w.client, err = launchWarm(w.cfg, mixStoreBytes, w.attempt, w.refs)
	if err != nil {
		return err
	}
	w.cold = nil
	for i, p := range coldPool(w.cfg.seed, w.coldNeeded()) {
		m, err := buildModule(p)
		if err != nil {
			return err
		}
		m.ref = w.refs[len(w.ws)+i]
		w.cold = append(w.cold, m)
	}
	return nil
}

func (w *serveMix) tearDown() {
	if w.lc != nil {
		w.lc.Close()
		w.client.CloseIdleConnections()
		w.lc = nil
	}
}

// arrival is one scheduled request: its class and the module it carries.
type arrival struct {
	class int
	mod   *module
}

// plan draws the window's arrivals from the seed: every ten consecutive
// arrivals hold the classes in their exact shares, in a shuffled order;
// never-seen modules come in pool order from where the last window stopped.
func (w *serveMix) plan(n int) ([]arrival, error) {
	w.windows++
	rng := rand.New(rand.NewSource(w.cfg.seed*1000 + int64(w.windows)))
	classes := make([]int, n)
	for at := 0; at < n; at += len(classPattern) {
		block := classPattern
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		copy(classes[at:], block[:])
	}
	// Each class walks its own shuffle of the whole working set, so a
	// window holds every (class, program) pair equally often whatever the
	// seed; only their order differs.
	var order [numClasses][]int
	var cursor [numClasses]int
	for c := range order {
		order[c] = rng.Perm(len(w.ws))
	}
	plan := make([]arrival, n)
	for i, c := range classes {
		if c == classCold {
			if w.used == len(w.cold) {
				return nil, fmt.Errorf("serve_mix: the pool of %d never-seen modules is used up", len(w.cold))
			}
			plan[i] = arrival{c, w.cold[w.used]}
			w.used++
			continue
		}
		plan[i] = arrival{c, w.ws[order[c][cursor[c]%len(w.ws)]]}
		cursor[c]++
	}
	return plan, nil
}

// checkReply is the part of /check's JSON the benchmark judges.
type checkReply struct {
	Errors int `json:"errors"`
}

// send performs one arrival against base and judges the reply.
func (w *serveMix) send(base string, a arrival) bool {
	m := a.mod
	switch a.class {
	case classHit:
		// Under the store cap the artifact may have been evicted and
		// rebuilt; whichever way it was served it must be the same bytes.
		data, _, err := compileVia(w.client, base, m)
		if err != nil {
			return false
		}
		prev := m.lastArtifact()
		m.setArtifact(data)
		return bytes.Equal(prev, data)
	case classCold:
		data, cache, err := compileVia(w.client, base, m)
		if err != nil || cache != "miss" {
			return false
		}
		m.setArtifact(data)
		return true
	case classRun:
		return runVia(w.client, base+"/run", m.body, m.ref)
	default:
		status, _, data, err := post(w.client, base+"/check", m.body)
		var r checkReply
		return err == nil && status == http.StatusOK && json.Unmarshal(data, &r) == nil && r.Errors == 0
	}
}

func (w *serveMix) measure(d time.Duration) (window, error) {
	n := int(mixRate * d.Seconds())
	plan, err := w.plan(n)
	if err != nil {
		return window{}, err
	}
	due := arrivalTimes(w.cfg.seed*1000+int64(w.windows), n, d)
	front := w.lc.FrontURL()
	return openLoop(due, func(i int) (int, bool) {
		return plan[i].class, w.send(front, plan[i])
	}), nil
}

// check verifies the last artifact of every working-set module and of every
// never-seen module that was sent.
func (w *serveMix) check() []error {
	return checkArtifacts(append(append([]*module(nil), w.ws...), w.cold[:w.used]...))
}

func (w *serveMix) outBytes() int { return artifactBytes(w.ws) }

// trace sends the mix's classes in their shares with one caller, each as a
// real request through the front, then directly to the owner, then
// replayed on a scratch store.
func (w *serveMix) trace(log *spanLog, ops int, lm layerMetrics) error {
	rp, err := newReplayer(log, filepath.Join(w.cfg.tmp, "scratch"), w.lc.Front.Ring(), w.ws)
	if err != nil {
		return err
	}
	plan, err := w.plan(ops)
	if err != nil {
		return err
	}
	// Spread the classes evenly instead of randomly: few ops, all four seen.
	sort.SliceStable(plan, func(a, b int) bool { return plan[a].class < plan[b].class })
	front := w.lc.FrontURL()

	before := clusterStats(w.lc)
	reqMs := map[int][]float64{}
	directMs := map[int][]float64{}
	for op, a := range plan {
		m := a.mod
		root := log.start("op.serve_mix."+classNames[a.class], op, nil)
		sp := log.start("request", op, root)
		ok := w.send(front, a)
		sp.end()
		if !ok {
			return fmt.Errorf("%s: traced %s request failed", m.name, classNames[a.class])
		}
		reqMs[a.class] = append(reqMs[a.class], ms(log.recs[sp.idx].end-log.recs[sp.idx].start))

		if a.class != classCold { // a second post of a never-seen module is a hit
			owner, _ := ownerURL(w.lc, m)
			t0 := time.Now()
			if !w.send(owner, a) {
				return fmt.Errorf("%s: direct %s request to the owner failed", m.name, classNames[a.class])
			}
			directMs[a.class] = append(directMs[a.class], ms(time.Since(t0)))
		}

		replay := log.start("replay", op, root)
		gz, err := rp.front(op, replay, m.body)
		if err != nil {
			return err
		}
		mod, err := rp.readModule(op, replay, gz, true)
		if err != nil {
			return err
		}
		switch a.class {
		case classHit:
			data, err := rp.compile(op, replay, mod, true)
			if err != nil {
				return err
			}
			rp.relay(op, replay, rp.reply(op, replay, data))
		case classCold:
			data, err := rp.compile(op, replay, mod, false)
			if err != nil {
				return err
			}
			rp.relay(op, replay, rp.reply(op, replay, data))
			if !bytes.Equal(data, m.lastArtifact()) {
				return fmt.Errorf("%s: replayed cold compile differs from the served artifact", m.name)
			}
		case classRun:
			got, err := rp.run(op, replay, mod, true)
			if err != nil {
				return err
			}
			if got != m.ref {
				return fmt.Errorf("%s: replayed run %+v differs from the reference %+v", m.name, got, m.ref)
			}
		case classCheck:
			if n, err := rp.check(op, replay, mod); err != nil || n != 0 {
				return fmt.Errorf("%s: replayed check: %d errors, %v", m.name, n, err)
			}
		}
		replay.end()
		root.end()
	}
	after := clusterStats(w.lc)

	recs, self := log.recs, selfTimes(log.recs)
	serveLayerMetrics(lm, recs, self)
	lm.set("server.compile_hit_ms", median(directMs[classHit]))
	lm.set("server.run_ms", median(directMs[classRun]))
	lm.set("server.check_ms", median(directMs[classCheck]))
	lm.set("cluster.front_overhead_ms", median(reqMs[classHit])-median(directMs[classHit]))
	lm.set("obs.span_count", float64(len(recs)))
	after.delta(before).report(lm)
	phaseMetrics(lm, w.lc, "/compile")
	phaseMetrics(lm, w.lc, "/run")
	if err := ringMetrics(lm, w.lc, w.ws, w.client); err != nil {
		return err
	}
	printShares("serve_mix", recs, self, "replay")
	return rp.storeFacts(lm, w.ws)
}
