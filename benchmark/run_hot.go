package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bytecode"
	"repro/internal/codegen"
	"repro/internal/interp"
	"repro/internal/lifelong"
)

// runHot executes optimised programs on one daemon, no cluster: nproc
// callers post /run?profile=0 of modules the daemon keeps resident.
type runHot struct {
	cfg     config
	refs    []outcome // exit and output, from the unoptimised modules
	mods    []*module // optimised bytecode; ref.Steps from tier 0 on that same module
	store   *lifelong.Store
	srv     *lifelong.Server
	httpSrv *http.Server
	base    string
	client  *http.Client
	order   []int
	attempt int
}

func newRunHot(cfg config) runner { return &runHot{cfg: cfg} }

func (w *runHot) limit() time.Duration { return 100 * time.Millisecond }

func (w *runHot) prepare() (err error) {
	w.refs, err = references(w.cfg.seed, suite(w.cfg.seed, 0, runHotIterFactor))
	return err
}

// setUp builds the suite through the per-unit standard pipeline, starts
// the daemon on a loopback listener and runs every program once, so the
// daemon has interned, made resident and translated each.
func (w *runHot) setUp() error {
	w.attempt++
	w.mods = nil
	for i, p := range suite(w.cfg.seed, 0, runHotIterFactor) {
		m, err := buildLinked(p, true)
		if err != nil {
			return err
		}
		body, err := bytecode.Encode(m)
		if err != nil {
			return err
		}
		// Steps depend on the optimised module, so their reference is
		// tier 0 on that same module: every tier must count what it does.
		t0, err := runTier0(m)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		ref := w.refs[i]
		ref.Steps = t0.Steps
		w.mods = append(w.mods, &module{name: p.name, body: body, hash: bytecode.HashBytes(body), ref: ref})
	}
	var err error
	if w.store, err = lifelong.Open(storeDir(w.cfg.tmp, "daemon", w.attempt), 0); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = lifelong.NewServer(lifelong.Config{Store: w.store, DisableReopt: true})
	w.httpSrv = &http.Server{Handler: w.srv.Handler()}
	go w.httpSrv.Serve(ln)
	w.base = "http://" + ln.Addr().String()
	w.client = newClient()
	w.order = shuffled(w.cfg.seed, len(w.mods))
	for i, m := range w.mods {
		if !w.run(i) {
			return fmt.Errorf("%s: first /run failed or differs from the reference", m.name)
		}
	}
	return nil
}

func (w *runHot) tearDown() {
	if w.httpSrv != nil {
		w.httpSrv.Close()
		w.srv.Close()
		w.client.CloseIdleConnections()
		w.httpSrv = nil
	}
}

// runReply is the part of /run's JSON the benchmark judges.
type runReply struct {
	ExitCode int64  `json:"exit_code"`
	Output   string `json:"output"`
	Steps    int64  `json:"steps"`
	Trap     string `json:"trap"`
}

// runVia posts body to url and compares the reply with want.
func runVia(c *http.Client, url string, body []byte, want outcome) bool {
	status, _, data, err := post(c, url, body)
	if err != nil || status != http.StatusOK {
		return false
	}
	var r runReply
	if json.Unmarshal(data, &r) != nil || r.Trap != "" {
		return false
	}
	return outcome{Exit: r.ExitCode, Output: r.Output, Steps: r.Steps} == want
}

func (w *runHot) run(i int) bool {
	return runVia(w.client, w.base+"/run?profile=0", w.mods[i].body, w.mods[i].ref)
}

func (w *runHot) measure(d time.Duration) (window, error) {
	return closedLoop(runtime.NumCPU(), d, func(n int) (int, bool) {
		i := w.order[n%len(w.order)]
		return i, w.run(i)
	}), nil
}

// check has nothing left to do: every reply was compared inline.
func (w *runHot) check() []error { return nil }

func (w *runHot) outBytes() int {
	n := 0
	for _, m := range w.mods {
		n += len(m.body)
	}
	return n
}

func (w *runHot) trace(log *spanLog, ops int, lm layerMetrics) error {
	rp, err := newReplayer(log, filepath.Join(w.cfg.tmp, "scratch"), nil, nil)
	if err != nil {
		return err
	}
	var plainMs []float64
	for op := 0; op < ops; op++ {
		t0 := time.Now()
		if !w.run(w.order[op%len(w.order)]) {
			return fmt.Errorf("untraced /run failed")
		}
		plainMs = append(plainMs, ms(time.Since(t0)))
	}

	// Intern every module in the scratch store and make it resident, as
	// the daemon did in set-up; these runs are not part of any traced op.
	rp.log = nil
	for _, m := range w.mods {
		mod, err := bytecode.Decode(m.body)
		if err != nil {
			return err
		}
		if _, err := rp.run(0, nil, mod, false); err != nil {
			return err
		}
	}
	rp.log = log

	var before liveStats
	before.addServer(w.srv, w.store)
	var reqMs []float64
	for op := 0; op < ops; op++ {
		i := w.order[op%len(w.order)]
		m := w.mods[i]
		root := log.start("op.run_hot", op, nil)
		sp := log.start("request", op, root)
		ok := w.run(i)
		sp.end()
		if !ok {
			return fmt.Errorf("%s: traced /run failed", m.name)
		}
		reqMs = append(reqMs, ms(log.recs[sp.idx].end-log.recs[sp.idx].start))

		replay := log.start("replay", op, root)
		mod, err := rp.readModule(op, replay, m.body, false)
		if err != nil {
			return err
		}
		got, err := rp.run(op, replay, mod, false)
		if err != nil {
			return err
		}
		replay.end()
		root.end()
		if got != m.ref {
			return fmt.Errorf("%s: replayed run %+v differs from the reference %+v", m.name, got, m.ref)
		}
	}
	var after liveStats
	after.addServer(w.srv, w.store)

	recs, self := log.recs, selfTimes(log.recs)
	replayed := serveLayerMetrics(lm, recs, self)
	lm.set("server.run_ms", median(reqMs))
	lm.set("run_hot.unattributed_ms", median(reqMs)-replayed)
	lm.set("obs.trace_overhead_share", median(reqMs)/median(plainMs)-1)
	lm.set("obs.span_count", float64(len(recs)))
	after.delta(before).report(lm)
	recordedPhases(lm, w.srv.Recorder().Snapshot(), "/run")
	printShares("run_hot", recs, self, "replay")
	if err := rp.putKnown(lm, w.mods); err != nil {
		return err
	}
	return w.tiers(lm)
}

// tiers runs every program at each fixed tier policy, the way the daemon
// sets a machine up, and reports the execution engine's own figures.
func (w *runHot) tiers(lm layerMetrics) error {
	type arm struct {
		policy interp.TierPolicy
		metric string
	}
	arms := []arm{
		{interp.TierInterp, "interp.t0_steps_per_s"},
		{interp.TierBaseline, "interp.t1_steps_per_s"},
		{interp.TierOpt, "interp.t2_steps_per_s"},
		{interp.TierAuto, "interp.auto_steps_per_s"},
	}
	const runs = 3
	rate := map[string][]float64{}
	var t1Ms, t2Ms, tierUps, lowerMs, allocKB float64
	var t2Calls, calls int64
	for _, m := range w.mods {
		mod, err := bytecode.Decode(m.body)
		if err != nil {
			return err
		}
		t0 := time.Now()
		for _, f := range mod.Funcs {
			if !f.IsDeclaration() {
				if _, err := codegen.LowerExec(f, false); err != nil {
					return fmt.Errorf("%s: %w", m.name, err)
				}
			}
		}
		lowerMs += ms(time.Since(t0))
		for _, a := range arms {
			prog := interp.NewProgram(mod)
			var best float64
			for i := 0; i < runs; i++ {
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				mc, err := newMachine(mod, prog, a.policy)
				if err != nil {
					return err
				}
				t0 := time.Now()
				code, err := runToExit(mc)
				d := time.Since(t0)
				if err != nil {
					return fmt.Errorf("%s at tier %s: %w", m.name, a.policy, err)
				}
				if code != m.ref.Exit || mc.Steps != m.ref.Steps {
					return fmt.Errorf("%s at tier %s: exit %d steps %d, reference exit %d steps %d",
						m.name, a.policy, code, mc.Steps, m.ref.Exit, m.ref.Steps)
				}
				runtime.ReadMemStats(&ms1)
				if r := float64(mc.Steps) / d.Seconds(); r > best {
					best = r
				}
				st := mc.TierStats()
				if i == 0 {
					// The first machine on a fresh Program translates.
					switch a.policy {
					case interp.TierBaseline:
						t1Ms += ms(st.CompileTime[1])
					case interp.TierOpt:
						t2Ms += ms(st.CompileTime[2])
					case interp.TierAuto:
						tierUps += float64(st.TierUps)
					}
				} else if a.policy == interp.TierAuto {
					t2Calls += st.Calls[2]
					calls += st.Calls[0] + st.Calls[1] + st.Calls[2]
					allocKB += float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64((runs-1)*len(w.mods))
				}
			}
			rate[a.metric] = append(rate[a.metric], best)
		}
	}
	for _, a := range arms {
		lm.set(a.metric, geomean(rate[a.metric]))
	}
	lm.set("interp.t1_translate_ms", t1Ms)
	lm.set("interp.t2_translate_ms", t2Ms)
	lm.set("interp.tier_ups", tierUps)
	lm.set("codegen.lower_exec_ms", lowerMs)
	lm.set("interp.alloc_kb_per_run", allocKB)
	if calls > 0 {
		lm.set("interp.t2_call_share", float64(t2Calls)/float64(calls))
	}
	return nil
}
