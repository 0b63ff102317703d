package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/analysis"
	"repro/internal/bytecode"
	"repro/internal/checker"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dsa"
	"repro/internal/interp"
	"repro/internal/lifelong"
	"repro/internal/profile"
	"repro/internal/tooling"
)

// replayer re-enacts, by direct calls into each layer's public functions,
// the work one HTTP request causes inside the front and the owning node.
// The real request is timed from outside as a whole; the replay is what
// splits it into layers without touching the program. It works on a scratch
// store of its own, so replaying never changes what the live nodes hold.
type replayer struct {
	log   *spanLog
	store *lifelong.Store
	dir   string
	ring  *cluster.Ring // nil when the workload has no front

	// resident mirrors the daemon's program cache: /run executes one
	// module object per hash so translations are shared across requests.
	resident map[string]*residentProg

	coldMs, putNewMs []float64 // from populating the scratch store
}

type residentProg struct {
	mod  *core.Module
	prog *interp.Program
}

// newReplayer opens the scratch store and compiles the working set into it
// cold, as the live nodes did during set-up.
func newReplayer(log *spanLog, dir string, ring *cluster.Ring, ws []*module) (*replayer, error) {
	st, err := lifelong.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	r := &replayer{log: log, store: st, dir: dir, ring: ring, resident: map[string]*residentProg{}}
	for _, m := range ws {
		mod, err := bytecode.Decode(m.body)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, _, err := st.PutModule(mod); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if _, err := lifelong.Compile(st, mod, "std"); err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		r.putNewMs = append(r.putNewMs, ms(t1.Sub(t0)))
		r.coldMs = append(r.coldMs, ms(time.Since(t1)))
	}
	return r, nil
}

func (r *replayer) span(name string, op int, parent *liveSpan, f func()) {
	sp := r.log.start(name, op, parent)
	f()
	sp.end()
}

func gzipBytes(data []byte) []byte {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write(data)
	gz.Close()
	return buf.Bytes()
}

// request builds the request a handler would see for body.
func request(body []byte, gzipped bool) *http.Request {
	req := httptest.NewRequest(http.MethodPost, "/compile?raw=1", bytes.NewReader(body))
	if gzipped {
		req.Header.Set("Content-Encoding", "gzip")
	}
	req.Header.Set("Accept-Encoding", "gzip")
	return req
}

// front replays the front's share of any routed request: read the body,
// parse it, re-encode it canonically, hash, gzip for the hop, pick the
// owner. It returns the gzipped body the node receives.
func (r *replayer) front(op int, parent *liveSpan, body []byte) ([]byte, error) {
	var raw, canonical, gz []byte
	var mod *core.Module
	var err error
	r.span("server.read_body", op, parent, func() { raw, err = lifelong.ReadBody(request(body, false), tooling.MaxInputSize) })
	if err != nil {
		return nil, err
	}
	canon := r.log.start("cluster.front_canon", op, parent)
	r.span("bytecode.decode", op, canon, func() { mod, err = tooling.LoadModuleBytes("request", raw) })
	if err == nil {
		r.span("bytecode.encode", op, canon, func() { canonical, err = bytecode.Encode(mod) })
	}
	var hash string
	if err == nil {
		r.span("bytecode.hash", op, canon, func() { hash = bytecode.HashBytes(canonical) })
		r.span("cluster.gzip", op, canon, func() { gz = gzipBytes(canonical) })
	}
	canon.end()
	if err != nil {
		return nil, err
	}
	r.span("cluster.ring_owner", op, parent, func() { r.ring.Owner(hash) })
	return gz, nil
}

// relay replays the front's return leg: its transport gunzips the node's
// reply and the front gzips it again for the client.
func (r *replayer) relay(op int, parent *liveSpan, reply []byte) {
	r.span("cluster.relay_gzip", op, parent, func() {
		zr, err := gzip.NewReader(bytes.NewReader(reply))
		if err != nil {
			return
		}
		plain, _ := io.ReadAll(zr)
		gzipBytes(plain)
	})
}

// readModule replays the node's readModule: gunzip, parse, verify.
func (r *replayer) readModule(op int, parent *liveSpan, body []byte, gzipped bool) (*core.Module, error) {
	var raw []byte
	var mod *core.Module
	var err error
	r.span("server.read_body", op, parent, func() { raw, err = lifelong.ReadBody(request(body, gzipped), tooling.MaxInputSize) })
	if err != nil {
		return nil, err
	}
	r.span("bytecode.decode", op, parent, func() { mod, err = tooling.LoadModuleBytes("request", raw) })
	if err != nil {
		return nil, err
	}
	r.span("core.verify", op, parent, func() { err = core.Verify(mod) })
	return mod, err
}

// reply replays writing data through the daemon's gzip reply writer and
// returns the compressed bytes.
func (r *replayer) reply(op int, parent *liveSpan, data []byte) []byte {
	rec := httptest.NewRecorder()
	r.span("server.gzip_reply", op, parent, func() {
		w, finish := lifelong.Compress(rec, request(nil, false))
		w.Write(data)
		finish()
	})
	return rec.Body.Bytes()
}

// compile replays the node's /compile after the parse. The handler hashes
// the module and reads its profile epoch for the single-flight key, then
// calls lifelong.Compile; the replay times that call whole, as one store
// span. What a hit or a miss does inside it (which store calls, in which
// order, the pipeline) is the store's business and may change without the
// benchmark knowing: the single store calls have figures of their own, from
// storeFacts.
func (r *replayer) compile(op int, parent *liveSpan, mod *core.Module, wantHit bool) ([]byte, error) {
	var hash string
	var err error
	r.span("bytecode.hash", op, parent, func() { hash, err = bytecode.ModuleHash(mod) })
	if err != nil {
		return nil, err
	}
	r.span("store.get_profile", op, parent, func() { r.store.GetProfile(hash) })
	name := "store.compile_cold"
	if wantHit {
		name = "store.compile_warm"
	}
	var res *lifelong.CompileResult
	r.span(name, op, parent, func() { res, err = lifelong.Compile(r.store, mod, "std") })
	if err != nil {
		return nil, err
	}
	if res.Hit != wantHit {
		return nil, fmt.Errorf("replay: %.12s: hit %v in the scratch store, want %v", hash, res.Hit, wantHit)
	}
	return res.Data, nil
}

// run replays the node's /run: intern, fetch the resident program, set up
// a machine, execute, and with profiling fold the counts into the store.
func (r *replayer) run(op int, parent *liveSpan, mod *core.Module, profiled bool) (outcome, error) {
	var hash string
	var err error
	r.span("store.put_module_known", op, parent, func() { hash, _, err = r.store.PutModule(mod) })
	if err != nil {
		return outcome{}, err
	}
	res := r.resident[hash]
	if res == nil {
		res = &residentProg{mod: mod, prog: interp.NewProgram(mod)}
		r.resident[hash] = res
	}
	var mc *interp.Machine
	var out bytes.Buffer
	r.span("interp.machine_setup", op, parent, func() {
		if mc, err = interp.NewMachine(res.mod, &out); err != nil {
			return
		}
		mc.MaxSteps = maxSteps
		mc.SetTier(interp.TierAuto)
		err = mc.AttachProgram(res.prog)
	})
	if err != nil {
		return outcome{}, err
	}
	if profiled {
		mc.EnableProfile()
	}
	r.span("store.get_profile", op, parent, func() {
		if pf, ok := r.store.GetProfile(hash); ok {
			mc.SeedProfile(pf.Counts.Funcs)
		}
	})
	var code int64
	r.span("interp.execute", op, parent, func() { code, err = runToExit(mc) })
	if err != nil {
		return outcome{}, err
	}
	if profiled {
		var c *profile.Counts
		r.span("profile.counts", op, parent, func() { c = profile.CountsFromBlocks(mc.BlockCounts()) })
		// The owner merges forwarded counts into its accumulated file.
		acc := &profile.Counts{Funcs: map[string][]int64{}}
		r.span("profile.merge", op, parent, func() { acc.Merge(c) })
		r.span("store.merge_profile", op, parent, func() { _, _, err = r.store.MergeProfile(hash, c) })
	}
	return outcome{Exit: code, Output: out.String(), Steps: mc.Steps}, err
}

// check replays the node's /check: intern, points-to summaries, checker.
func (r *replayer) check(op int, parent *liveSpan, mod *core.Module) (int, error) {
	var hash string
	var err error
	r.span("store.put_module_known", op, parent, func() { hash, _, err = r.store.PutModule(mod) })
	if err != nil {
		return 0, err
	}
	var pt *dsa.Result
	r.span("dsa.analyze", op, parent, func() { pt, _ = lifelong.SummariesFor(r.store, hash, mod) })
	am := analysis.NewManager()
	am.ModuleExt(dsa.Key, mod, func(*core.Module) interface{} { return pt })
	ck := checker.New()
	ck.AM = am
	var rep *checker.Report
	r.span("checker.check", op, parent, func() { rep, err = ck.Check(mod) })
	if err != nil {
		return 0, err
	}
	return len(rep.Errors()), nil
}

// putKnown times PutModule of modules the scratch store already holds: what
// every request pays to intern its module again.
func (r *replayer) putKnown(lm layerMetrics, mods []*module) error {
	var known []float64
	for _, m := range mods {
		mod, err := bytecode.Decode(m.body)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, _, err := r.store.PutModule(mod); err != nil {
			return err
		}
		known = append(known, ms(time.Since(t0)))
	}
	lm.set("store.put_module_known_ms", median(known))
	return nil
}

// storeFacts times, one direct call each over the working set, the store
// calls a /compile makes inside lifelong.Compile, where no replay span
// reaches them, and reports the scratch store's size.
func (r *replayer) storeFacts(lm layerMetrics, ws []*module) error {
	if err := r.putKnown(lm, ws); err != nil {
		return err
	}
	var getArt, putArt, openMs []float64
	for _, m := range ws {
		t0 := time.Now()
		data, ok := r.store.GetArtifact(m.hash, "std", 0)
		getArt = append(getArt, ms(time.Since(t0)))
		if !ok {
			return fmt.Errorf("replay: artifact of %s missing from the scratch store", m.name)
		}
		t0 = time.Now()
		if err := r.store.PutArtifact(m.hash, "std", 0, data); err != nil {
			return err
		}
		putArt = append(putArt, ms(time.Since(t0)))
	}
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := lifelong.Open(r.dir, 0); err != nil {
			return err
		}
		openMs = append(openMs, ms(time.Since(t0)))
	}
	lm.set("store.get_artifact_ms", median(getArt))
	lm.set("store.put_artifact_ms", median(putArt))
	lm.set("store.put_module_new_ms", median(r.putNewMs))
	lm.set("store.compile_cold_ms", median(r.coldMs))
	lm.set("store.open_ms", median(openMs))
	if fi, err := os.Stat(filepath.Join(r.dir, "index.json")); err == nil {
		lm.set("store.index_bytes", float64(fi.Size()))
	}
	return nil
}
