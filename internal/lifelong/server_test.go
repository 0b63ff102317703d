package lifelong

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/frontend/minic"
)

// hotSrc has a call site the profile-guided reoptimizer provably inlines
// (see profile.TestReoptimizeInlinesHotSites), so the epoch>0 artifact
// differs from the plain pipeline's output.
const hotSrc = `
static int hotwork(int x) {
	int r = x;
	int i;
	for (i = 0; i < 3; i++) r = r * 2 + i;
	return r % 1000;
}
int main() {
	int acc = 0;
	int i;
	for (i = 0; i < 500; i++) acc = (acc + hotwork(i)) % 100000;
	return acc % 251;
}
`

// hotModuleText compiles hotSrc to textual IR, the form a client would
// POST. The standard pipeline must NOT have run on it — the daemon does
// that — but minic.Compile output is raw front-end IR, which is what we
// want.
func hotModuleText(t *testing.T) []byte {
	t.Helper()
	m, err := minic.Compile("hot", hotSrc)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(m.String())
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Store == nil {
		st, err := Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func post(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func postJSON(t *testing.T, url string, body []byte, out interface{}) *http.Response {
	t.Helper()
	resp, data := post(t, url, body)
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("%s: bad JSON %q: %v", url, data, err)
	}
	return resp
}

// TestCompileWarmHitIsByteIdentical pins the acceptance criterion: the
// second /compile of an unchanged module is a cache hit, does zero pass
// work, and returns byte-identical bytecode.
func TestCompileWarmHitIsByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{DisableReopt: true})
	mod := hotModuleText(t)

	r1, cold := post(t, ts.URL+"/compile?raw=1", mod)
	if r1.StatusCode != 200 || r1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("cold compile: status %d cache %q", r1.StatusCode, r1.Header.Get("X-Cache"))
	}
	r2, warm := post(t, ts.URL+"/compile?raw=1", mod)
	if r2.StatusCode != 200 || r2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("warm compile: status %d cache %q", r2.StatusCode, r2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm artifact not byte-identical (%d vs %d bytes)", len(cold), len(warm))
	}
	if r1.Header.Get("X-Module-Hash") != r2.Header.Get("X-Module-Hash") {
		t.Fatal("module hash unstable across requests")
	}

	// JSON mode reports the same result with the bytecode inline.
	var jr compileResponse
	if resp := postJSON(t, ts.URL+"/compile", mod, &jr); resp.StatusCode != 200 {
		t.Fatalf("json compile status %d", resp.StatusCode)
	}
	if !jr.Hit || jr.Size != len(cold) {
		t.Fatalf("json compile: hit=%v size=%d want hit with %d bytes", jr.Hit, jr.Size, len(cold))
	}
}

// TestCompilePipelinesKeyedSeparately: the same module through different
// pipeline specs yields independently cached artifacts.
func TestCompilePipelinesKeyedSeparately(t *testing.T) {
	_, ts := newTestServer(t, Config{DisableReopt: true})
	mod := hotModuleText(t)

	r1, _ := post(t, ts.URL+"/compile?raw=1&pipeline=std", mod)
	r2, _ := post(t, ts.URL+"/compile?raw=1&pipeline=linktime", mod)
	if r1.Header.Get("X-Cache") != "miss" || r2.Header.Get("X-Cache") != "miss" {
		t.Fatal("distinct pipelines should each compile cold")
	}
	r3, _ := post(t, ts.URL+"/compile?raw=1&pipeline=linktime", mod)
	if r3.Header.Get("X-Cache") != "hit" {
		t.Fatal("second linktime compile should hit")
	}
	r4, _ := post(t, ts.URL+"/compile?raw=1&pipeline=mem2reg,nosuchpass", mod)
	if r4.StatusCode != http.StatusInternalServerError {
		t.Fatalf("bad pipeline spec: status %d", r4.StatusCode)
	}
}

// TestRunAccumulatesProfileAndEpochs: /run executes in the sandbox,
// returns the program's result, and folds per-run profiles into the
// store with the doubling epoch rule.
func TestRunAccumulatesProfileAndEpochs(t *testing.T) {
	s, ts := newTestServer(t, Config{DisableReopt: true})
	mod := hotModuleText(t)

	var r1 runResponse
	if resp := postJSON(t, ts.URL+"/run", mod, &r1); resp.StatusCode != 200 {
		t.Fatalf("run status %d", resp.StatusCode)
	}
	if r1.Trap != "" || r1.Steps == 0 {
		t.Fatalf("run: trap=%q steps=%d", r1.Trap, r1.Steps)
	}
	if !r1.Profiled || r1.ProfileEpoch != 1 || !r1.EpochAdvanced {
		t.Fatalf("first run: %+v, want epoch 1 advanced", r1)
	}
	var r2 runResponse
	postJSON(t, ts.URL+"/run", mod, &r2)
	if r2.ProfileEpoch != 2 || !r2.EpochAdvanced {
		t.Fatalf("second run: %+v, want epoch 2", r2)
	}
	var r3 runResponse
	postJSON(t, ts.URL+"/run", mod, &r3)
	if r3.EpochAdvanced || r3.ProfileEpoch != 2 {
		t.Fatalf("third run: %+v, want no advance", r3)
	}

	// profile=0 opts out.
	var r4 runResponse
	postJSON(t, ts.URL+"/run?profile=0", mod, &r4)
	if r4.Profiled {
		t.Fatal("profile=0 still profiled")
	}

	// The store has the module interned for the idle reoptimizer.
	if _, ok := s.store.GetModuleBytes(r1.ModuleHash); !ok {
		t.Fatal("/run did not intern the module")
	}
}

// TestRunReusesTranslations: repeated /run requests for the same module
// execute against one resident module object and one shared translation
// cache, so the second request reuses the first's tier translations
// instead of recompiling them per machine.
func TestRunReusesTranslations(t *testing.T) {
	s, ts := newTestServer(t, Config{DisableReopt: true})
	mod := hotModuleText(t)

	var r1, r2 runResponse
	postJSON(t, ts.URL+"/run", mod, &r1)
	st1, n1 := s.progs.stats()
	postJSON(t, ts.URL+"/run", mod, &r2)
	st2, n2 := s.progs.stats()

	if r1.Trap != "" || r2.Trap != "" || r1.ExitCode != r2.ExitCode {
		t.Fatalf("runs disagree: %+v vs %+v", r1, r2)
	}
	if n1 != 1 || n2 != 1 {
		t.Fatalf("resident programs: %d then %d, want 1", n1, n2)
	}
	compiles1 := st1.T1Compiles + st1.T2Compiles
	compiles2 := st2.T1Compiles + st2.T2Compiles
	if compiles1 == 0 {
		t.Fatal("first run compiled nothing")
	}
	if compiles2 != compiles1 {
		t.Fatalf("second run retranslated: %d compiles then %d", compiles1, compiles2)
	}
	if reuses := st2.T1Reused + st2.T2Reused; reuses == 0 {
		t.Fatal("second run reused no translations")
	}

	// The reuse counters surface on /stats for operators.
	var stats statsResponse
	resp, body := post(t, ts.URL+"/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Engine.ResidentPrograms != 1 || stats.Engine.T1Reused+stats.Engine.T2Reused == 0 {
		t.Fatalf("stats engine block: %+v", stats.Engine)
	}
}

// TestRunSecondRequestStartsAtTier2: hotness lives on the resident Program
// and loop functions skip the baseline tier, so neither the first /run of
// hotSrc (both functions loop) nor the second enters tier 1, the second
// translates nothing, and its reply is the first's — profiled or not.
func TestRunSecondRequestStartsAtTier2(t *testing.T) {
	for _, query := range []string{"", "?profile=0"} {
		s, ts := newTestServer(t, Config{DisableReopt: true})
		mod := hotModuleText(t)
		calls := func(tier string) float64 {
			return s.metrics.Counter("llvm_interp_tier_calls_total", "tier", tier).Value()
		}

		var r1, r2 runResponse
		postJSON(t, ts.URL+"/run"+query, mod, &r1)
		st1, _ := s.progs.stats()
		t2First := calls("2")
		postJSON(t, ts.URL+"/run"+query, mod, &r2)
		st2, _ := s.progs.stats()

		if r1.Trap != "" || r1.Steps == 0 {
			t.Fatalf("/run%s: first reply %+v", query, r1)
		}
		// The profile epoch is the store's, not the run's.
		r2.ProfileEpoch, r2.EpochAdvanced = r1.ProfileEpoch, r1.EpochAdvanced
		if r1 != r2 {
			t.Fatalf("/run%s: second reply differs from the first:\n  %+v\n  %+v", query, r1, r2)
		}
		if n := calls("1"); n != 0 {
			t.Fatalf("/run%s: %v baseline-tier calls for loop functions, want 0", query, n)
		}
		if t2First == 0 || calls("2") != 2*t2First {
			t.Fatalf("/run%s: tier-2 calls %v then %v, want the same again", query, t2First, calls("2"))
		}
		if st1.T2Compiles == 0 || st2.T2Compiles != st1.T2Compiles || st2.T1Compiles != 0 {
			t.Fatalf("/run%s: translations %+v then %+v", query, st1, st2)
		}
	}
}

// TestRunOutputAndTrap: program output is captured, and traps surface as
// diagnostics, not failures.
func TestRunOutputAndTrap(t *testing.T) {
	_, ts := newTestServer(t, Config{DisableReopt: true})

	hello := []byte(`
%fmt = internal constant [4 x sbyte] c"hi\0A\00"
declare int %printf(sbyte*, ...)
int %main() {
entry:
	%p = getelementptr [4 x sbyte]* %fmt, long 0, long 0
	%r = call int %printf(sbyte* %p)
	ret int 7
}
`)
	var rr runResponse
	postJSON(t, ts.URL+"/run", hello, &rr)
	if rr.ExitCode != 7 || rr.Output != "hi\n" {
		t.Fatalf("hello run: %+v", rr)
	}

	trap := []byte(`
int %main() {
entry:
	%p = cast long 0 to int*
	%v = load int* %p
	ret int %v
}
`)
	var tr runResponse
	resp := postJSON(t, ts.URL+"/run", trap, &tr)
	if resp.StatusCode != 200 || !strings.Contains(tr.Trap, "null pointer") {
		t.Fatalf("trap run: status %d %+v", resp.StatusCode, tr)
	}
}

// TestCheckEndpoint: /check reports the checker's positioned diagnostics.
func TestCheckEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{DisableReopt: true})

	buggy := []byte(`
int %main() {
entry:
	%p = malloc int
	free int* %p
	free int* %p
	ret int 0
}
`)
	var cr checkResponse
	if resp := postJSON(t, ts.URL+"/check", buggy, &cr); resp.StatusCode != 200 {
		t.Fatalf("check status %d", resp.StatusCode)
	}
	if cr.Errors == 0 {
		t.Fatalf("double free not caught: %+v", cr)
	}

	var clean checkResponse
	postJSON(t, ts.URL+"/check", hotModuleText(t), &clean)
	if clean.Errors != 0 {
		t.Fatalf("clean module flagged: %+v", clean)
	}
}

// TestLifelongCycle is the subsystem's end-to-end story: compile, run
// until the profile epoch advances, reoptimize, and observe the daemon
// serving a different — profile-guided — artifact for the same module.
func TestLifelongCycle(t *testing.T) {
	s, ts := newTestServer(t, Config{DisableReopt: true})
	mod := hotModuleText(t)

	_, epoch0 := post(t, ts.URL+"/compile?raw=1", mod)

	// Two profiled runs advance the epoch to 2.
	var rr runResponse
	postJSON(t, ts.URL+"/run", mod, &rr)
	postJSON(t, ts.URL+"/run", mod, &rr)
	if rr.ProfileEpoch == 0 {
		t.Fatalf("no profile accumulated: %+v", rr)
	}

	// The stale window: profile is ahead, epoch-0 artifact still serves.
	var stale compileResponse
	postJSON(t, ts.URL+"/compile", mod, &stale)
	if !stale.Hit || !stale.Stale || stale.Reoptimized {
		t.Fatalf("pre-reopt compile: %+v", stale.CompileResult)
	}

	// Drain the reoptimizer (the idle loop's work, run synchronously for
	// determinism).
	built, err := s.ReoptimizeAll()
	if err != nil || built == 0 {
		t.Fatalf("reoptimize: built=%d err=%v", built, err)
	}

	r2, reopt := post(t, ts.URL+"/compile?raw=1", mod)
	if r2.Header.Get("X-Cache") != "hit" || r2.Header.Get("X-Reoptimized") != "true" {
		t.Fatalf("post-reopt compile headers: cache=%q reopt=%q",
			r2.Header.Get("X-Cache"), r2.Header.Get("X-Reoptimized"))
	}
	if bytes.Equal(epoch0, reopt) {
		t.Fatal("profile-guided artifact identical to unprofiled one; reopt did nothing")
	}

	// The reoptimized artifact stays cached and byte-stable.
	_, again := post(t, ts.URL+"/compile?raw=1", mod)
	if !bytes.Equal(reopt, again) {
		t.Fatal("reoptimized artifact not byte-stable across hits")
	}
}

// TestIdleReoptimizerRuns: with a short idle delay, the daemon's own
// background loop builds the profile-guided artifact with no further
// requests.
func TestIdleReoptimizerRuns(t *testing.T) {
	_, ts := newTestServer(t, Config{IdleDelay: 20 * time.Millisecond})
	mod := hotModuleText(t)

	var rr runResponse
	postJSON(t, ts.URL+"/run", mod, &rr)
	if rr.ProfileEpoch == 0 {
		t.Fatalf("run did not profile: %+v", rr)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		var st statsResponse
		gresp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(gresp.Body)
		gresp.Body.Close()
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("stats JSON: %v (%q)", err, data)
		}
		if st.Reopt.ArtifactsBuilt > 0 {
			if st.Reopt.LastModule != rr.ModuleHash || st.Reopt.LastEpoch != rr.ProfileEpoch {
				t.Fatalf("reopt stats name wrong module: %+v vs run %+v", st.Reopt, rr)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle reoptimizer never ran: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}

	var cr compileResponse
	postJSON(t, ts.URL+"/compile", mod, &cr)
	if !cr.Hit || !cr.Reoptimized {
		t.Fatalf("idle-built artifact not served: %+v", cr.CompileResult)
	}
}

// TestServerRejectsBadInput: malformed and oversized bodies, wrong
// methods.
func TestServerRejectsBadInput(t *testing.T) {
	_, ts := newTestServer(t, Config{DisableReopt: true, MaxBody: 256})

	resp, _ := post(t, ts.URL+"/compile", []byte("int %f( {{{"))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("garbage module: status %d", resp.StatusCode)
	}
	resp, _ = post(t, ts.URL+"/compile", bytes.Repeat([]byte("; x\n"), 200))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized module: status %d", resp.StatusCode)
	}
	g, err := http.Get(ts.URL + "/compile")
	if err != nil {
		t.Fatal(err)
	}
	g.Body.Close()
	if g.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /compile: status %d", g.StatusCode)
	}
}

// TestReoptimizeStoredDeterministic: two stores fed the same module and
// profile produce byte-identical reoptimized artifacts (the parallel
// pipeline's determinism carried through the lifelong layer).
func TestReoptimizeStoredDeterministic(t *testing.T) {
	mod := hotModuleText(t)
	var artifacts [][]byte
	for i := 0; i < 2; i++ {
		st, err := Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		s := NewServer(Config{Store: st, DisableReopt: true})
		ts := httptest.NewServer(s.Handler())
		var rr runResponse
		postJSON(t, ts.URL+"/run", mod, &rr)
		if _, err := s.ReoptimizeAll(); err != nil {
			t.Fatal(err)
		}
		data, ok := st.GetArtifact(rr.ModuleHash, "std", rr.ProfileEpoch)
		if !ok {
			t.Fatal("reoptimized artifact missing")
		}
		artifacts = append(artifacts, data)
		ts.Close()
		s.Close()
	}
	if !bytes.Equal(artifacts[0], artifacts[1]) {
		t.Fatal("reoptimization not deterministic across stores")
	}
}
