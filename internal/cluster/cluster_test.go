package cluster

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bytecode"
	"repro/internal/frontend/minic"
	"repro/internal/lifelong"
	"repro/internal/obs"
	"repro/internal/tooling"
)

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

// hotModule compiles hotSrc to the textual IR a client would POST, plus
// the canonical hash the cluster shards it by.
func hotModule(t *testing.T) (mod []byte, hash string) {
	t.Helper()
	m, err := minic.Compile("hot", hotSrc)
	if err != nil {
		t.Fatal(err)
	}
	mod = []byte(m.String())
	// Hash what the daemon will hash: it parses the POSTed text under the
	// name "request", and the module name is part of the canonical
	// encoding, so the client-side hash must use the same name.
	parsed, err := tooling.LoadModuleBytes("request", mod)
	if err != nil {
		t.Fatal(err)
	}
	h, err := bytecode.ModuleHash(parsed)
	if err != nil {
		t.Fatal(err)
	}
	return mod, h
}

func launch(t *testing.T, nodes int) *LocalCluster {
	t.Helper()
	lc, err := LaunchLocal(LocalOptions{
		Nodes: nodes,
		Dir:   t.TempDir(),
		Lifelong: lifelong.Config{
			DisableReopt: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	return lc
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

var metricLineRe = regexp.MustCompile(`^([a-zA-Z0-9_]+)(\{[^}]*\})? ([0-9eE.+-]+)$`)

// scrapeMetrics fetches url's /metrics and returns each series as
// "name{labels}" -> value.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		m := metricLineRe.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		out[m[1]+m[2]] += v
	}
	return out
}

// metricSum totals every series of one metric name across label sets.
func metricSum(metrics map[string]float64, name string) float64 {
	var sum float64
	for series, v := range metrics {
		if series == name || strings.HasPrefix(series, name+"{") {
			sum += v
		}
	}
	return sum
}

// TestClusterSmoke is the CI smoke scenario: a 3-node cluster compiles a
// module exactly once cluster-wide, repeats are cache hits with
// byte-identical artifacts, and killing the owning peer degrades to a
// recompile at a surviving peer — same bytes, no error surfaced to the
// client.
func TestClusterSmoke(t *testing.T) {
	lc := launch(t, 3)
	mod, hash := hotModule(t)
	owner := lc.Front.Ring().Owner(hash)

	r1, cold := post(t, lc.FrontURL()+"/compile?raw=1", mod)
	if r1.StatusCode != 200 || r1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("cold compile: status %d cache %q", r1.StatusCode, r1.Header.Get("X-Cache"))
	}
	if got := r1.Header.Get("X-Cluster-Peer"); got != owner {
		t.Fatalf("front routed to %s, ring owner is %s", got, owner)
	}
	for i := 0; i < 2; i++ {
		r, warm := post(t, lc.FrontURL()+"/compile?raw=1", mod)
		if r.StatusCode != 200 || r.Header.Get("X-Cache") != "hit" {
			t.Fatalf("repeat %d: status %d cache %q", i, r.StatusCode, r.Header.Get("X-Cache"))
		}
		if !bytes.Equal(cold, warm) {
			t.Fatalf("repeat %d: artifact not byte-identical", i)
		}
	}

	// Exactly one pipeline execution across the whole cluster.
	var compiles float64
	ownerIdx := -1
	for i, n := range lc.Nodes {
		compiles += metricSum(scrapeMetrics(t, "http://"+n.Self()), "llvm_lifelong_compiles_total")
		if n.Self() == owner {
			ownerIdx = i
		}
	}
	if compiles != 1 {
		t.Fatalf("cluster-wide compiles = %v, want exactly 1", compiles)
	}

	// Kill the owner: the front must absorb the loss (mark down, retry a
	// survivor) and the survivor recompiles locally — fail-open, and still
	// byte-identical because the pipeline is deterministic.
	lc.StopNode(ownerIdx)
	r2, after := post(t, lc.FrontURL()+"/compile?raw=1", mod)
	if r2.StatusCode != 200 {
		t.Fatalf("post-kill compile: status %d body %s", r2.StatusCode, after)
	}
	if got := r2.Header.Get("X-Cluster-Peer"); got == owner {
		t.Fatalf("post-kill request still claims dead owner %s", got)
	}
	if !bytes.Equal(cold, after) {
		t.Fatal("post-kill artifact not byte-identical to pre-kill artifact")
	}
}

// TestClusterConcurrentSingleCompile: concurrent identical requests
// through the front must still cost one pipeline run cluster-wide — the
// owner's single-flight group and cache absorb the other seven.
func TestClusterConcurrentSingleCompile(t *testing.T) {
	lc := launch(t, 3)
	mod, _ := hotModule(t)

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	bodies := make([][]byte, clients)
	start := make(chan struct{})
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(lc.FrontURL()+"/compile?raw=1", "application/octet-stream", bytes.NewReader(mod))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != 200 {
				errs <- fmt.Errorf("client %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			bodies[i] = body
		}(i)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("client %d artifact differs", i)
		}
	}
	var compiles float64
	for _, n := range lc.Nodes {
		compiles += metricSum(scrapeMetrics(t, "http://"+n.Self()), "llvm_lifelong_compiles_total")
	}
	if compiles != 1 {
		t.Fatalf("cluster-wide compiles = %v under %d concurrent clients, want exactly 1", compiles, clients)
	}
}

// TestClusterRemoteFetchThrough: an artifact compiled at its owner is
// fetched through — not recompiled — when a non-owner is asked for it,
// and the fetched copy then serves local hits.
func TestClusterRemoteFetchThrough(t *testing.T) {
	lc := launch(t, 3)
	mod, hash := hotModule(t)
	owner := lc.Front.Ring().Owner(hash)
	var ownerURL, otherURL string
	for _, n := range lc.Nodes {
		if n.Self() == owner {
			ownerURL = "http://" + n.Self()
		} else if otherURL == "" {
			otherURL = "http://" + n.Self()
		}
	}

	r1, cold := post(t, ownerURL+"/compile?raw=1", mod)
	if r1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("owner compile: cache %q, want miss", r1.Header.Get("X-Cache"))
	}
	r2, remote := post(t, otherURL+"/compile?raw=1", mod)
	if r2.Header.Get("X-Cache") != "remote" {
		t.Fatalf("non-owner compile: cache %q, want remote (fetch-through)", r2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(cold, remote) {
		t.Fatal("fetched artifact not byte-identical to the owner's")
	}
	r3, local := post(t, otherURL+"/compile?raw=1", mod)
	if r3.Header.Get("X-Cache") != "hit" {
		t.Fatalf("repeat at non-owner: cache %q, want local hit", r3.Header.Get("X-Cache"))
	}
	if !bytes.Equal(cold, local) {
		t.Fatal("locally cached fetched artifact not byte-identical")
	}

	// Fetch-through ran once, against the owner, and no second pipeline
	// execution happened anywhere.
	var compiles, fetchHits float64
	for _, n := range lc.Nodes {
		m := scrapeMetrics(t, "http://"+n.Self())
		compiles += metricSum(m, "llvm_lifelong_compiles_total")
		fetchHits += m[fmt.Sprintf(`llvm_cluster_fetch_total{peer=%q,result="hit"}`, owner)]
	}
	if compiles != 1 {
		t.Fatalf("cluster-wide compiles = %v, want 1", compiles)
	}
	if fetchHits != 1 {
		t.Fatalf("fetch-through hits against owner = %v, want 1", fetchHits)
	}
}

// TestClusterProfileMergesToOwner: /run evidence lands at the module's
// owner no matter which node served the run, and the owner's epoch
// trajectory matches the same runs against a single standalone node.
func TestClusterProfileMergesToOwner(t *testing.T) {
	lc := launch(t, 3)
	mod, hash := hotModule(t)
	owner := lc.Front.Ring().Owner(hash)

	type runResp struct {
		ModuleHash    string `json:"module_hash"`
		Profiled      bool   `json:"profiled"`
		ProfileEpoch  int64  `json:"profile_epoch"`
		EpochAdvanced bool   `json:"epoch_advanced"`
	}
	wantEpochs := []int64{1, 2, 2}
	wantAdvanced := []bool{true, true, false}
	for i, n := range lc.Nodes {
		resp, body := post(t, "http://"+n.Self()+"/run", mod)
		if resp.StatusCode != 200 {
			t.Fatalf("run %d at %s: status %d: %s", i, n.Self(), resp.StatusCode, body)
		}
		var rr runResp
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatalf("run %d: bad JSON: %v", i, err)
		}
		if !rr.Profiled || rr.ProfileEpoch != wantEpochs[i] || rr.EpochAdvanced != wantAdvanced[i] {
			t.Fatalf("run %d at %s: epoch %d advanced %v, want epoch %d advanced %v",
				i, n.Self(), rr.ProfileEpoch, rr.EpochAdvanced, wantEpochs[i], wantAdvanced[i])
		}
	}

	// All evidence accumulated at the owner; the non-owners kept none.
	var ownerNode *Node
	for _, n := range lc.Nodes {
		f, ok := n.Store().GetProfile(hash)
		if n.Self() == owner {
			ownerNode = n
			if !ok || f.Epoch != 2 {
				t.Fatalf("owner profile: ok=%v epoch=%v, want epoch 2", ok, f)
			}
		} else if ok {
			t.Fatalf("non-owner %s holds a local profile; counts should have been forwarded", n.Self())
		}
	}

	// Same runs against a standalone single node: identical epoch
	// trajectory and identical accumulated counts.
	st, err := lifelong.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	single := lifelong.NewServer(lifelong.Config{Store: st, DisableReopt: true})
	defer single.Close()
	ts := httptest.NewServer(single.Handler())
	defer ts.Close()
	for i := 0; i < 3; i++ {
		resp, body := post(t, ts.URL+"/run", mod)
		if resp.StatusCode != 200 {
			t.Fatalf("single-node run %d: status %d: %s", i, resp.StatusCode, body)
		}
		var rr runResp
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		if rr.ProfileEpoch != wantEpochs[i] || rr.EpochAdvanced != wantAdvanced[i] {
			t.Fatalf("single-node run %d: epoch %d advanced %v, want epoch %d advanced %v",
				i, rr.ProfileEpoch, rr.EpochAdvanced, wantEpochs[i], wantAdvanced[i])
		}
	}
	singleFile, ok := st.GetProfile(hash)
	if !ok {
		t.Fatal("single-node store has no profile")
	}
	clusterFile, _ := ownerNode.Store().GetProfile(hash)
	if singleFile.Epoch != clusterFile.Epoch {
		t.Fatalf("cluster epoch %d != single-node epoch %d", clusterFile.Epoch, singleFile.Epoch)
	}
	if !singleFile.Counts.Equal(&clusterFile.Counts) {
		t.Fatal("cluster-accumulated counts differ from single-node counts for identical runs")
	}
}

// TestClusterPeerLabelCardinality pins the /metrics cardinality bound:
// after real cluster traffic (including requests carrying arbitrary
// query strings), every peer-labeled series on every node and on the
// front names a configured peer — request data cannot mint label values.
func TestClusterPeerLabelCardinality(t *testing.T) {
	lc := launch(t, 3)
	mod, _ := hotModule(t)

	post(t, lc.FrontURL()+"/compile?raw=1", mod)
	for _, n := range lc.Nodes {
		post(t, "http://"+n.Self()+"/compile?raw=1", mod)
		post(t, "http://"+n.Self()+"/run", mod)
		// Hostile-ish traffic: bogus endpoints and params that must not
		// become label values.
		http.Get("http://" + n.Self() + "/cluster/artifact?module=evil&spec=std")
		http.Get("http://" + n.Self() + "/no/such/endpoint?peer=evil")
	}

	allowed := map[string]bool{}
	for _, p := range lc.Front.Ring().Peers() {
		allowed[p] = true
	}
	peerLabelRe := regexp.MustCompile(`peer="([^"]*)"`)
	check := func(base string) {
		for series := range scrapeMetrics(t, base) {
			for _, m := range peerLabelRe.FindAllStringSubmatch(series, -1) {
				if !allowed[m[1]] {
					t.Errorf("%s: series %s has peer label %q outside the configured list", base, series, m[1])
				}
			}
		}
	}
	for _, n := range lc.Nodes {
		check("http://" + n.Self())
	}
	check(lc.FrontURL())
}

// TestClusterGzipWire: a client may speak gzip to the front — a
// gzip-compressed request body is accepted, and a client advertising
// Accept-Encoding: gzip gets a gzip response that decodes to the same
// artifact an identity client sees.
func TestClusterGzipWire(t *testing.T) {
	lc := launch(t, 3)
	mod, _ := hotModule(t)

	_, plain := post(t, lc.FrontURL()+"/compile?raw=1", mod)

	var gzBody bytes.Buffer
	zw := gzip.NewWriter(&gzBody)
	zw.Write(mod)
	zw.Close()
	req, err := http.NewRequest(http.MethodPost, lc.FrontURL()+"/compile?raw=1", &gzBody)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Encoding", "gzip")
	req.Header.Set("Accept-Encoding", "gzip")
	tr := &http.Transport{DisableCompression: true}
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("gzip round-trip: status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Content-Encoding") != "gzip" {
		t.Fatalf("response Content-Encoding %q, want gzip", resp.Header.Get("Content-Encoding"))
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(decoded, plain) {
		t.Fatal("gzip-encoded artifact does not decode to the identity response")
	}
}

// TestClusterHealthRecovers: a peer marked down by a failed request comes
// back once probes see it again. Uses a short probe interval.
func TestClusterHealthRecovers(t *testing.T) {
	h := newHealth([]string{"a", "b"}, "", 10*time.Millisecond, func(peer string) bool { return true })
	defer h.Close()
	h.MarkDown("a")
	if h.Up("a") {
		t.Fatal("MarkDown did not take")
	}
	deadline := time.Now().Add(2 * time.Second)
	for !h.Up("a") {
		if time.Now().After(deadline) {
			t.Fatal("probe never recovered peer a")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Unknown peers are never tracked: the liveness map is bounded by the
	// configured membership.
	h.MarkUp("evil")
	if h.Up("evil") {
		t.Fatal("unknown peer entered the liveness map")
	}
}

// TestClusterCheckByAddress: a repeat /check through the front is served
// from the owner's stored report with the same reply, and the front's
// flight record for it (/debug/trace/<id>) carries the owner's X-Cache.
func TestClusterCheckByAddress(t *testing.T) {
	lc := launch(t, 3)
	mod, hash := hotModule(t)
	owner := lc.Front.Ring().Owner(hash)
	var replies [2][]byte
	for i, want := range []string{"miss", "hit"} {
		r, body := post(t, lc.FrontURL()+"/check", mod)
		if r.StatusCode != http.StatusOK || r.Header.Get("X-Cache") != want {
			t.Fatalf("check %d: status %d cache %q, want %s", i, r.StatusCode, r.Header.Get("X-Cache"), want)
		}
		if got := r.Header.Get("X-Cluster-Peer"); got != owner {
			t.Fatalf("check %d routed to %s, ring owner is %s", i, got, owner)
		}
		trace := r.Header.Get("X-Trace-Id")
		resp, err := http.Get(lc.FrontURL() + "/debug/trace/" + trace)
		if err != nil {
			t.Fatal(err)
		}
		var recs []obs.RequestRecord
		err = json.NewDecoder(resp.Body).Decode(&recs)
		resp.Body.Close()
		if err != nil || len(recs) != 1 || recs[0].Cache != want {
			t.Fatalf("front record for check %d: %+v (%v), want cache %s", i, recs, err, want)
		}
		replies[i] = body
	}
	var first, second struct {
		ModuleHash  string          `json:"module_hash"`
		Diagnostics json.RawMessage `json:"diagnostics"`
		Errors      int             `json:"errors"`
	}
	if json.Unmarshal(replies[0], &first) != nil || json.Unmarshal(replies[1], &second) != nil ||
		first.ModuleHash != hash || second.ModuleHash != hash ||
		!bytes.Equal(first.Diagnostics, second.Diagnostics) || first.Errors != second.Errors {
		t.Fatalf("stored reply differs from the fresh one:\n%s\n%s", replies[0], replies[1])
	}
}
