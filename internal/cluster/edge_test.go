package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/lifelong"
	"repro/internal/obs"
)

// TestEdgeParity pins the HTTP edge every serving process shares: a
// standalone daemon, a cluster node and the front each serve the same
// /metrics and /debug surface over their own registry and recorder, bound
// unknown paths to one "other" label, and the two cluster roles answer
// /cluster/health and /cluster/peers as themselves.
func TestEdgeParity(t *testing.T) {
	st, err := lifelong.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := lifelong.NewServer(lifelong.Config{Store: st, DisableReopt: true})
	daemon := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { daemon.Close(); srv.Close() })
	lc := launch(t, 2)

	for _, p := range []struct {
		name, base, histogram string
		self, role            string // "" = not a cluster process
	}{
		{"daemon", daemon.URL, "llvm_serve_request_seconds", "", ""},
		{"node", "http://" + lc.Nodes[0].Self(), "llvm_serve_request_seconds", lc.Nodes[0].Self(), "node"},
		{"front", lc.FrontURL(), "llvm_front_request_seconds", "front", "front"},
	} {
		t.Run(p.name, func(t *testing.T) {
			get := func(path string) (*http.Response, []byte) {
				t.Helper()
				resp, err := http.Get(p.base + path)
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				return resp, body
			}
			otherCount := func() float64 {
				t.Helper()
				resp, body := get("/metrics")
				if resp.StatusCode != http.StatusOK || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
					t.Fatalf("/metrics: status %d, Content-Type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
				}
				text := string(body)
				if !strings.Contains(text, "# TYPE "+p.histogram+" histogram") {
					t.Fatalf("/metrics lacks the %s family:\n%s", p.histogram, text)
				}
				for _, leaked := range []string{`endpoint="/edge-a"`, `endpoint="/edge/b"`} {
					if strings.Contains(text, leaked) {
						t.Errorf("/metrics has a per-path series %s", leaked)
					}
				}
				var n float64
				fmt.Sscan(metricLine(text, p.histogram+`_count{endpoint="other"}`), &n)
				return n
			}

			// /metrics, and the request that scraped it is in the recorder
			// and in the request histogram the next scrape shows.
			resp, _ := get("/metrics")
			trace := resp.Header.Get(obs.HeaderTraceID)
			if trace == "" {
				t.Fatal("/metrics reply has no X-Trace-Id")
			}
			before := otherCount()

			var dbg map[string]json.RawMessage
			if resp, body := get("/debug/requests"); resp.StatusCode != http.StatusOK {
				t.Fatalf("/debug/requests: status %d", resp.StatusCode)
			} else if err := json.Unmarshal(body, &dbg); err != nil {
				t.Fatalf("/debug/requests: %v", err)
			}
			for _, key := range []string{"capacity", "total", "requests"} {
				if _, ok := dbg[key]; !ok {
					t.Errorf("/debug/requests lacks key %q: %s", key, keys(dbg))
				}
			}
			if len(dbg) != 3 {
				t.Errorf("/debug/requests keys = %s, want capacity, total, requests", keys(dbg))
			}

			resp, body := get("/debug/trace/" + trace)
			var recs []obs.RequestRecord
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("/debug/trace/%s: status %d: %s", trace, resp.StatusCode, body)
			}
			if err := json.Unmarshal(body, &recs); err != nil {
				t.Fatal(err)
			}
			if len(recs) != 1 || recs[0].TraceID != trace || recs[0].Endpoint != "/metrics" || recs[0].Status != http.StatusOK {
				t.Errorf("/debug/trace/%s = %+v, want the one /metrics request", trace, recs)
			}
			for path, want := range map[string]int{
				`/debug/trace/bad"id`:          http.StatusBadRequest,
				"/debug/trace/never-seen-here": http.StatusNotFound,
				"/debug/pprof/":                http.StatusNotFound,
			} {
				if resp, _ := get(path); resp.StatusCode != want {
					t.Errorf("%s: status %d, want %d", path, resp.StatusCode, want)
				}
			}

			// Four unknown paths: four more "other" requests, no new series.
			for _, path := range []string{"/edge-a", "/edge-a", "/edge/b", "/edge/b?x=1"} {
				get(path)
			}
			if got := otherCount() - before; got != 4 {
				t.Errorf(`endpoint="other" grew by %v over four unknown paths, want 4`, got)
			}

			if p.role == "" {
				return
			}
			var health, peers struct {
				Self string `json:"self"`
				Role string `json:"role"`
			}
			for path, out := range map[string]interface{}{"/cluster/health": &health, "/cluster/peers": &peers} {
				resp, body := get(path)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: status %d", path, resp.StatusCode)
				}
				if err := json.Unmarshal(body, out); err != nil {
					t.Fatalf("%s: %v", path, err)
				}
			}
			if health.Self != p.self || health.Role != p.role || peers.Self != p.self || peers.Role != p.role {
				t.Errorf("cluster view: health %+v, peers %+v; want self %q role %q", health, peers, p.self, p.role)
			}
		})
	}
}

// metricLine returns the value field of the sample named series in a
// Prometheus scrape, "" when absent.
func metricLine(text, series string) string {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, series+" ") {
			return strings.TrimPrefix(line, series+" ")
		}
	}
	return ""
}

func keys(m map[string]json.RawMessage) string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return fmt.Sprint(out)
}
