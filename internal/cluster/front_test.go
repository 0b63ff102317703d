package cluster

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/lifelong"
	"repro/internal/obs"
	"repro/internal/tooling"
)

// canonicalOf is the canonical bytecode of a module text: what the nodes
// store, and what a client that already sent the module once posts.
func canonicalOf(t *testing.T, text []byte) []byte {
	t.Helper()
	m, err := tooling.LoadModuleBytes("request", text)
	if err != nil {
		t.Fatal(err)
	}
	data, err := bytecode.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFrontRoutesKnownBytesByDigest: once the front has seen a module, its
// canonical bytes are routed by their own digest without a parse, whether
// the front learnt the module from those bytes or from assembly text, and
// they reach the same owner with the same reply the parsing path gave.
func TestFrontRoutesKnownBytesByDigest(t *testing.T) {
	lc := launch(t, 3)
	text, hash := hotModule(t)
	canon := canonicalOf(t, text)
	owner := lc.Front.Ring().Owner(hash)
	known := func(endpoint string) float64 {
		return lc.Front.Metrics().Counter("llvm_front_known_bytes_total", "endpoint", endpoint).Value()
	}

	_, want := post(t, lc.FrontURL()+"/compile?raw=1", text)
	for i, body := range [][]byte{canon, text, canon} {
		resp, got := post(t, lc.FrontURL()+"/compile?raw=1", body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
			t.Fatalf("post %d: status %d cache %q", i, resp.StatusCode, resp.Header.Get("X-Cache"))
		}
		if peer := resp.Header.Get("X-Cluster-Peer"); peer != owner {
			t.Fatalf("post %d: routed to %s, owner is %s", i, peer, owner)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("post %d: artifact differs from the parsing path's", i)
		}
	}
	// Text is parsed every time; only the two canonical posts were known.
	if n := known("compile"); n != 2 {
		t.Fatalf("known-bytes /compile requests = %v, want 2", n)
	}

	// One set serves every endpoint: /run of the known bytes replies as
	// /run of the text does.
	_, wantRun := post(t, lc.FrontURL()+"/run?profile=0", text)
	resp, gotRun := post(t, lc.FrontURL()+"/run?profile=0", canon)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(gotRun, wantRun) {
		t.Fatalf("/run of known bytes: status %d reply %s, want %s", resp.StatusCode, gotRun, wantRun)
	}
	if n := known("run"); n != 1 {
		t.Fatalf("known-bytes /run requests = %v, want 1", n)
	}
}

// TestFrontPassesReplyThrough: the front forwards the canonical bytes with
// no content coding, hands the peer the client's Accept-Encoding, and
// relays the peer's reply byte for byte. A gzip reply stays the peer's gzip
// stream (re-compressing at the front would change these bytes), and a
// client that asked for no coding is never sent one.
func TestFrontPassesReplyThrough(t *testing.T) {
	text, _ := hotModule(t)
	canon := canonicalOf(t, text)
	var gz bytes.Buffer
	zw, err := gzip.NewWriterLevel(&gz, gzip.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	zw.Name = "artifact"
	zw.Write(bytes.Repeat([]byte("artifact "), 64))
	zw.Close()

	type seen struct {
		acceptEncoding, contentEncoding string
		body                            []byte
	}
	var mu sync.Mutex
	var got []seen
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/cluster/health" {
			return
		}
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		got = append(got, seen{r.Header.Get("Accept-Encoding"), r.Header.Get("Content-Encoding"), body})
		mu.Unlock()
		w.Header().Set("X-Cache", "hit")
		if r.Header.Get("Accept-Encoding") == "gzip" {
			w.Header().Set("Content-Encoding", "gzip")
			w.Write(gz.Bytes())
			return
		}
		w.Write([]byte("identity"))
	}))
	defer peer.Close()
	f, err := NewFront(FrontConfig{Peers: []string{peer.Listener.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	front := httptest.NewServer(f.Handler())
	defer front.Close()

	tr := &http.Transport{DisableCompression: true}
	defer tr.CloseIdleConnections()
	for i, ae := range []string{"gzip", ""} {
		req, err := http.NewRequest(http.MethodPost, front.URL+"/compile?raw=1", bytes.NewReader(canon))
		if err != nil {
			t.Fatal(err)
		}
		if ae != "" {
			req.Header.Set("Accept-Encoding", ae)
		}
		resp, err := tr.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		want, wantCE := []byte("identity"), ""
		if ae == "gzip" {
			want, wantCE = gz.Bytes(), "gzip"
		}
		if ce := resp.Header.Get("Content-Encoding"); ce != wantCE || !bytes.Equal(body, want) {
			t.Fatalf("Accept-Encoding %q: reply Content-Encoding %q, %d bytes; want %q, the peer's %d bytes",
				ae, ce, len(body), wantCE, len(want))
		}
		mu.Lock()
		s := got[i]
		mu.Unlock()
		if s.acceptEncoding != ae || s.contentEncoding != "" || !bytes.Equal(s.body, canon) {
			t.Fatalf("Accept-Encoding %q: peer saw Accept-Encoding %q, Content-Encoding %q, canonical body %v",
				ae, s.acceptEncoding, s.contentEncoding, bytes.Equal(s.body, canon))
		}
	}
}

// TestFrontAddressKnownAllocs pins what the front pays to address known
// bytes: lifelong.Resolve against its known set takes one digest, with no
// parse, verify or encode. The parsing path allocates thousands of objects
// per module; the known path allocates only the hex digest.
func TestFrontAddressKnownAllocs(t *testing.T) {
	text, hash := hotModule(t)
	canon := canonicalOf(t, text)
	f, err := NewFront(FrontConfig{Peers: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	a, err := lifelong.Resolve(text, f.known.has)
	if err != nil || a.Hash != hash || a.Known || !bytes.Equal(a.Canonical, canon) {
		t.Fatalf("text: hash %.12s known %v err %v; want %.12s, unknown, canonical bytes", a.Hash, a.Known, err, hash)
	}
	f.known.learn(a.Hash, a.Canonical) // as lifelong.Admit does
	parseAllocs := testing.AllocsPerRun(5, func() { lifelong.Resolve(text, f.known.has) })
	knownAllocs := testing.AllocsPerRun(100, func() {
		if a, _ := lifelong.Resolve(canon, f.known.has); a.Hash != hash || !a.Known {
			t.Fatalf("canonical bytes: hash %.12s known %v", a.Hash, a.Known)
		}
	})
	if knownAllocs > 2 || parseAllocs < 100*knownAllocs {
		t.Fatalf("allocations per address: known bytes %v (want <= 2), parsed text %v", knownAllocs, parseAllocs)
	}
}

// TestFrontRejectsUnparsableBody: bytes that are no module are refused at
// the front with 422, never reach a peer, and are never remembered.
func TestFrontRejectsUnparsableBody(t *testing.T) {
	lc := launch(t, 2)
	junk := append(append([]byte{}, bytecode.Magic[:]...), bytes.Repeat([]byte{0xff}, 64)...)
	for i := 0; i < 2; i++ {
		resp, body := post(t, lc.FrontURL()+"/compile?raw=1", junk)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("post %d: status %d (%s), want 422", i, resp.StatusCode, body)
		}
	}
	m := lc.Front.Metrics()
	if n := m.Counter("llvm_front_known_bytes_total", "endpoint", "compile").Value(); n != 0 {
		t.Fatalf("unparsable bytes counted as known %v times", n)
	}
	for _, p := range lc.Front.Ring().Peers() {
		if n := m.Counter("llvm_front_peer_requests_total", "peer", p, "result", "ok").Value(); n != 0 {
			t.Fatalf("peer %s was sent %v unparsable bodies", p, n)
		}
	}
}

// TestFrontRejectsInvalidModule: a module that parses but does not verify
// is refused at the front with the node's 422 text, as text and as its
// bytecode, never reaches a peer, and never joins the known set, so a
// repost is parsed and refused again.
func TestFrontRejectsInvalidModule(t *testing.T) {
	lc := launch(t, 2)
	text := []byte("void %main() {\nentry:\n\tret int 0\n}\n")
	inv, err := tooling.LoadModuleBytes("invalid", text)
	if err != nil {
		t.Fatal(err)
	}
	invalidBytes, err := bytecode.Encode(inv)
	if err != nil {
		t.Fatal(err)
	}
	for i, body := range [][]byte{text, invalidBytes} {
		resp, reply := post(t, lc.FrontURL()+"/compile?raw=1", body)
		if resp.StatusCode != http.StatusUnprocessableEntity || !bytes.Contains(reply, []byte("module invalid:")) {
			t.Fatalf("post %d: status %d (%s), want 422 module invalid", i, resp.StatusCode, reply)
		}
	}
	m := lc.Front.Metrics()
	if n := m.Counter("llvm_front_known_bytes_total", "endpoint", "compile").Value(); n != 0 {
		t.Fatalf("invalid module counted as known %v times", n)
	}
	for _, p := range lc.Front.Ring().Peers() {
		if n := m.Counter("llvm_front_peer_requests_total", "peer", p, "result", "ok").Value(); n != 0 {
			t.Fatalf("peer %s was sent %v invalid modules", p, n)
		}
	}
}

// TestKnownSetStartsOverAtCap: the set never holds more than knownCap
// digests; the insert that would pass the cap starts a fresh set.
func TestKnownSetStartsOverAtCap(t *testing.T) {
	var k knownSet
	digest := func(i int) string { return bytecode.HashBytes([]byte{byte(i), byte(i >> 8)}) }
	for i := 0; i < knownCap; i++ {
		k.add(digest(i))
	}
	if !k.has(digest(0)) || !k.has(digest(knownCap-1)) {
		t.Fatal("a digest added below the cap was forgotten")
	}
	k.add(digest(knownCap))
	if k.has(digest(0)) || !k.has(digest(knownCap)) || len(k.set) != 1 {
		t.Fatalf("at the cap: %d digests kept, want only the newest", len(k.set))
	}
}

// TestFrontAbortsTruncatedReply: a peer reply that stops short of its
// declared length, is cut mid-stream, or outgrows the front's copy cap
// never reaches the client as a clean reply. The front's recorder keeps
// the error and the peer's error counter counts it.
func TestFrontAbortsTruncatedReply(t *testing.T) {
	text, _ := hotModule(t)
	canon := canonicalOf(t, text)
	const maxBody = 4096 // copy cap: 1.5 x maxBody + 1 KiB = 7168 bytes
	if len(canon) > maxBody {
		t.Fatalf("test module is %d bytes, over the %d-byte body cap", len(canon), maxBody)
	}
	for _, c := range []struct {
		name  string
		reply func(w http.ResponseWriter)
	}{
		{"short write", func(w http.ResponseWriter) {
			w.Header().Set("Content-Length", "1000")
			w.Write(bytes.Repeat([]byte("a"), 100))
		}},
		{"chunked cut", func(w http.ResponseWriter) {
			w.Write(bytes.Repeat([]byte("b"), 3000))
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}},
		{"over the cap", func(w http.ResponseWriter) {
			w.Write(bytes.Repeat([]byte("c"), 4*maxBody))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/cluster/health" {
					return
				}
				io.Copy(io.Discard, r.Body)
				c.reply(w)
			}))
			defer peer.Close()
			addr := peer.Listener.Addr().String()
			f, err := NewFront(FrontConfig{Peers: []string{addr}, MaxBody: maxBody})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			front := httptest.NewServer(f.Handler())
			defer front.Close()

			resp, err := http.Post(front.URL+"/compile?raw=1", "application/octet-stream", bytes.NewReader(canon))
			if err == nil {
				var body []byte
				body, err = io.ReadAll(resp.Body)
				resp.Body.Close()
				if err == nil {
					t.Fatalf("client read a clean %d reply of %d bytes", resp.StatusCode, len(body))
				}
			}

			var dbg struct {
				Requests []obs.RequestRecord `json:"requests"`
			}
			dresp, err := http.Get(front.URL + "/debug/requests")
			if err != nil {
				t.Fatal(err)
			}
			err = json.NewDecoder(dresp.Body).Decode(&dbg)
			dresp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			var rec *obs.RequestRecord
			for i := range dbg.Requests {
				if dbg.Requests[i].Endpoint == "/compile" {
					rec = &dbg.Requests[i]
				}
			}
			if rec == nil || rec.Error == "" {
				t.Fatalf("front recorded the cut reply as %+v, want an error", rec)
			}
			if n := f.Metrics().Counter("llvm_front_peer_requests_total", "peer", addr, "result", "error").Value(); n != 1 {
				t.Fatalf("peer errors = %v, want 1", n)
			}
		})
	}
}
