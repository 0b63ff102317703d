package lifelong

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/corpus"
)

// checkFields are the parts of a /check reply a stored report must repeat
// byte for byte: raw JSON, indentation included.
type checkFields struct {
	ModuleHash      json.RawMessage `json:"module_hash"`
	Diagnostics     json.RawMessage `json:"diagnostics"`
	Errors          json.RawMessage `json:"errors"`
	SummariesReused bool            `json:"summaries_reused"`
}

// postCheck posts body to /check and returns the reply's cache word and
// fields, failing unless the reply is a 200 JSON object.
func postCheck(t *testing.T, base string, body []byte) (string, checkFields) {
	t.Helper()
	resp, data := post(t, base+"/check", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/check status %d: %s", resp.StatusCode, data)
	}
	var f checkFields
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("/check reply is not JSON: %v: %.200s", err, data)
	}
	return resp.Header.Get("X-Cache"), f
}

// sameReport fails unless got repeats want's module_hash, diagnostics and
// errors byte for byte.
func sameReport(t *testing.T, what string, want, got checkFields) {
	t.Helper()
	if !bytes.Equal(want.ModuleHash, got.ModuleHash) || !bytes.Equal(want.Diagnostics, got.Diagnostics) ||
		!bytes.Equal(want.Errors, got.Errors) {
		t.Fatalf("%s: reply differs from a fresh check:\n  fresh: %s %s errors=%s\n  got:   %s %s errors=%s",
			what, want.ModuleHash, want.Diagnostics, want.Errors, got.ModuleHash, got.Diagnostics, got.Errors)
	}
}

// TestCheckReportParity: for every golden-corpus module (every workload
// program raw and link-time optimized, and every examples/ module, the
// bug_*.ll checker programs with their errors among them), a second /check
// of the canonical bytes is served from the stored report and repeats the
// fresh reply; so is a canonical-bytes /check after the module was first
// checked as assembly text.
func TestCheckReportParity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the whole workload suite")
	}
	mods, err := corpus.Golden("../..")
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{DisableReopt: true})
	errorsSeen := 0
	for _, cm := range mods {
		canon, err := bytecode.Encode(cm.M)
		if err != nil {
			t.Fatal(err)
		}
		c1, first := postCheck(t, ts.URL, canon)
		c2, second := postCheck(t, ts.URL, canon)
		if c1 != "miss" || c2 != "hit" {
			t.Fatalf("%s: X-Cache %q then %q, want miss then hit", cm.Name, c1, c2)
		}
		if !second.SummariesReused {
			t.Fatalf("%s: a stored report did not say summaries_reused", cm.Name)
		}
		sameReport(t, cm.Name, first, second)
		if string(first.Errors) != "0" {
			errorsSeen++
		}
	}
	if errorsSeen < 5 {
		t.Fatalf("only %d corpus modules have errors; the bug_*.ll programs are missing", errorsSeen)
	}
	if got := s.cReportHit.Value(); got != float64(len(mods)) {
		t.Fatalf("llvm_check_reports_total{result=hit} = %v, want %d", got, len(mods))
	}

	examples, err := corpus.Examples("../..")
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Config{DisableReopt: true})
	for _, cm := range examples {
		text, err := os.ReadFile(filepath.Join("..", "..", filepath.FromSlash(cm.Name)))
		if err != nil {
			t.Fatal(err)
		}
		c1, first := postCheck(t, ts2.URL, text)
		c2, second := postCheck(t, ts2.URL, canonicalBytes(t, text))
		if c1 != "miss" || c2 != "hit" {
			t.Fatalf("%s: text then bytes: X-Cache %q then %q, want miss then hit", cm.Name, c1, c2)
		}
		sameReport(t, cm.Name+" (text then bytes)", first, second)
	}
}

// checkerBug reads one examples/checker program, which has errors.
func checkerBug(t *testing.T) []byte {
	t.Helper()
	text, err := os.ReadFile("../../examples/checker/bug_double_free.ll")
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// TestCheckReportCorruptBlobs: a report blob that is gone, cut short,
// altered, planted from another module or kept from another checker
// version is never served. The next /check recomputes the right reply and
// overwrites the blob, so the one after is a hit again.
func TestCheckReportCorruptBlobs(t *testing.T) {
	bug := canonicalBytes(t, checkerBug(t))
	hash := bytecode.HashBytes(bug)
	clean := canonicalBytes(t, hotModuleText(t))
	cleanHash := bytecode.HashBytes(clean)
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, st *Store, path string)
	}{
		{"deleted", func(t *testing.T, st *Store, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated", func(t *testing.T, st *Store, path string) {
			if err := os.Truncate(path, 40); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flipped", func(t *testing.T, st *Store, path string) {
			flipLastDigit(t, path)
		}},
		// The store's own digest vouches for these three; the report's
		// header must refuse them.
		{"planted-from-another-module", func(t *testing.T, st *Store, path string) {
			other, ok := st.GetReport(cleanHash)
			if !ok {
				t.Fatal("no report for the clean module")
			}
			if err := st.PutReport(hash, other); err != nil {
				t.Fatal(err)
			}
		}},
		{"altered-then-stored", func(t *testing.T, st *Store, path string) {
			blob, _ := st.GetReport(hash)
			altered := bytes.Replace(blob, []byte(`"errors": 1`), []byte(`"errors": 0`), 1)
			if bytes.Equal(altered, blob) {
				t.Fatalf("no error count to alter in %s", blob)
			}
			blob = altered
			if err := st.PutReport(hash, blob); err != nil {
				t.Fatal(err)
			}
		}},
		{"other-checker-version", func(t *testing.T, st *Store, path string) {
			blob, _ := st.GetReport(hash)
			i := bytes.IndexByte(blob, '\n')
			reply := blob[i+1:]
			old := fmt.Sprintf("%s %s %s %q\n", reportMagic, hash, bytecode.HashBytes(reply), "0")
			if err := st.PutReport(hash, append([]byte(old), reply...)); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{DisableReopt: true})
			_, fresh := postCheck(t, ts.URL, bug)
			if string(fresh.Errors) == "0" {
				t.Fatal("the double free was not caught")
			}
			postCheck(t, ts.URL, clean)
			tc.damage(t, s.store, filepath.Join(s.store.Dir(), reportPath(hash)))
			c1, got := postCheck(t, ts.URL, bug)
			if c1 != "miss" {
				t.Fatalf("damaged report served: X-Cache %q", c1)
			}
			sameReport(t, "recomputed", fresh, got)
			c2, again := postCheck(t, ts.URL, bug)
			if c2 != "hit" {
				t.Fatalf("recomputed report not stored: X-Cache %q", c2)
			}
			sameReport(t, "after recompute", fresh, again)
		})
	}
}

// flipLastDigit changes the last decimal digit in a file (the errors count
// near the end of a stored reply), keeping it valid JSON.
func flipLastDigit(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := len(data) - 1; i >= 0; i-- {
		if data[i] >= '0' && data[i] <= '9' {
			data[i] = '0' + (data[i]-'0'+1)%10
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatal("no digit to flip")
}

// TestCheckReportEvicted: a report the LRU evicts costs a recompute, never
// a wrong reply. Evicting the report alone leaves the module blob, so the
// recompute takes the known-bytes path; evicting everything makes it
// intern the module again.
func TestCheckReportEvicted(t *testing.T) {
	s, ts := newTestServer(t, Config{DisableReopt: true})
	bug := canonicalBytes(t, checkerBug(t))
	hash := bytecode.HashBytes(bug)
	_, fresh := postCheck(t, ts.URL, bug)

	// Make the report the least recently used blob, then lower the cap by
	// one byte: the report alone goes.
	s.store.TouchModule(hash)
	s.store.GetSummaries(hash)
	st := s.store
	st.mu.Lock()
	max := st.maxBytes
	var total int64
	for _, e := range st.idx.Entries {
		total += e.Size
	}
	st.maxBytes = total - 1
	st.evictLocked()
	st.maxBytes = max
	st.mu.Unlock()
	if got := st.Stats(); got.Reports != 0 || got.Modules != 1 || got.Summaries != 1 {
		t.Fatalf("after evicting the report: %+v", got)
	}
	known := knownBytes(s, "check")
	c, got := postCheck(t, ts.URL, bug)
	if c != "miss" || !got.SummariesReused || knownBytes(s, "check") != known+1 {
		t.Fatalf("report evicted: X-Cache %q, summaries_reused %v, known-bytes %v -> %v",
			c, got.SummariesReused, known, knownBytes(s, "check"))
	}
	sameReport(t, "report evicted", fresh, got)

	evictAll(st)
	c, got = postCheck(t, ts.URL, bug)
	if c != "miss" {
		t.Fatalf("everything evicted: X-Cache %q", c)
	}
	sameReport(t, "everything evicted", fresh, got)
	if c, _ = postCheck(t, ts.URL, bug); c != "hit" {
		t.Fatalf("after the recompute: X-Cache %q, want hit", c)
	}
}

// TestCheckReportObservability: /check's cache disposition reaches the
// X-Cache header, the request record, llvm_check_reports_total, and
// /stats (known-bytes requests and the store's report count); a miss
// records its check phase.
func TestCheckReportObservability(t *testing.T) {
	s, ts := newTestServer(t, Config{DisableReopt: true})
	text := checkerBug(t)
	canon := canonicalBytes(t, text)
	for i, body := range [][]byte{text, canon, canon} {
		c, _ := postCheck(t, ts.URL, body)
		if want := cacheWord(i > 0); c != want {
			t.Fatalf("post %d: X-Cache %q, want %q", i, c, want)
		}
	}
	var caches, missPhases []string
	for _, rec := range s.Recorder().Snapshot() { // newest first
		if rec.Path != "/check" {
			continue
		}
		caches = append([]string{rec.Cache}, caches...)
		if rec.Cache == "miss" {
			for _, p := range rec.Phases {
				missPhases = append(missPhases, p.Name)
			}
		}
	}
	if strings.Join(caches, ",") != "miss,hit,hit" {
		t.Fatalf("recorded /check caches %v, want miss,hit,hit", caches)
	}
	if strings.Join(missPhases, ",") != "read-parse,check" {
		t.Fatalf("the miss recorded phases %v, want read-parse,check", missPhases)
	}
	var st statsResponse
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests.KnownBytes.Check != 2 || st.Store.Reports != 1 || st.Alias.SummariesReused != 2 {
		t.Fatalf("/stats: known_bytes.check %d, store.reports %d, summaries_reused %d; want 2, 1, 2",
			st.Requests.KnownBytes.Check, st.Store.Reports, st.Alias.SummariesReused)
	}
	out := scrape(t, ts.URL)
	for _, line := range []string{
		`llvm_check_reports_total{result="hit"} 2`,
		`llvm_check_reports_total{result="miss"} 1`,
		`llvm_serve_known_bytes_total{endpoint="check"} 2`,
		"llvm_store_blobs 3", // the module, its summaries and its report
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

// TestCheckReportConcurrent: concurrent /check requests of one module,
// some computing and storing its report while others read it, all get the
// same reply. Run with -race.
func TestCheckReportConcurrent(t *testing.T) {
	text := checkerBug(t)
	canon := canonicalBytes(t, text)
	_, fresh := newTestServer(t, Config{DisableReopt: true})
	_, want := postCheck(t, fresh.URL, text)
	_, ts := newTestServer(t, Config{DisableReopt: true, Workers: 4})
	replies := make([]checkFields, 8)
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := canon
			if i%2 == 0 {
				body = text
			}
			resp, err := http.Post(ts.URL+"/check", "application/octet-stream", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&replies[i]); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("check %d: status %d, %v", i, resp.StatusCode, err)
			}
		}(i)
	}
	wg.Wait()
	for i, got := range replies {
		sameReport(t, fmt.Sprintf("concurrent check %d", i), want, got)
	}
}
