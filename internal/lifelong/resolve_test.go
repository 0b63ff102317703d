package lifelong

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/obs"
	"repro/internal/tooling"
)

// TestResolve: known bodies come back as their own canonical form with no
// module, any other body is parsed, verified and encoded, and every result
// is addressed by the digest of its canonical bytes. A module that parses
// but does not verify and bytes that are no module are refused with the
// texts the 422 replies carry.
func TestResolve(t *testing.T) {
	text := hotModuleText(t)
	invalidText := []byte("void %main() {\nentry:\n\tret int 0\n}\n")
	inv, err := tooling.LoadModuleBytes("invalid", invalidText)
	if err != nil {
		t.Fatal(err)
	}
	invalidBytes, err := bytecode.Encode(inv)
	if err != nil {
		t.Fatal(err)
	}
	junk := append(append([]byte{}, bytecode.Magic[:]...), bytes.Repeat([]byte{0xff}, 64)...)
	canon := canonicalBytes(t, text)
	for _, tc := range []struct {
		name      string
		body      []byte
		canonical []byte // the resolved canonical bytes when not known
		errPrefix string // the refusal when not known
	}{
		{"text", text, canon, ""},
		{"canonical", canon, canon, ""},
		{"invalid", invalidText, nil, "module invalid: "},
		{"invalid bytecode", invalidBytes, nil, "module invalid: "},
		{"junk", junk, nil, "parsing module: "},
	} {
		for _, known := range []bool{true, false} {
			name := fmt.Sprintf("%s/known=%v", tc.name, known)
			var asked []string
			a, err := Resolve(tc.body, func(digest string) bool {
				asked = append(asked, digest)
				return known
			})
			if len(asked) != 1 || asked[0] != bytecode.HashBytes(tc.body) {
				t.Fatalf("%s: known asked about %d digests, want the body's own", name, len(asked))
			}
			wantErr, wantCanon := tc.errPrefix, tc.canonical
			if known {
				wantErr, wantCanon = "", tc.body
			}
			if wantErr != "" {
				if err == nil || !strings.HasPrefix(err.Error(), wantErr) {
					t.Fatalf("%s: error %v, want prefix %q", name, err, wantErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if a.Known != known || (a.Module == nil) != known {
				t.Fatalf("%s: Known %v, module %v; want Known %v and a module exactly when unknown",
					name, a.Known, a.Module != nil, known)
			}
			if a.Hash != bytecode.HashBytes(a.Canonical) || !bytes.Equal(a.Canonical, wantCanon) {
				t.Fatalf("%s: hash %.12s of %d canonical bytes; want the digest of the %d canonical bytes",
					name, a.Hash, len(a.Canonical), len(wantCanon))
			}
		}
	}
}

// TestRunRefusesModuleWithoutMain: Resolve refuses an empty body before it
// asks known about it, so /run answers 422 and the store keeps the blobs
// it had. A module that defines no main (none at all, or only declared)
// is a 422 from /run, not a 200 carrying the interpreter's trap.
func TestRunRefusesModuleWithoutMain(t *testing.T) {
	if _, err := Resolve(nil, func(string) bool {
		t.Fatal("known was asked about an empty body")
		return false
	}); err == nil || !strings.HasPrefix(err.Error(), "parsing module: ") {
		t.Fatalf("Resolve of an empty body: %v, want a parsing refusal", err)
	}
	s, ts := newTestServer(t, Config{DisableReopt: true})
	blobs := func() int {
		st := s.store.Stats()
		return st.Modules + st.Artifacts + st.Profiles + st.Summaries + st.Reports
	}
	before := blobs()
	if resp, data := post(t, ts.URL+"/run", nil); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("/run of an empty body: status %d (%s), want 422", resp.StatusCode, data)
	}
	if n := blobs(); n != before {
		t.Fatalf("/run of an empty body: store holds %d blobs, had %d", n, before)
	}
	for _, src := range []string{
		"int %helper() {\nentry:\n\tret int 1\n}\n",
		"declare int %main()\n",
	} {
		resp, data := post(t, ts.URL+"/run", []byte(src))
		if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(data), "no main") {
			t.Fatalf("/run of %q: status %d (%s), want a 422 naming the missing main", src, resp.StatusCode, data)
		}
	}
}

// TestAdmitRecordsRefusal: a body Admit refuses (422 for no valid module,
// 500 when learn fails) leaves its cause on the request's record, the way
// ReadPost's refusals do, so /debug/requests, /debug/trace/<id> and the
// access log show why.
func TestAdmitRecordsRefusal(t *testing.T) {
	junk := append(append([]byte{}, bytecode.Magic[:]...), bytes.Repeat([]byte{0xff}, 64)...)
	never := func(string) bool { return false }
	learnOK := func(string, []byte) error { return nil }
	learnFull := func(string, []byte) error { return errors.New("disk full") }
	for _, tc := range []struct {
		name      string
		body      []byte
		learn     func(string, []byte) error
		status    int
		errPrefix string
	}{
		{"invalid", []byte("void %main() {\nentry:\n\tret int 0\n}\n"), learnOK, http.StatusUnprocessableEntity, "module invalid: "},
		{"junk", junk, learnOK, http.StatusUnprocessableEntity, "parsing module: "},
		{"store fails", hotModuleText(t), learnFull, http.StatusInternalServerError, "storing module: disk full"},
	} {
		rec := &obs.RequestRecord{}
		r := httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(tc.body))
		r = r.WithContext(obs.ContextWithRecord(r.Context(), rec))
		w := httptest.NewRecorder()
		if _, ok := Admit(w, r, 1<<20, nil, nil, never, tc.learn); ok {
			t.Fatalf("%s: admitted", tc.name)
		}
		if w.Code != tc.status {
			t.Fatalf("%s: status %d, want %d", tc.name, w.Code, tc.status)
		}
		if !strings.HasPrefix(rec.Error, tc.errPrefix) {
			t.Fatalf("%s: recorded error %q, want prefix %q", tc.name, rec.Error, tc.errPrefix)
		}
		var reply struct{ Error string }
		if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil || reply.Error != rec.Error {
			t.Fatalf("%s: reply %q (%v) does not carry the recorded cause %q", tc.name, w.Body.String(), err, rec.Error)
		}
	}
}

// TestRunRecordsReadParse: a /run record carries the read-parse phase
// before execute, whether the body was parsed or known.
func TestRunRecordsReadParse(t *testing.T) {
	s, ts := newTestServer(t, Config{DisableReopt: true})
	text := hotModuleText(t)
	for _, body := range [][]byte{text, canonicalBytes(t, text)} {
		post(t, ts.URL+"/run?profile=0", body)
	}
	if n := knownBytes(s, "run"); n != 1 {
		t.Fatalf("known-bytes /run requests = %v, want 1", n)
	}
	runs := 0
	for _, rec := range s.Recorder().Snapshot() {
		if rec.Path != "/run" {
			continue
		}
		runs++
		var phases []string
		for _, p := range rec.Phases {
			phases = append(phases, p.Name)
		}
		if fmt.Sprint(phases) != "[read-parse execute]" {
			t.Fatalf("/run recorded phases %v, want [read-parse execute]", phases)
		}
	}
	if runs != 2 {
		t.Fatalf("%d /run records, want 2", runs)
	}
}
