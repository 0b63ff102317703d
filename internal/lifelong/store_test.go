package lifelong

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/asm"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/profile"
)

const storeSrc = `
int %double(int %x) {
entry:
	%y = add int %x, %x
	ret int %y
}

int %main() {
entry:
	%r = call int %double(int 21)
	ret int %r
}
`

func parse(t *testing.T, src string) *core.Module {
	t.Helper()
	m, err := asm.ParseModule("t", src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func openStore(t *testing.T, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreModuleRoundTrip(t *testing.T) {
	s := openStore(t, 0)
	m := parse(t, storeSrc)
	hash, canonical, err := s.PutModule(m)
	if err != nil {
		t.Fatal(err)
	}
	if hash != bytecode.HashBytes(canonical) {
		t.Fatal("PutModule hash does not address its canonical bytes")
	}
	data, ok := s.GetModuleBytes(hash)
	if !ok || string(data) != string(canonical) {
		t.Fatal("stored module bytes differ")
	}
	m2, err := s.GetModule(hash)
	if err != nil {
		t.Fatal(err)
	}
	if m.String() != m2.String() {
		t.Fatal("module changed through the store")
	}
	// Re-putting is idempotent.
	hash2, _, err := s.PutModule(m)
	if err != nil || hash2 != hash {
		t.Fatalf("re-put changed address: %v %s", err, hash2)
	}
	if st := s.Stats(); st.Modules != 1 {
		t.Fatalf("store holds %d modules, want 1", st.Modules)
	}
}

func TestStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := parse(t, storeSrc)
	hash, canonical, err := s.PutModule(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutArtifact(hash, "std", 0, canonical); err != nil {
		t.Fatal(err)
	}

	// Reopen with the index deleted: blobs must be rediscovered.
	if err := os.Remove(filepath.Join(dir, indexFile)); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.GetModuleBytes(hash); !ok {
		t.Fatal("module lost after index rebuild")
	}
	if _, ok := s2.GetArtifact(hash, "std", 0); !ok {
		t.Fatal("artifact lost after index rebuild")
	}
}

func TestStoreDetectsCorruption(t *testing.T) {
	s := openStore(t, 0)
	m := parse(t, storeSrc)
	hash, canonical, err := s.PutModule(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutArtifact(hash, "std", 0, canonical); err != nil {
		t.Fatal(err)
	}

	// Flip a byte in the artifact blob on disk.
	rel := artifactPath(hash, "std", 0)
	path := filepath.Join(s.Dir(), rel)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xFF
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetArtifact(hash, "std", 0); ok {
		t.Fatal("corrupt artifact served")
	}
	if st := s.Stats(); st.Corruptions == 0 {
		t.Fatal("corruption not counted")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt blob not removed")
	}
	// The module, untouched, still reads fine.
	if _, ok := s.GetModuleBytes(hash); !ok {
		t.Fatal("healthy module misreported")
	}

	// A module blob tampered on disk and adopted by an index rebuild is
	// recorded under its real digest, so its address no longer vouches
	// for it: TouchModule refuses it.
	if err := os.WriteFile(filepath.Join(s.Dir(), modulePath(hash)), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(s.Dir(), indexFile)); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(s.Dir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2.TouchModule(hash) {
		t.Fatal("TouchModule vouches for a tampered module blob")
	}
}

func TestStoreArtifactKeying(t *testing.T) {
	s := openStore(t, 0)
	hash := "deadbeef"
	if err := s.PutArtifact(hash, "std", 0, []byte("LLBC-std-e0")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutArtifact(hash, "std", 1, []byte("LLBC-std-e1")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutArtifact(hash, "linktime", 0, []byte("LLBC-lt-e0")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec  string
		epoch int64
		want  string
	}{{"std", 0, "LLBC-std-e0"}, {"std", 1, "LLBC-std-e1"}, {"linktime", 0, "LLBC-lt-e0"}} {
		data, ok := s.GetArtifact(hash, tc.spec, tc.epoch)
		if !ok || string(data) != tc.want {
			t.Fatalf("(%s,e%d) = %q, %v; want %q", tc.spec, tc.epoch, data, ok, tc.want)
		}
	}
	if _, ok := s.GetArtifact(hash, "std", 2); ok {
		t.Fatal("phantom epoch served")
	}
}

func TestStoreLRUEviction(t *testing.T) {
	// Cap small enough for two 1 KiB artifacts but not three.
	s := openStore(t, 2500)
	blob := make([]byte, 1024)
	if err := s.PutArtifact("aaaa", "std", 0, blob); err != nil {
		t.Fatal(err)
	}
	if err := s.PutArtifact("bbbb", "std", 0, blob); err != nil {
		t.Fatal(err)
	}
	// Touch aaaa so bbbb is the LRU victim when cccc arrives.
	if _, ok := s.GetArtifact("aaaa", "std", 0); !ok {
		t.Fatal("aaaa missing before eviction")
	}
	if err := s.PutArtifact("cccc", "std", 0, blob); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetArtifact("aaaa", "std", 0); !ok {
		t.Fatal("recently-used artifact evicted")
	}
	if _, ok := s.GetArtifact("bbbb", "std", 0); ok {
		t.Fatal("LRU artifact survived past the cap")
	}
	if _, ok := s.GetArtifact("cccc", "std", 0); !ok {
		t.Fatal("newest artifact evicted")
	}
	if st := s.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

// TestStoreKnownPutModuleKeepsIndexOffDisk: re-interning a module the store
// already holds — by PutModule, or by TouchModule for bytes known by their
// content address — bumps its recency in memory only — index.json is not
// rewritten — and the next eviction still honours that recency.
func TestStoreKnownPutModuleKeepsIndexOffDisk(t *testing.T) {
	m := parse(t, storeSrc)
	canonical, err := bytecode.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, reintern := range []string{"PutModule", "TouchModule"} {
		// Room for the module and one 1 KiB artifact, not two.
		s := openStore(t, int64(len(canonical))+1024+100)
		hash, _, err := s.PutModule(m)
		if err != nil {
			t.Fatal(err)
		}
		blob := make([]byte, 1024)
		if err := s.PutArtifact("aaaa", "std", 0, blob); err != nil {
			t.Fatal(err)
		}

		indexPath := filepath.Join(s.Dir(), indexFile)
		before, err := os.ReadFile(indexPath)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if reintern == "TouchModule" {
				if !s.TouchModule(hash) {
					t.Fatal("TouchModule does not know an interned module")
				}
			} else if h, _, err := s.PutModule(m); err != nil || h != hash {
				t.Fatalf("known PutModule: %s, %v", h, err)
			}
		}
		after, err := os.ReadFile(indexPath)
		if err != nil {
			t.Fatal(err)
		}
		if string(before) != string(after) {
			t.Fatalf("%s of a known module rewrote index.json", reintern)
		}

		// The module was put first but used last: the artifact is the victim.
		if err := s.PutArtifact("bbbb", "std", 0, blob); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.GetModuleBytes(hash); !ok {
			t.Fatalf("module re-interned by %s evicted: its in-memory recency was ignored", reintern)
		}
		if _, ok := s.GetArtifact("aaaa", "std", 0); ok {
			t.Fatal("LRU artifact survived past the cap")
		}
		// That write's flush carried the bumped recency to disk.
		flushed, err := os.ReadFile(indexPath)
		if err != nil {
			t.Fatal(err)
		}
		var idx index
		if err := json.Unmarshal(flushed, &idx); err != nil {
			t.Fatal(err)
		}
		if e := idx.Entries[modulePath(hash)]; e == nil || e.Used <= 2 {
			t.Fatalf("%s: module recency on disk after the next write: %+v", reintern, e)
		}
		if s.TouchModule("deadbeef") {
			t.Fatal("TouchModule knows a module never interned")
		}
	}
}

func TestStoreProfilesExemptFromEviction(t *testing.T) {
	s := openStore(t, 1500)
	c := &profile.Counts{Funcs: map[string][]int64{"main": {10, 5}}, Total: 15}
	if _, _, err := s.MergeProfile("aaaa", c); err != nil {
		t.Fatal(err)
	}
	// Blow past the cap with artifacts; the profile must survive.
	blob := make([]byte, 1024)
	if err := s.PutArtifact("aaaa", "std", 0, blob); err != nil {
		t.Fatal(err)
	}
	if err := s.PutArtifact("bbbb", "std", 0, blob); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetProfile("aaaa"); !ok {
		t.Fatal("profile evicted by size pressure")
	}
	if st := s.Stats(); st.Evictions == 0 {
		t.Fatal("expected artifact evictions under the cap")
	}
}

func TestStoreProfileAccumulationAndEpochs(t *testing.T) {
	s := openStore(t, 0)
	c := &profile.Counts{Funcs: map[string][]int64{"main": {100}}, Total: 100}
	f1, bumped, err := s.MergeProfile("aaaa", c)
	if err != nil || !bumped || f1.Epoch != 1 {
		t.Fatalf("first merge: %v bumped=%v epoch=%d", err, bumped, f1.Epoch)
	}
	f2, bumped, err := s.MergeProfile("aaaa", c)
	if err != nil || !bumped || f2.Epoch != 2 {
		t.Fatalf("second merge: %v bumped=%v epoch=%d", err, bumped, f2.Epoch)
	}
	f3, bumped, err := s.MergeProfile("aaaa", c)
	if err != nil || bumped || f3.Counts.Total != 300 {
		t.Fatalf("third merge: %v bumped=%v total=%d", err, bumped, f3.Counts.Total)
	}

	// Hottest-first listing.
	cHot := &profile.Counts{Funcs: map[string][]int64{"main": {100000}}, Total: 100000}
	if _, _, err := s.MergeProfile("bbbb", cHot); err != nil {
		t.Fatal(err)
	}
	infos := s.Profiles()
	if len(infos) != 2 || infos[0].ModHash != "bbbb" || infos[1].ModHash != "aaaa" {
		t.Fatalf("profiles not hottest-first: %+v", infos)
	}
}
