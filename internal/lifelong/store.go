// Package lifelong implements the paper's defining claim (§1, §4.1–4.2)
// as a running system: IR that persists across compile-, link-, run-, and
// idle-time. Its pieces are a content-addressed on-disk store for modules
// and their optimized artifacts, cross-run profile accumulation keyed by
// module hash, a cache-aware compile path, and an HTTP daemon
// (cmd/llvm-serve) whose idle-time reoptimizer turns accumulated end-user
// profiles into better artifacts while no requests are in flight — the
// offline reoptimizer of §3.6.
package lifelong

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/tooling"
)

// Store is the persistent, content-addressed module store. Modules are
// keyed by the SHA-256 of their canonical bytecode (bytecode.ModuleHash);
// optimized artifacts by (module hash, pipeline spec, profile epoch);
// accumulated profiles by module hash. All writes are atomic
// (temp-file-and-rename), every read re-verifies the blob's recorded
// digest so corruption is detected rather than decoded, and total blob
// size is bounded by an LRU cap — except profiles, which are tiny and
// irreplaceable (they encode end-user history no recompile can recover).
type Store struct {
	dir      string
	maxBytes int64

	// Tracer, when set, records cache hits, misses, and evictions as
	// instant events on the store track of the pipeline trace.
	Tracer *obs.Tracer

	mu  sync.Mutex
	idx *index

	// Counters are atomics so /stats can read them without the lock.
	moduleHits, moduleMisses     atomic.Uint64
	artifactHits, artifactMisses atomic.Uint64
	summaryHits, summaryMisses   atomic.Uint64
	evictions, corruptions       atomic.Uint64
	quarantines                  atomic.Uint64
}

// RegisterMetrics bridges the store's atomic counters and size gauges into
// reg under the llvm_store_* names, polled at scrape time so /stats (which
// reads the same atomics) and /metrics can never disagree.
func (s *Store) RegisterMetrics(reg *obs.Registry) {
	if s == nil || reg == nil {
		return
	}
	reg.CounterFunc("llvm_store_module_hits_total", func() float64 { return float64(s.moduleHits.Load()) })
	reg.CounterFunc("llvm_store_module_misses_total", func() float64 { return float64(s.moduleMisses.Load()) })
	reg.CounterFunc("llvm_store_artifact_hits_total", func() float64 { return float64(s.artifactHits.Load()) })
	reg.CounterFunc("llvm_store_artifact_misses_total", func() float64 { return float64(s.artifactMisses.Load()) })
	reg.CounterFunc("llvm_store_summary_hits_total", func() float64 { return float64(s.summaryHits.Load()) })
	reg.CounterFunc("llvm_store_summary_misses_total", func() float64 { return float64(s.summaryMisses.Load()) })
	reg.CounterFunc("llvm_store_evictions_total", func() float64 { return float64(s.evictions.Load()) })
	reg.CounterFunc("llvm_store_corruptions_total", func() float64 { return float64(s.corruptions.Load()) })
	reg.CounterFunc("llvm_store_quarantines_total", func() float64 { return float64(s.quarantines.Load()) })
	reg.GaugeFunc("llvm_store_bytes", func() float64 { return float64(s.Stats().Bytes) })
	reg.GaugeFunc("llvm_store_blobs", func() float64 {
		st := s.Stats()
		return float64(st.Modules + st.Artifacts + st.Profiles)
	})
}

// index is the store's bookkeeping sidecar (index.json): per-blob size,
// digest, and LRU recency. It is a cache of the blobs' own state — Open
// rebuilds it from the blobs when missing or corrupt.
type index struct {
	Clock   int64                  `json:"clock"`
	Entries map[string]*indexEntry `json:"entries"`
}

type indexEntry struct {
	Size int64  `json:"size"`
	SHA  string `json:"sha256"`
	Used int64  `json:"used"`
	// Spec records an artifact's pipeline spec for observability; empty
	// for modules and profiles.
	Spec string `json:"spec,omitempty"`
}

const (
	modulesDir   = "modules"
	artifactsDir = "artifacts"
	profilesDir  = "profiles"
	// summariesDir holds serialized whole-program points-to / mod/ref
	// summaries (internal/dsa encoding), keyed by module hash. They are a
	// pure cache over the module blob — evictable, rebuilt on demand — but
	// persisting them is what lets repeat /check calls and idle-time
	// analysis skip the bottom-up recomputation entirely.
	summariesDir = "summaries"
	// quarantineDir holds poisoned-artifact markers: artifacts the
	// translation-validation oracle confirmed miscompiled. Quarantine
	// blobs live outside the index — they are never served, never count
	// as cache hits, and never compete with real blobs for the LRU cap.
	quarantineDir = "quarantine"
	indexFile     = "index.json"
)

// DefaultMaxBytes caps the store at 256 MiB unless configured otherwise.
const DefaultMaxBytes = 256 << 20

// Open opens (creating if needed) a store rooted at dir. maxBytes bounds
// the total size of evictable blobs (0 = DefaultMaxBytes, negative =
// unlimited). A missing or corrupt index is rebuilt by re-hashing the
// blobs, so a crash between a blob write and its index write loses
// nothing but LRU recency.
func Open(dir string, maxBytes int64) (*Store, error) {
	if maxBytes == 0 {
		maxBytes = DefaultMaxBytes
	}
	for _, sub := range []string{modulesDir, artifactsDir, profilesDir, summariesDir, quarantineDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	s := &Store{dir: dir, maxBytes: maxBytes}
	if err := s.loadIndex(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) loadIndex() error {
	s.idx = &index{Entries: map[string]*indexEntry{}}
	data, err := os.ReadFile(filepath.Join(s.dir, indexFile))
	if err == nil {
		var idx index
		if json.Unmarshal(data, &idx) == nil && idx.Entries != nil {
			s.idx = &idx
		}
	}
	// Reconcile with the blobs actually on disk: drop entries whose blob
	// vanished, adopt blobs the index never heard of.
	seen := map[string]bool{}
	for _, sub := range []string{modulesDir, artifactsDir, profilesDir, summariesDir} {
		entries, err := os.ReadDir(filepath.Join(s.dir, sub))
		if err != nil {
			return err
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			rel := filepath.Join(sub, e.Name())
			seen[rel] = true
			if _, ok := s.idx.Entries[rel]; ok {
				continue
			}
			blob, err := os.ReadFile(filepath.Join(s.dir, rel))
			if err != nil {
				return err
			}
			s.idx.Entries[rel] = &indexEntry{
				Size: int64(len(blob)),
				SHA:  bytecode.HashBytes(blob),
				Used: s.idx.Clock,
			}
		}
	}
	for rel := range s.idx.Entries {
		if !seen[rel] {
			delete(s.idx.Entries, rel)
		}
	}
	return s.flushIndexLocked()
}

// flushIndexLocked persists the index atomically; callers hold mu (or are
// in single-threaded Open).
func (s *Store) flushIndexLocked() error {
	data, err := json.MarshalIndent(s.idx, "", "\t")
	if err != nil {
		return err
	}
	return tooling.AtomicWriteFile(filepath.Join(s.dir, indexFile), data, 0o644)
}

// touchLocked bumps a blob's LRU recency.
func (s *Store) touchLocked(rel string) {
	if e, ok := s.idx.Entries[rel]; ok {
		s.idx.Clock++
		e.Used = s.idx.Clock
	}
}

// putBlobLocked writes a blob atomically and records it in the index.
func (s *Store) putBlobLocked(rel, spec string, data []byte) error {
	if err := tooling.AtomicWriteFile(filepath.Join(s.dir, rel), data, 0o644); err != nil {
		return err
	}
	s.idx.Clock++
	s.idx.Entries[rel] = &indexEntry{
		Size: int64(len(data)),
		SHA:  bytecode.HashBytes(data),
		Used: s.idx.Clock,
		Spec: spec,
	}
	s.evictLocked()
	return s.flushIndexLocked()
}

// getBlobLocked reads a blob and verifies its digest. Corrupt blobs are
// deleted and reported as missing, so a bit-flipped artifact degrades to
// a recompile instead of serving garbage.
func (s *Store) getBlobLocked(rel string) ([]byte, bool) {
	e, ok := s.idx.Entries[rel]
	if !ok {
		return nil, false
	}
	data, err := os.ReadFile(filepath.Join(s.dir, rel))
	if err != nil || bytecode.HashBytes(data) != e.SHA {
		s.corruptions.Add(1)
		os.Remove(filepath.Join(s.dir, rel))
		delete(s.idx.Entries, rel)
		s.flushIndexLocked()
		return nil, false
	}
	s.touchLocked(rel)
	return data, true
}

// evictLocked removes least-recently-used evictable blobs (modules and
// artifacts; never profiles, never the index) until the cap is met.
func (s *Store) evictLocked() {
	if s.maxBytes < 0 {
		return
	}
	type cand struct {
		rel  string
		used int64
		size int64
	}
	for {
		var total int64
		var cands []cand
		for rel, e := range s.idx.Entries {
			if filepath.Dir(rel) == profilesDir {
				continue
			}
			total += e.Size
			cands = append(cands, cand{rel, e.Used, e.Size})
		}
		if total <= s.maxBytes || len(cands) == 0 {
			return
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].used < cands[j].used })
		victim := cands[0]
		os.Remove(filepath.Join(s.dir, victim.rel))
		delete(s.idx.Entries, victim.rel)
		s.evictions.Add(1)
		s.Tracer.Instant("evict", "store", 0, map[string]string{"blob": victim.rel})
	}
}

// ---------------------------------------------------------------------------
// Modules

func modulePath(hash string) string { return filepath.Join(modulesDir, hash+".bc") }

// PutModule stores a module under its content address, returning the hash
// and the canonical bytes (already present is not an error — the write is
// skipped and the entry's recency bumped in memory, like a read's; it
// reaches index.json with the next write's flush).
func (s *Store) PutModule(m *core.Module) (hash string, canonical []byte, err error) {
	canonical, err = bytecode.Encode(m)
	if err != nil {
		return "", nil, err
	}
	hash = bytecode.HashBytes(canonical)
	s.mu.Lock()
	defer s.mu.Unlock()
	rel := modulePath(hash)
	if _, ok := s.idx.Entries[rel]; ok {
		s.touchLocked(rel)
		return hash, canonical, nil
	}
	return hash, canonical, s.putBlobLocked(rel, "", canonical)
}

// GetModuleBytes returns a module's canonical bytecode by content address.
func (s *Store) GetModuleBytes(hash string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.getBlobLocked(modulePath(hash))
	if ok && bytecode.HashBytes(data) != hash {
		// Digest matched the index but not the address: the index itself
		// lied (e.g. rebuilt over a tampered blob). Same treatment.
		s.corruptions.Add(1)
		os.Remove(filepath.Join(s.dir, modulePath(hash)))
		delete(s.idx.Entries, modulePath(hash))
		s.flushIndexLocked()
		ok = false
	}
	if ok {
		s.moduleHits.Add(1)
	} else {
		s.moduleMisses.Add(1)
	}
	if s.Tracer != nil {
		s.Tracer.Instant("module-"+cacheWord(ok), "store", 0, map[string]string{"hash": shortHash(hash)})
	}
	return data, ok
}

// GetModule materializes a stored module through the hardened decoder.
func (s *Store) GetModule(hash string) (*core.Module, error) {
	data, ok := s.GetModuleBytes(hash)
	if !ok {
		return nil, fmt.Errorf("lifelong: module %s not in store", shortHash(hash))
	}
	return bytecode.Decode(data)
}

// ---------------------------------------------------------------------------
// Artifacts

// artifactPath keys an optimized artifact by (module hash, pipeline spec,
// profile epoch). The spec is folded to a digest so arbitrary pass lists
// stay filesystem-safe.
func artifactPath(modHash, spec string, epoch int64) string {
	specSum := bytecode.HashBytes([]byte(spec))[:16]
	return filepath.Join(artifactsDir, fmt.Sprintf("%s.%s.e%d.bc", modHash, specSum, epoch))
}

// PutArtifact stores optimized bytecode for (modHash, spec, epoch).
func (s *Store) PutArtifact(modHash, spec string, epoch int64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.putBlobLocked(artifactPath(modHash, spec, epoch), spec, data)
}

// HasArtifact reports whether an artifact exists, without touching LRU
// recency or the hit/miss counters — the idle reoptimizer's probe, which
// would otherwise skew the serving-path statistics every idle tick.
func (s *Store) HasArtifact(modHash, spec string, epoch int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.idx.Entries[artifactPath(modHash, spec, epoch)]
	return ok
}

// GetArtifact returns the optimized bytecode for (modHash, spec, epoch),
// verifying its digest; a corrupt artifact counts as a miss.
func (s *Store) GetArtifact(modHash, spec string, epoch int64) ([]byte, bool) {
	s.mu.Lock()
	data, ok := s.getBlobLocked(artifactPath(modHash, spec, epoch))
	s.mu.Unlock()
	if ok {
		s.artifactHits.Add(1)
	} else {
		s.artifactMisses.Add(1)
	}
	if s.Tracer != nil {
		s.Tracer.Instant("artifact-"+cacheWord(ok), "store", 0,
			map[string]string{"hash": shortHash(modHash), "epoch": fmt.Sprint(epoch)})
	}
	return data, ok
}

// ---------------------------------------------------------------------------
// Points-to summaries

func summaryPath(modHash string) string { return filepath.Join(summariesDir, modHash+".pts") }

// PutSummaries stores the serialized points-to / mod-ref summaries for the
// module at modHash (internal/dsa encoding). The blob is keyed purely by
// the module's content address: a changed module has a different hash, so
// stale summaries are structurally unreachable, and the dsa decoder
// additionally rejects any blob that does not describe the module it is
// bound to.
func (s *Store) PutSummaries(modHash string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.putBlobLocked(summaryPath(modHash), "", data)
}

// GetSummaries returns the serialized summaries for modHash, verifying the
// blob digest; corrupt blobs count as misses and are removed.
func (s *Store) GetSummaries(modHash string) ([]byte, bool) {
	s.mu.Lock()
	data, ok := s.getBlobLocked(summaryPath(modHash))
	s.mu.Unlock()
	if ok {
		s.summaryHits.Add(1)
	} else {
		s.summaryMisses.Add(1)
	}
	if s.Tracer != nil {
		s.Tracer.Instant("summary-"+cacheWord(ok), "store", 0, map[string]string{"hash": shortHash(modHash)})
	}
	return data, ok
}

// HasSummaries reports whether summaries exist for modHash without touching
// the LRU recency or hit/miss counters (the idle loop's probe).
func (s *Store) HasSummaries(modHash string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.idx.Entries[summaryPath(modHash)]
	return ok
}

// ---------------------------------------------------------------------------
// Quarantine

// quarantinePath mirrors artifactPath's key under quarantineDir with the
// .poisoned suffix; the blob next to it (.reason) records why.
func quarantinePath(modHash, spec string, epoch int64) string {
	base := filepath.Base(artifactPath(modHash, spec, epoch))
	return filepath.Join(quarantineDir, base+".poisoned")
}

// QuarantineArtifact records that the artifact for (modHash, spec, epoch)
// is a confirmed miscompile: the poisoned bytes are preserved for
// post-mortem debugging (as the .poisoned blob) together with the
// oracle's verdict (.reason), and any previously stored artifact under
// the same key is removed so the serving path can never hand it out. A
// quarantined key stays quarantined until the store directory is cleaned
// by hand — the reoptimizer skips it instead of rebuilding the same
// miscompile every idle tick.
func (s *Store) QuarantineArtifact(modHash, spec string, epoch int64, data []byte, reason string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rel := quarantinePath(modHash, spec, epoch)
	if err := tooling.AtomicWriteFile(filepath.Join(s.dir, rel), data, 0o644); err != nil {
		return err
	}
	if err := tooling.AtomicWriteFile(filepath.Join(s.dir, rel+".reason"), []byte(reason+"\n"), 0o644); err != nil {
		return err
	}
	// Evict any live artifact under the same key: quarantine wins.
	art := artifactPath(modHash, spec, epoch)
	if _, ok := s.idx.Entries[art]; ok {
		os.Remove(filepath.Join(s.dir, art))
		delete(s.idx.Entries, art)
		if err := s.flushIndexLocked(); err != nil {
			return err
		}
	}
	s.quarantines.Add(1)
	s.Tracer.Instant("quarantine", "store", 0, map[string]string{
		"hash": shortHash(modHash), "epoch": fmt.Sprint(epoch),
	})
	return nil
}

// IsQuarantined reports whether (modHash, spec, epoch) has been condemned.
func (s *Store) IsQuarantined(modHash, spec string, epoch int64) bool {
	_, err := os.Stat(filepath.Join(s.dir, quarantinePath(modHash, spec, epoch)))
	return err == nil
}

// QuarantineReason returns the recorded verdict for a quarantined key.
func (s *Store) QuarantineReason(modHash, spec string, epoch int64) (string, bool) {
	data, err := os.ReadFile(filepath.Join(s.dir, quarantinePath(modHash, spec, epoch)+".reason"))
	if err != nil {
		return "", false
	}
	return string(data), true
}

// ---------------------------------------------------------------------------
// Profiles

func profilePath(modHash string) string { return filepath.Join(profilesDir, modHash+".json") }

// MergeProfile accumulates a run's counts into the module's persistent
// profile and reports the resulting file plus whether the merge advanced
// the epoch (invalidating artifacts keyed to older epochs).
func (s *Store) MergeProfile(modHash string, c *profile.Counts) (*profile.File, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := &profile.File{}
	if data, ok := s.getBlobLocked(profilePath(modHash)); ok {
		if g, err := profile.DecodeFile(data); err == nil {
			f = g
		} else {
			s.corruptions.Add(1)
		}
	}
	bumped := f.Merge(c)
	data, err := profile.EncodeFile(f)
	if err != nil {
		return nil, false, err
	}
	if err := s.putBlobLocked(profilePath(modHash), "", data); err != nil {
		return nil, false, err
	}
	return f, bumped, nil
}

// GetProfile returns the accumulated profile for a module, if any.
func (s *Store) GetProfile(modHash string) (*profile.File, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.getBlobLocked(profilePath(modHash))
	if !ok {
		return nil, false
	}
	f, err := profile.DecodeFile(data)
	if err != nil {
		s.corruptions.Add(1)
		os.Remove(filepath.Join(s.dir, profilePath(modHash)))
		delete(s.idx.Entries, profilePath(modHash))
		s.flushIndexLocked()
		return nil, false
	}
	return f, true
}

// ProfileInfo summarizes one module's accumulated profile for the idle
// reoptimizer's hottest-first scheduling.
type ProfileInfo struct {
	ModHash string
	Epoch   int64
	Total   int64
}

// Profiles lists all accumulated profiles, hottest (largest total) first.
func (s *Store) Profiles() []ProfileInfo {
	s.mu.Lock()
	var rels []string
	for rel := range s.idx.Entries {
		if filepath.Dir(rel) == profilesDir {
			rels = append(rels, rel)
		}
	}
	s.mu.Unlock()
	var out []ProfileInfo
	for _, rel := range rels {
		hash := filepath.Base(rel)
		hash = hash[:len(hash)-len(".json")]
		if f, ok := s.GetProfile(hash); ok {
			out = append(out, ProfileInfo{ModHash: hash, Epoch: f.Epoch, Total: f.Counts.Total})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].ModHash < out[j].ModHash
	})
	return out
}

// ---------------------------------------------------------------------------
// Stats

// StoreStats is a point-in-time snapshot of the store for /stats and
// llvm-bench.
type StoreStats struct {
	Modules   int `json:"modules"`
	Artifacts int `json:"artifacts"`
	Profiles  int `json:"profiles"`
	// Summaries counts persisted points-to summary blobs.
	Summaries int `json:"summaries"`
	// Quarantined counts poisoned artifacts on disk (confirmed
	// miscompiles the serving path refuses to touch).
	Quarantined int   `json:"quarantined"`
	Bytes       int64 `json:"bytes"`
	MaxBytes    int64 `json:"max_bytes"`

	ModuleHits     uint64 `json:"module_hits"`
	ModuleMisses   uint64 `json:"module_misses"`
	ArtifactHits   uint64 `json:"artifact_hits"`
	ArtifactMisses uint64 `json:"artifact_misses"`
	SummaryHits    uint64 `json:"summary_hits"`
	SummaryMisses  uint64 `json:"summary_misses"`
	Evictions      uint64 `json:"evictions"`
	Corruptions    uint64 `json:"corruptions"`
}

// Stats snapshots the store's contents and counters.
func (s *Store) Stats() StoreStats {
	st := StoreStats{
		MaxBytes:       s.maxBytes,
		ModuleHits:     s.moduleHits.Load(),
		ModuleMisses:   s.moduleMisses.Load(),
		ArtifactHits:   s.artifactHits.Load(),
		ArtifactMisses: s.artifactMisses.Load(),
		SummaryHits:    s.summaryHits.Load(),
		SummaryMisses:  s.summaryMisses.Load(),
		Evictions:      s.evictions.Load(),
		Corruptions:    s.corruptions.Load(),
	}
	if entries, err := os.ReadDir(filepath.Join(s.dir, quarantineDir)); err == nil {
		for _, e := range entries {
			if !e.IsDir() && filepath.Ext(e.Name()) == ".poisoned" {
				st.Quarantined++
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for rel, e := range s.idx.Entries {
		st.Bytes += e.Size
		switch filepath.Dir(rel) {
		case modulesDir:
			st.Modules++
		case artifactsDir:
			st.Artifacts++
		case profilesDir:
			st.Profiles++
		case summariesDir:
			st.Summaries++
		}
	}
	return st
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
