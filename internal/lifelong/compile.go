package lifelong

import (
	"context"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/dsa"
	"repro/internal/obs"
	"repro/internal/passes"
	"repro/internal/tooling"
)

// CompileResult describes one compile served through the store.
type CompileResult struct {
	// ModuleHash is the content address of the input's canonical bytecode.
	ModuleHash string `json:"module_hash"`
	// Spec is the pipeline spec the artifact is keyed by.
	Spec string `json:"pipeline"`
	// Hit reports the artifact came from the cache with zero pass work.
	Hit bool `json:"cache_hit"`
	// ArtifactEpoch is the profile epoch the served artifact was built
	// against (0 = plain pipeline output, no profile).
	ArtifactEpoch int64 `json:"artifact_epoch"`
	// ProfileEpoch is the module's current accumulated-profile epoch.
	ProfileEpoch int64 `json:"profile_epoch"`
	// Reoptimized reports the artifact was built by the profile-guided
	// reoptimizer rather than the plain pipeline.
	Reoptimized bool `json:"reoptimized"`
	// RemoteHit reports the artifact was fetched through from the cluster
	// peer owning this module's hash range rather than found locally or
	// compiled here (Hit is also true: no pass work happened on this node).
	RemoteHit bool `json:"remote_hit,omitempty"`
	// Stale reports the profile has advanced past the served artifact; the
	// idle reoptimizer will close the gap.
	Stale bool `json:"stale"`
	// Data is the optimized bytecode.
	Data []byte `json:"-"`
}

// RemoteFetch asks the cluster peer owning modHash's ring range for its
// best artifact under (modHash, spec). It returns the artifact bytes and
// the profile epoch they were built against, or ok=false on any miss,
// unhealthy owner, or transport failure — the caller then compiles
// locally (fail-open: a peer outage costs latency, never availability).
// ctx carries the request's trace context (obs.SpanFromContext) for
// header propagation and its flight-recorder record for hop annotation.
type RemoteFetch func(ctx context.Context, modHash, spec string) (data []byte, epoch int64, ok bool)

// CompileOpts threads observability into a store-backed compile: the
// tracer records a span for the whole compile plus the pipeline's per-pass
// spans on miss, and the registry receives the pass pipeline's metrics.
// Remote, when set, is consulted between the local cache probe and the
// pipeline (cluster fetch-through). Ctx and Parent attach the compile to
// a distributed trace: the compile span parents under Parent (the serving
// request's span), and Ctx — which must carry the same span context —
// flows to the remote fetch so the cross-node hop stays in the tree.
type CompileOpts struct {
	Ctx     context.Context
	Parent  obs.SpanContext
	Tracer  *obs.Tracer
	Metrics *obs.Registry
	Remote  RemoteFetch
}

// CacheWord renders the result's cache disposition for the X-Cache header
// and trace spans: "hit" (local), "remote" (peer fetch-through), "miss".
func (r *CompileResult) CacheWord() string {
	switch {
	case r.RemoteHit:
		return "remote"
	case r.Hit:
		return "hit"
	}
	return "miss"
}

// Compile optimizes m through the store: the module is interned at its
// content address, and the artifact for (hash, spec, epoch) is served
// from cache when present — preferring the artifact built against the
// current profile epoch, falling back to the unprofiled epoch-0 artifact
// (marked stale) — or compiled via the pass pipeline on miss and stored.
// The caller's module is never mutated: on miss the pipeline runs on a
// private decode of the canonical bytes.
func Compile(st *Store, m *core.Module, spec string) (*CompileResult, error) {
	return CompileWith(st, m, spec, CompileOpts{})
}

// CompileWith is Compile with observability attached.
func CompileWith(st *Store, m *core.Module, spec string, opts CompileOpts) (*CompileResult, error) {
	hash, canonical, err := st.PutModule(m)
	if err != nil {
		return nil, err
	}
	return compileCanonical(st, hash, canonical, spec, opts)
}

// compileCanonical is Compile for a module already interned in st:
// canonical is its canonical bytecode and hash their content address. The
// bytes are decoded and verified only on an artifact miss, before the
// pipeline runs on that private copy.
func compileCanonical(st *Store, hash string, canonical []byte, spec string, opts CompileOpts) (res *CompileResult, err error) {
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Tracer != nil {
		// The compile span parents under the serving request's span, so in a
		// merged cluster trace the owner's /compile request span contains
		// this compile, which contains the pass manager's per-pass spans.
		sp := opts.Tracer.StartSpan("compile", "lifelong", 0, opts.Parent)
		if sc := sp.Context(); sc.Trace != "" {
			ctx = obs.ContextWithSpan(ctx, sc)
		}
		defer func() {
			args := map[string]string{"pipeline": spec}
			if res != nil {
				args["hash"] = shortHash(res.ModuleHash)
				args["cache"] = res.CacheWord()
			}
			sp.EndArgs(args)
		}()
	}
	res = &CompileResult{ModuleHash: hash, Spec: spec}
	if f, ok := st.GetProfile(hash); ok {
		res.ProfileEpoch = f.Epoch
	}

	// Prefer the artifact matching the current profile epoch.
	if res.ProfileEpoch > 0 {
		if data, ok := st.GetArtifact(hash, spec, res.ProfileEpoch); ok {
			res.Hit = true
			res.ArtifactEpoch = res.ProfileEpoch
			res.Reoptimized = true
			res.Data = data
			return res, nil
		}
	}
	if data, ok := st.GetArtifact(hash, spec, 0); ok {
		res.Hit = true
		res.Stale = res.ProfileEpoch > 0
		res.Data = data
		return res, nil
	}

	// Local miss: fetch through from the cluster peer owning this hash
	// range before spending pass work. The fetched bytes are cached
	// locally at the epoch the owner reported, so repeat requests at this
	// node stay local as long as its profile view agrees.
	if opts.Remote != nil {
		t0 := time.Now()
		if data, epoch, ok := opts.Remote(ctx, hash, spec); ok {
			obs.RecordFromContext(ctx).AddPhase("fetch-through", time.Since(t0))
			if err := st.PutArtifact(hash, spec, epoch, data); err != nil {
				return nil, err
			}
			res.Hit = true
			res.RemoteHit = true
			res.ArtifactEpoch = epoch
			res.Reoptimized = epoch > 0
			res.Data = data
			return res, nil
		}
	}

	// Miss: run the pipeline on a private copy and store the result.
	opts.Metrics.Counter("llvm_lifelong_compiles_total").Inc()
	work, err := bytecode.Decode(canonical)
	if err != nil {
		return nil, fmt.Errorf("lifelong: re-decoding %s: %w", shortHash(hash), err)
	}
	if err := core.Verify(work); err != nil {
		return nil, fmt.Errorf("lifelong: module %s: %w", shortHash(hash), err)
	}
	pm := passes.NewPassManager()
	pm.Tracer = opts.Tracer
	pm.Metrics = opts.Metrics
	if err := tooling.AddPipelineSpec(pm, spec); err != nil {
		return nil, err
	}
	// Seed the pipeline's analysis cache with persisted points-to summaries
	// for this content address, when present: sound because `work` is a
	// fresh decode of exactly the canonical bytes the blob was computed
	// against, and the first transforming pass that does not preserve
	// dsa.Key invalidates the seed like any cached analysis.
	if data, ok := st.GetSummaries(hash); ok {
		if pt, derr := dsa.Decode(data, work); derr == nil {
			pm.AM = analysis.NewManager()
			pm.AM.ModuleExt(dsa.Key, work, func(*core.Module) interface{} { return pt })
		}
	}
	if _, err := pm.Run(work); err != nil {
		return nil, fmt.Errorf("lifelong: pipeline %q on %s: %w", spec, shortHash(hash), err)
	}
	if err := core.Verify(work); err != nil {
		return nil, fmt.Errorf("lifelong: pipeline %q corrupted %s: %w", spec, shortHash(hash), err)
	}
	data, err := bytecode.Encode(work)
	if err != nil {
		return nil, err
	}
	if err := st.PutArtifact(hash, spec, 0, data); err != nil {
		return nil, err
	}
	res.Stale = res.ProfileEpoch > 0
	res.Data = data
	return res, nil
}
