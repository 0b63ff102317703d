package analysis

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// ModuleKey identifies an extension module-level analysis cached by the
// Manager on behalf of a package outside internal/analysis (the static
// checker's interprocedural summaries, DSA results, ...). Like the
// built-in module analyses, its cached result holds while the module's
// version is unchanged.
type ModuleKey struct{ name string }

// NewModuleKey registers a new extension analysis. Keys are created once
// per analysis at package init.
func NewModuleKey(name string) *ModuleKey { return &ModuleKey{name: name} }

// Name returns the analysis name the key was registered with.
func (k *ModuleKey) Name() string { return k.name }

// Stats is a snapshot of the manager's cache counters.
type Stats struct {
	Hits          uint64 // analysis requests served from cache
	Misses        uint64 // requests that computed the analysis
	Invalidations uint64 // cached analyses dropped: their IR changed or left the module
}

// funcEntry caches the per-function analyses, all computed at CFG stamp
// cfg. Its mutex serializes compute for one function while letting
// different functions compute concurrently; the parallel pass scheduler
// gives each function to exactly one worker, so the per-entry lock is
// uncontended in practice.
type funcEntry struct {
	mu  sync.Mutex
	cfg uint64
	dt  *DomTree
	df  DomFrontier
	li  *LoopInfo
}

// Manager caches analyses across passes: DomTree/DomFrontier/LoopInfo per
// function, CallGraph/ModRef and extension analyses per module. Passes
// fetch analyses through it instead of constructing them. A cached result
// is served only while the IR it describes is unchanged, which core
// records as it is edited:
//   - A function's analyses hold while its CFG stamp is unchanged; every
//     lookup checks it. Only the goroutine editing a function reads its
//     stamp, so the check is safe inside a parallel function pass.
//   - Module analyses hold while the module's version is unchanged. Prune
//     checks it, at pass boundaries: the version sums every function's
//     body stamp, so it must not be read while workers edit functions.
//     A pass that edits the module and then asks again is served the
//     result from before its edits.
//
// All methods are safe for concurrent use, and all are safe on a nil
// *Manager: a nil manager computes every analysis fresh and caches nothing,
// which is how passes behave when called directly (outside a PassManager)
// or when caching is disabled for ablation.
type Manager struct {
	mu    sync.Mutex
	funcs map[*core.Function]*funcEntry

	// mod and version are the module and its version at the last Prune.
	mod      *core.Module
	version  uint64
	cgModule *core.Module
	cg       *CallGraph
	mrModule *core.Module
	modref   map[*core.Function]*ModRefInfo
	ext      map[*ModuleKey]*extEntry

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
}

// NewManager returns an empty analysis cache.
func NewManager() *Manager {
	return &Manager{funcs: map[*core.Function]*funcEntry{}}
}

// Stats returns a snapshot of the cache counters.
func (am *Manager) Stats() Stats {
	if am == nil {
		return Stats{}
	}
	return Stats{
		Hits:          am.hits.Load(),
		Misses:        am.misses.Load(),
		Invalidations: am.invalidations.Load(),
	}
}

// extEntry caches one extension analysis's result. Like funcEntry, its
// mutex serializes compute per key while letting different analyses (and
// the built-in ones) proceed concurrently.
type extEntry struct {
	mu  sync.Mutex
	mod *core.Module
	val interface{}
}

// ModuleExt returns the cached result of the extension analysis key for m,
// calling compute on a miss (or on a cached result for a different module —
// the pass manager runs isolated passes against scratch clones). On a nil
// manager it computes fresh and caches nothing.
func (am *Manager) ModuleExt(key *ModuleKey, m *core.Module, compute func(*core.Module) interface{}) interface{} {
	if am == nil {
		return compute(m)
	}
	am.mu.Lock()
	if am.ext == nil {
		am.ext = map[*ModuleKey]*extEntry{}
	}
	e := am.ext[key]
	if e == nil {
		e = &extEntry{}
		am.ext[key] = e
	}
	am.mu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.val != nil && e.mod == m {
		am.hits.Add(1)
		return e.val
	}
	am.misses.Add(1)
	e.val = compute(m)
	e.mod = m
	return e.val
}

// entry returns f's cache slot, creating it if needed, locked and
// emptied of analyses computed at an older CFG stamp.
func (am *Manager) entry(f *core.Function) *funcEntry {
	am.mu.Lock()
	e := am.funcs[f]
	if e == nil {
		e = &funcEntry{cfg: f.CFGStamp()}
		am.funcs[f] = e
	}
	am.mu.Unlock()
	e.mu.Lock()
	if s := f.CFGStamp(); e.cfg != s {
		am.invalidations.Add(held(e.dt != nil, e.df != nil, e.li != nil))
		e.cfg, e.dt, e.df, e.li = s, nil, nil, nil
	}
	return e
}

// held counts the set flags: the cached results a drop discards.
func held(flags ...bool) uint64 {
	n := uint64(0)
	for _, f := range flags {
		if f {
			n++
		}
	}
	return n
}

// DomTree returns f's dominator tree, computing and caching it on a miss.
func (am *Manager) DomTree(f *core.Function) *DomTree {
	if am == nil {
		return NewDomTree(f)
	}
	e := am.entry(f)
	defer e.mu.Unlock()
	return am.domTreeLocked(e, f)
}

// domTreeLocked fills e.dt under e.mu, counting the hit or miss.
func (am *Manager) domTreeLocked(e *funcEntry, f *core.Function) *DomTree {
	if e.dt != nil {
		am.hits.Add(1)
		return e.dt
	}
	am.misses.Add(1)
	e.dt = NewDomTree(f)
	return e.dt
}

// DomFrontier returns f's dominance frontier, computing the dominator tree
// first if it is not cached either.
func (am *Manager) DomFrontier(f *core.Function) DomFrontier {
	if am == nil {
		return NewDomFrontier(NewDomTree(f))
	}
	e := am.entry(f)
	defer e.mu.Unlock()
	if e.df != nil {
		am.hits.Add(1)
		return e.df
	}
	am.misses.Add(1)
	e.df = NewDomFrontier(am.domTreeLocked(e, f))
	return e.df
}

// LoopInfo returns f's natural-loop nest, computing the dominator tree first
// if it is not cached either.
func (am *Manager) LoopInfo(f *core.Function) *LoopInfo {
	if am == nil {
		return NewLoopInfo(f, NewDomTree(f))
	}
	e := am.entry(f)
	defer e.mu.Unlock()
	if e.li != nil {
		am.hits.Add(1)
		return e.li
	}
	am.misses.Add(1)
	e.li = NewLoopInfo(f, am.domTreeLocked(e, f))
	return e.li
}

// CallGraph returns m's call graph, computing and caching it on a miss.
// A cached graph for a different module is replaced (the pass manager runs
// isolated passes against scratch clones).
func (am *Manager) CallGraph(m *core.Module) *CallGraph {
	if am == nil {
		return NewCallGraph(m)
	}
	am.mu.Lock()
	defer am.mu.Unlock()
	if am.cg != nil && am.cgModule == m {
		am.hits.Add(1)
		return am.cg
	}
	am.misses.Add(1)
	am.cg = NewCallGraph(m)
	am.cgModule = m
	return am.cg
}

// ModRef returns m's interprocedural mod/ref summaries, reusing the cached
// call graph when valid.
func (am *Manager) ModRef(m *core.Module) map[*core.Function]*ModRefInfo {
	if am == nil {
		return ModRef(m, NewCallGraph(m))
	}
	am.mu.Lock()
	if am.modref != nil && am.mrModule == m {
		am.hits.Add(1)
		mr := am.modref
		am.mu.Unlock()
		return mr
	}
	am.mu.Unlock()
	cg := am.CallGraph(m)
	mr := ModRef(m, cg)
	am.mu.Lock()
	am.misses.Add(1)
	am.modref = mr
	am.mrModule = m
	am.mu.Unlock()
	return mr
}

// Prune drops the cached analyses that no longer describe m: those of
// functions no longer in m (deleted by IPO, or originals replaced when the
// pass manager commits a scratch clone), module analyses of another
// module, and every module analysis of m once m's version has moved since
// the previous Prune of m. The first Prune of m records its version, so
// results cached for m before it (a seed a caller installed) are taken to
// describe m as it is then. The pass manager calls Prune before and after
// each pass, when no worker is editing m.
func (am *Manager) Prune(m *core.Module) {
	if am == nil {
		return
	}
	v := m.Version()
	am.mu.Lock()
	for f := range am.funcs {
		if f.Parent() != m {
			delete(am.funcs, f)
			am.invalidations.Add(1)
		}
	}
	moved := am.mod == m && am.version != v
	am.mod, am.version = m, v
	if am.cg != nil && (moved || am.cgModule != m) {
		am.cg = nil
		am.cgModule = nil
		am.invalidations.Add(1)
	}
	if am.modref != nil && (moved || am.mrModule != m) {
		am.modref = nil
		am.mrModule = nil
		am.invalidations.Add(1)
	}
	var exts []*extEntry
	for _, e := range am.ext {
		exts = append(exts, e)
	}
	am.mu.Unlock()
	for _, e := range exts {
		e.mu.Lock()
		if e.val != nil && (moved || e.mod != m) {
			e.val = nil
			e.mod = nil
			am.invalidations.Add(1)
		}
		e.mu.Unlock()
	}
}
