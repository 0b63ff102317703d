package lifelong

// progCache keeps the daemon's hot modules resident together with their
// shared interp.Program translation caches, keyed by module hash. A
// Program's translations are bound to one module object (constant
// resolution bakes that object's deterministic layout), so the cache must
// hand every /run of the same bytes the same module object — repeated
// requests then reuse tier-1/tier-2 translations instead of retranslating
// per machine, and the Program's reuse counters prove it.

import (
	"sync"

	"repro/internal/core"
	"repro/internal/interp"
)

const defaultProgCacheSize = 32

type progEntry struct {
	mod  *core.Module
	prog *interp.Program
}

type progCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*progEntry
	order   []string // LRU order, most recently used last
}

func newProgCache(cap int) *progCache {
	if cap <= 0 {
		cap = defaultProgCacheSize
	}
	return &progCache{cap: cap, entries: map[string]*progEntry{}}
}

// fetch returns the resident module and translation cache for hash. On a
// miss it adopts m, the freshly parsed request module, or returns nils
// when m is nil.
func (c *progCache) fetch(hash string, m *core.Module) (*core.Module, *interp.Program) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[hash]; ok {
		c.touch(hash)
		return e.mod, e.prog
	}
	if m == nil {
		return nil, nil
	}
	e := &progEntry{mod: m, prog: interp.NewProgram(m)}
	c.entries[hash] = e
	c.order = append(c.order, hash)
	if len(c.order) > c.cap {
		evict := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, evict)
	}
	return e.mod, e.prog
}

func (c *progCache) touch(hash string) {
	for i, h := range c.order {
		if h == hash {
			c.order = append(append(c.order[:i:i], c.order[i+1:]...), hash)
			return
		}
	}
}

// stats sums translation traffic across every resident program.
func (c *progCache) stats() (interp.ProgramStats, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var agg interp.ProgramStats
	for _, e := range c.entries {
		st := e.prog.Stats()
		agg.T1Compiles += st.T1Compiles
		agg.T1Reused += st.T1Reused
		agg.T2Compiles += st.T2Compiles
		agg.T2Reused += st.T2Reused
	}
	return agg, len(c.entries)
}
