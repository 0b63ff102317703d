package interp

// Program is a shareable per-module translation cache. A Machine owns
// per-run state (memory, counters); translations are pure functions of
// the module and the deterministic NewMachine layout (function
// descriptors in module order, then globals in order), so every machine
// executing the same module object resolves identical constant bits and
// can share one translation per (module, function). llvm-serve attaches a
// Program to each /run machine so repeated requests for a cached module
// never retranslate — the Reused counters prove it — and start every
// function at the tier the requests before them had reached.

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/obs"
)

// Program caches tier-1 and tier-2 translations per function for one
// module, and keeps TierAuto's hotness where every machine for the module
// sees it. Safe for concurrent use by machines on different goroutines.
type Program struct {
	mod *core.Module
	mu  sync.Mutex
	t1  map[*core.Function]*jitFunc
	t2  map[*core.Function]*codegen.EFunction
	// t2p is the profiling variant (block-entry ECount instructions);
	// profiling and non-profiling machines sharing one Program each get
	// the code shape they need without invalidating the other's.
	t2p map[*core.Function]*codegen.EFunction
	// heat is what TierAuto machines have learned about each function.
	heat map[*core.Function]*funcHeat

	t1Compiles atomic.Int64
	t1Reused   atomic.Int64
	t2Compiles atomic.Int64
	t2Reused   atomic.Int64
}

// NewProgram creates an empty translation cache for m.
func NewProgram(m *core.Module) *Program {
	return &Program{
		mod:  m,
		t1:   map[*core.Function]*jitFunc{},
		t2:   map[*core.Function]*codegen.EFunction{},
		t2p:  map[*core.Function]*codegen.EFunction{},
		heat: map[*core.Function]*funcHeat{},
	}
}

// funcHeat is one function's hotness on the Program: the calls and ticks
// TierAuto machines folded in at the end of their runs, whether one of
// them promoted it (sticky), and whether its CFG has a loop.
type funcHeat struct {
	calls, ticks int64
	hot, loop    bool
}

// heatOf returns (creating on first use) f's record; callers hold mu.
func (p *Program) heatOf(f *core.Function) *funcHeat {
	h := p.heat[f]
	if h == nil {
		h = &funcHeat{loop: hasLoop(f)}
		p.heat[f] = h
	}
	return h
}

// startsHot reports whether a machine with the given thresholds should run
// f at tier 2 from its first call.
func (p *Program) startsHot(f *core.Function, hotCalls, hotTicks int64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.heatOf(f)
	return h.loop || h.hot || h.calls >= hotCalls || h.ticks >= hotTicks
}

// AttachProgram points the machine at a shared translation cache. The
// program must have been built for the machine's module object: constant
// resolution bakes the deterministic layout of that specific module.
func (mc *Machine) AttachProgram(p *Program) error {
	if p == nil {
		mc.prog = nil
		return nil
	}
	if p.mod != mc.Mod {
		return errors.New("interp: program was built for a different module")
	}
	mc.prog = p
	return nil
}

// t1For returns the baseline translation of f, compiling it on first use.
// compiled reports whether this call performed the translation.
func (p *Program) t1For(mc *Machine, f *core.Function) (jf *jitFunc, compiled bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if jf := p.t1[f]; jf != nil {
		p.t1Reused.Add(1)
		return jf, false, nil
	}
	jf, err = mc.jitCompile(f)
	if err != nil {
		return nil, false, err
	}
	p.t1[f] = jf
	p.t1Compiles.Add(1)
	return jf, true, nil
}

// t2For returns the optimizing-tier translation of f (machine-independent;
// each machine resolves the constant pool itself). counts selects the
// profiling variant.
func (p *Program) t2For(f *core.Function, counts bool) (ef *codegen.EFunction, compiled bool, err error) {
	cache := p.t2
	if counts {
		cache = p.t2p
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if ef := cache[f]; ef != nil {
		p.t2Reused.Add(1)
		return ef, false, nil
	}
	ef, err = codegen.LowerExec(f, counts)
	if err != nil {
		return nil, false, err
	}
	cache[f] = ef
	p.t2Compiles.Add(1)
	return ef, true, nil
}

// ProgramStats reports translation cache traffic.
type ProgramStats struct {
	T1Compiles, T1Reused int64
	T2Compiles, T2Reused int64
}

// Stats snapshots the compile/reuse counters.
func (p *Program) Stats() ProgramStats {
	return ProgramStats{
		T1Compiles: p.t1Compiles.Load(),
		T1Reused:   p.t1Reused.Load(),
		T2Compiles: p.t2Compiles.Load(),
		T2Reused:   p.t2Reused.Load(),
	}
}

// RegisterMetrics bridges the cache counters onto a metrics registry
// (llvm_interp_translation_*_total{tier=...}).
func (p *Program) RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	r.CounterFunc("llvm_interp_translation_compiles_total",
		func() float64 { return float64(p.t1Compiles.Load()) }, "tier", "1")
	r.CounterFunc("llvm_interp_translation_compiles_total",
		func() float64 { return float64(p.t2Compiles.Load()) }, "tier", "2")
	r.CounterFunc("llvm_interp_translation_reuses_total",
		func() float64 { return float64(p.t1Reused.Load()) }, "tier", "1")
	r.CounterFunc("llvm_interp_translation_reuses_total",
		func() float64 { return float64(p.t2Reused.Load()) }, "tier", "2")
}
