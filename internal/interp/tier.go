package interp

// Tier policy and per-function tier state for the execution engine's
// tiered design (§3.4/§3.6): tier 0 is the tree-walking interpreter,
// tier 1 the baseline slot-register translation (jit.go), tier 2 the
// optimizing flat register-allocated form (codegen/execlower.go, run by
// tier2.go). The TierAuto policy, in three lines:
//
//   - a function whose CFG has a loop runs at tier 2 from its first call;
//   - any other function runs at the baseline tier until HotCalls calls or
//     HotTicks steps, counted across machines on the attached Program;
//   - SeedProfile marks functions a persisted profile shows hot.
//
// Tiers change only at function entry, which is safe because all tiers are
// bit-identical. A promotion is sticky on the Program, so the next machine
// for the same module starts where this one ended.

import (
	"errors"
	"sort"
	"time"

	"repro/internal/codegen"
	"repro/internal/core"
)

// TierPolicy selects how the machine executes function bodies.
type TierPolicy int8

const (
	// TierInterp (the zero value) is the portable tree-walking
	// interpreter: every instruction type-switched, values in per-frame
	// maps. Slowest, and the reference semantics.
	TierInterp TierPolicy = iota
	// TierBaseline forces the baseline translation: per-function slot
	// registers, pre-resolved constants, per-block dispatch.
	TierBaseline
	// TierOpt forces the optimizing tier: flat pc-indexed code, dense
	// register file, φs as edge copies, width-specialized opcodes.
	TierOpt
	// TierAuto picks a tier per function: the optimizing tier from the
	// first call for a function with a loop, one SeedProfile marked, or one
	// already promoted on the attached Program; otherwise the baseline tier
	// until the function crosses HotCalls / HotTicks, counted across every
	// machine that shares the Program.
	TierAuto
)

// ParseTierPolicy reads the llvm-run/-serve tier spelling: "0", "1", "2",
// or "auto".
func ParseTierPolicy(s string) (TierPolicy, bool) {
	switch s {
	case "0", "interp":
		return TierInterp, true
	case "1", "baseline", "jit":
		return TierBaseline, true
	case "2", "opt":
		return TierOpt, true
	case "auto":
		return TierAuto, true
	}
	return TierInterp, false
}

func (p TierPolicy) String() string {
	switch p {
	case TierBaseline:
		return "1"
	case TierOpt:
		return "2"
	case TierAuto:
		return "auto"
	}
	return "0"
}

// Default hotness thresholds: a loop-free function tiers up after this many
// calls, or once this many instructions have been executed inside it
// (inclusive of callees).
const (
	DefaultHotCalls = 32
	DefaultHotTicks = 4096
)

// Established per-function tier under TierAuto.
const (
	tierT0 int8 = iota
	tierT1
	tierT2
)

// funcState is the per-(machine, function) execution state: translations,
// profile counters, and the tier-2 frame freelist.
type funcState struct {
	fn   *core.Function
	tier int8 // current tier under TierAuto
	// startHot sends the function straight to tier 2 on its first call: a
	// persisted cross-run profile (SeedProfile), a loop in its CFG, or
	// heat other machines left on the shared Program.
	startHot bool
	t2Failed bool // tier-2 lowering failed; stop retrying

	calls int64 // activations (profile counter)
	ticks int64 // steps executed inside activations at tiers 0/1
	// foldedCalls/foldedTicks are the part of calls/ticks already added
	// to the attached Program.
	foldedCalls, foldedTicks int64

	t1 *jitFunc
	t2 *codegen.EFunction
	// constBits resolves t2's constant pool against this machine's layout.
	constBits []uint64
	// frames recycles tier-2 activation frames (registers + constants).
	frames [][]uint64

	// counts is the per-block execution profile (same block indexing the
	// probe instrumentation and the lifelong store use); nil unless
	// EnableProfile was called.
	counts   []int64
	blockIdx map[*core.BasicBlock]int32
}

// fstate returns (creating on first use) the state for f.
func (mc *Machine) fstate(f *core.Function) *funcState {
	fs := mc.fstates[f]
	if fs == nil {
		if mc.fstates == nil {
			mc.fstates = map[*core.Function]*funcState{}
		}
		fs = &funcState{fn: f, tier: tierT1}
		mc.fstates[f] = fs
	}
	if mc.profiling && fs.counts == nil && len(f.Blocks) > 0 {
		fs.counts = make([]int64, len(f.Blocks))
		fs.blockIdx = make(map[*core.BasicBlock]int32, len(f.Blocks))
		for i, b := range f.Blocks {
			fs.blockIdx[b] = int32(i)
		}
	}
	return fs
}

// SetTier selects the machine's execution policy. The zero value is
// TierInterp; command-line tools default to TierAuto. Switching policy
// mid-run is safe (tiers are bit-identical) but resets no counters.
func (mc *Machine) SetTier(p TierPolicy) { mc.tier = p }

// Tier reports the machine's execution policy.
func (mc *Machine) Tier() TierPolicy { return mc.tier }

// EnableProfile turns on per-block execution counting in every tier. The
// counts use the same function-name/block-index shape the lifelong store
// persists (profile.Counts), so engine profiles feed tier-up seeding and
// reoptimization without instrumenting the module.
func (mc *Machine) EnableProfile() { mc.profiling = true }

// BlockCounts returns the accumulated per-block execution counts for every
// function that ran at least once, keyed by function name. The slices are
// copies.
func (mc *Machine) BlockCounts() map[string][]int64 {
	out := map[string][]int64{}
	for f, fs := range mc.fstates {
		if fs.counts == nil {
			continue
		}
		for _, c := range fs.counts {
			if c != 0 {
				out[f.Name()] = append([]int64(nil), fs.counts...)
				break
			}
		}
	}
	return out
}

// SeedProfile marks functions hot from a persisted profile (the
// profile.Counts block shape: function name -> per-block counts). A
// function whose recorded activity crosses the machine's hotness
// thresholds skips the baseline tier on its first call.
func (mc *Machine) SeedProfile(funcs map[string][]int64) {
	for _, f := range mc.Mod.Funcs {
		if f.IsDeclaration() {
			continue
		}
		counts := funcs[f.Name()]
		if counts == nil {
			continue
		}
		var total int64
		for _, c := range counts {
			total += c
		}
		if total >= mc.HotTicks || (len(counts) > 0 && counts[0] >= mc.HotCalls) {
			mc.fstate(f).startHot = true
		}
	}
}

// ensureT1 compiles (or fetches from the attached Program) the baseline
// translation.
func (mc *Machine) ensureT1(fs *funcState) error {
	if fs.t1 != nil {
		return nil
	}
	start := time.Now()
	var (
		jf       *jitFunc
		compiled bool
		err      error
	)
	if mc.prog != nil {
		jf, compiled, err = mc.prog.t1For(mc, fs.fn)
	} else {
		jf, compiled = nil, true
		jf, err = mc.jitCompile(fs.fn)
	}
	if err != nil {
		return err
	}
	if compiled {
		mc.tierCompiles[1]++
		mc.tierCompileNs[1] += time.Since(start).Nanoseconds()
	}
	fs.t1 = jf
	return nil
}

// ensureT2 lowers (or fetches) the optimizing-tier translation and
// resolves its constant pool against this machine's memory layout.
func (mc *Machine) ensureT2(fs *funcState) error {
	if fs.t2 != nil {
		return nil
	}
	start := time.Now()
	var (
		ef       *codegen.EFunction
		compiled bool
		err      error
	)
	if mc.prog != nil {
		ef, compiled, err = mc.prog.t2For(fs.fn, fs.counts != nil)
	} else {
		compiled = true
		ef, err = codegen.LowerExec(fs.fn, fs.counts != nil)
	}
	if err != nil {
		return err
	}
	bits := make([]uint64, len(ef.Consts))
	for i, c := range ef.Consts {
		v, cerr := mc.evalConstant(c)
		if cerr != nil {
			return cerr
		}
		bits[i] = v
	}
	if compiled {
		mc.tierCompiles[2]++
		mc.tierCompileNs[2] += time.Since(start).Nanoseconds()
	}
	fs.t2 = ef
	fs.constBits = bits
	fs.frames = nil
	return nil
}

// getFrame hands out a tier-2 activation frame with the value region
// zeroed and the constant region populated.
func (fs *funcState) getFrame() []uint64 {
	// Recycled frames are NOT cleared: the verifier guarantees every
	// definition dominates its uses, so each register is written before
	// it is read in any activation (execTier2 zero-fills the one
	// exception, an argument shortfall). Clearing here would memclr the
	// whole register file on every call — the dominant cost for small
	// hot functions.
	if n := len(fs.frames); n > 0 {
		regs := fs.frames[n-1]
		fs.frames = fs.frames[:n-1]
		return regs
	}
	regs := make([]uint64, fs.t2.NumRegs)
	copy(regs[fs.t2.ConstBase:], fs.constBits)
	return regs
}

func (fs *funcState) putFrame(regs []uint64) {
	// Bound the freelist so deep recursion cannot pin frames forever.
	if len(fs.frames) < 8 {
		fs.frames = append(fs.frames, regs)
	}
}

// startsHot is the static and cross-machine half of the TierAuto policy:
// f has a loop, or machines that ran before this one left it hot.
func (mc *Machine) startsHot(f *core.Function) bool {
	if mc.prog != nil {
		return mc.prog.startsHot(f, mc.HotCalls, mc.HotTicks)
	}
	return hasLoop(f)
}

// hasLoop reports whether f's CFG contains a cycle: a depth-first walk
// from the entry finds an edge back to a block still on its path.
func hasLoop(f *core.Function) bool {
	const onPath, done = 1, 2
	state := make(map[*core.BasicBlock]int8, len(f.Blocks))
	var walk func(b *core.BasicBlock) bool
	walk = func(b *core.BasicBlock) bool {
		state[b] = onPath
		for _, s := range b.Succs() {
			if state[s] == onPath || (state[s] == 0 && walk(s)) {
				return true
			}
		}
		state[b] = done
		return false
	}
	return walk(f.Entry())
}

// foldHeat adds what this machine counted since its last fold to the
// attached Program, and makes its promotions sticky there.
func (mc *Machine) foldHeat() {
	p := mc.prog
	p.mu.Lock()
	defer p.mu.Unlock()
	for f, fs := range mc.fstates {
		h := p.heatOf(f)
		h.calls += fs.calls - fs.foldedCalls
		h.ticks += fs.ticks - fs.foldedTicks
		fs.foldedCalls, fs.foldedTicks = fs.calls, fs.ticks
		if fs.tier == tierT2 {
			h.hot = true
		}
	}
}

// autoCall dispatches one activation under TierAuto: tier 2 from the first
// call for a function that starts hot, otherwise baseline and promoted in
// place when the hotness counters say so, degraded to the interpreter if
// translation fails.
func (mc *Machine) autoCall(f *core.Function, args []uint64) (uint64, execResult, error) {
	fs := mc.fstate(f)
	fs.calls++
	if fs.calls == 1 && !fs.startHot {
		fs.startHot = mc.startsHot(f)
	}
	if fs.tier != tierT2 && !fs.t2Failed &&
		(fs.startHot || fs.calls >= mc.HotCalls || fs.ticks >= mc.HotTicks) {
		if err := mc.ensureT2(fs); err != nil {
			fs.t2Failed = true
		} else {
			if fs.calls > 1 {
				// An in-place promotion of a function that already ran at a
				// lower tier; functions that start hot begin at tier 2.
				mc.tierUps++
			}
			fs.tier = tierT2
		}
	}
	switch fs.tier {
	case tierT2:
		mc.tierCalls[2]++
		return mc.execTier2(fs, args)
	case tierT0:
		mc.tierCalls[0]++
		s0 := mc.Steps
		v, res, err := mc.interpCall(f, fs, args)
		fs.ticks += mc.Steps - s0
		return v, res, err
	default:
		if fs.t1 == nil {
			if err := mc.ensureT1(fs); err != nil {
				fs.tier = tierT0
				mc.tierCalls[0]++
				s0 := mc.Steps
				v, res, ierr := mc.interpCall(f, fs, args)
				fs.ticks += mc.Steps - s0
				return v, res, ierr
			}
		}
		mc.tierCalls[1]++
		s0 := mc.Steps
		v, res, err := mc.execTier1(fs, args)
		fs.ticks += mc.Steps - s0
		return v, res, err
	}
}

// positionErr wraps an execution error with an explicit fault position
// (the translated tiers know their position from side tables, not from
// the interpreter's cur* bookkeeping). Already-positioned traps and
// explicit exits pass through untouched.
func positionErr(cause error, fn *core.Function, block *core.BasicBlock, inst core.Instruction) error {
	var t *Trap
	if errors.As(cause, &t) {
		return cause
	}
	var ee *ExitError
	if errors.As(cause, &ee) {
		return cause
	}
	t = &Trap{Cause: cause}
	if fn != nil {
		t.Fn = fn.Name()
	}
	if block != nil {
		t.Block = block.Name()
	}
	if inst != nil {
		t.Inst = core.InstDebugString(inst)
	}
	return t
}

// FuncTierStat is one function's row in TierStats.
type FuncTierStat struct {
	Name  string
	Tier  int   // tier the next call would run at
	Calls int64 // activations observed
}

// TierStats is the machine-level tiering report behind llvm-run -tier-stats.
type TierStats struct {
	Policy      TierPolicy
	Calls       [3]int64 // activations per tier
	Compiles    [3]int64 // translations performed by this machine (index 0 unused)
	CompileTime [3]time.Duration
	TierUps     int64 // in-place promotions after a function already ran
	Funcs       []FuncTierStat
}

// TierStats reports per-tier activation/compile counters and each
// function's current tier.
func (mc *Machine) TierStats() TierStats {
	st := TierStats{Policy: mc.tier, Calls: mc.tierCalls, TierUps: mc.tierUps}
	for t := 0; t < 3; t++ {
		st.Compiles[t] = mc.tierCompiles[t]
		st.CompileTime[t] = time.Duration(mc.tierCompileNs[t])
	}
	for _, fs := range mc.fstates {
		tier := int(fs.tier)
		switch mc.tier {
		case TierInterp:
			tier = 0
		case TierBaseline:
			tier = 1
		case TierOpt:
			tier = 2
		}
		st.Funcs = append(st.Funcs, FuncTierStat{Name: fs.fn.Name(), Tier: tier, Calls: fs.calls})
	}
	sort.Slice(st.Funcs, func(i, j int) bool { return st.Funcs[i].Name < st.Funcs[j].Name })
	return st
}
