package validate

// The differential engine executes both modules on deterministic input
// vectors and compares every observable: return value (masked to the
// declared width; pointers by nullness only, since heap addresses
// legitimately shift when a pass deletes functions or allocations),
// program output bytes, trap kinds, the final bytes of pointer-free shared
// globals, and the final bytes of scratch buffers passed through pointer
// parameters. Probes are classified before comparison:
//
//	pOK      completed normally          — fully comparable
//	pExit    called exit(n)              — exit code + output comparable
//	pTrap    defined program error       — comparable by kind
//	pBudget  hit a sandbox budget        — inconclusive, never a verdict
//	pUnknown internal fault / other      — inconclusive, never a verdict
//
// The comparison applies the asymmetric trap rule: a trap only in the
// BEFORE module is inconclusive (dead-code elimination legally deletes a
// dead trapping instruction), while a defined trap only in the AFTER
// module on an execution the original completed is a miscompile — a
// correct transformation never introduces a defined error into a
// well-defined execution.

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/interp"
)

// boundaryInputs are the raw argument bits every parameter position cycles
// through first: the classic edge cases (zero, one, all-ones, sign bits)
// before seeded pseudo-random extras.
var boundaryInputs = []uint64{
	0, 1, ^uint64(0), 2, 7, 0x80, 255, 1 << 31, 1<<31 - 1, 1000003,
}

type probeClass int

const (
	pOK probeClass = iota
	pExit
	pTrap
	pBudget
	pUnknown
)

// probeResult is one side's observation of one probe.
type probeResult struct {
	class    probeClass
	ret      uint64 // return bits (pOK) or exit code bits (pExit)
	trapKind string // stable kind label (pTrap)
	output   []byte // program output written during the run
	globals  []byte // concatenated final bytes of the shared globals
	bufs     []byte // concatenated final bytes of the scratch buffers
	detail   string // human-readable cause for inconclusive classes
	// Allocation profile of the run. When the two sides' profiles match
	// (and the static layout is stable), the deterministic bump allocator
	// guarantees identical addresses, making even address-punned
	// observables comparable.
	mallocs, mallocBytes, allocas int64
}

// funcOutcome is the engine's verdict for one function pair.
type funcOutcome struct {
	verdict        Verdict
	probes         int
	counterexample []uint64
	detail         string
}

// globalPair is a same-name global whose final memory image is comparable
// across the two modules: equal value types, recursively pointer-free (an
// address-bearing image legitimately differs when allocation order
// shifts), and a known nonzero size. Passes that change layout
// (fieldreorder, deadtypeelim) break type equality and drop the global
// from comparison rather than producing false mismatches.
type globalPair struct {
	before, after *core.GlobalVariable
	size          int
}

type diffRunner struct {
	opts          Options
	before, after *core.Module
	shared        []globalPair
	// punned: some cast in either module can reinterpret an address as
	// plain data, so any scalar observable may carry address bits.
	// layoutStable: both modules produce identical machine address maps
	// (same function-descriptor count, same global sizes in order), so
	// addresses — and therefore punned observables — are comparable anyway.
	punned       bool
	layoutStable bool
}

func newDiffRunner(opts Options, before, after *core.Module) *diffRunner {
	d := &diffRunner{opts: opts, before: before, after: after}
	d.punned = leaksAddresses(before) || leaksAddresses(after)
	d.layoutStable = layoutStable(before, after)
	for _, gb := range before.Globals {
		ga := after.Global(gb.Name())
		if ga == nil || !sameType(gb.ValueType, ga.ValueType) {
			continue
		}
		if !pointerFree(gb.ValueType) {
			continue
		}
		if size := core.SizeOf(gb.ValueType); size > 0 {
			d.shared = append(d.shared, globalPair{before: gb, after: ga, size: size})
		}
	}
	return d
}

// layoutStable reports whether the two modules yield identical machine
// address maps. The interpreter's arena is deterministic: one descriptor
// per function in module order, then the globals in module order, then
// dynamic allocations. Equal function counts and an equal global size
// sequence therefore pin every static address, and — because the bump
// allocator is deterministic — runs performing the same allocations see
// the same dynamic addresses too.
func layoutStable(before, after *core.Module) bool {
	if len(before.Funcs) != len(after.Funcs) || len(before.Globals) != len(after.Globals) {
		return false
	}
	for i := range before.Globals {
		sb := core.SizeOf(before.Globals[i].ValueType)
		sa := core.SizeOf(after.Globals[i].ValueType)
		// NewMachine sizes unsized globals at 8 bytes.
		if sb == 0 {
			sb = 8
		}
		if sa == 0 {
			sa = 8
		}
		if sb != sa {
			return false
		}
	}
	return true
}

// leaksAddresses reports whether the module contains a cast that can move
// address bits across the pointer/data boundary: a value cast between
// pointer and scalar (either direction), or a pointer-to-pointer cast
// whose two views disagree about where pointers live — e.g. viewing a
// char arena as a struct with pointer fields plants addresses into
// statically pointer-free memory, and the reverse view reads them back as
// plain bytes. In such modules any scalar observable and any
// "pointer-free" memory image may encode addresses, which legitimately
// differ once a pass changes the memory layout.
func leaksAddresses(m *core.Module) bool {
	castLeaks := func(src, dst core.Type) bool {
		sp, dp := src.Kind() == core.PointerKind, dst.Kind() == core.PointerKind
		if sp != dp {
			return true
		}
		if sp && dp {
			se := src.(*core.PointerType).Elem
			de := dst.(*core.PointerType).Elem
			return pointerFree(se) != pointerFree(de)
		}
		return false
	}
	var constLeaks func(c core.Constant) bool
	constLeaks = func(c core.Constant) bool {
		ce, ok := c.(*core.ConstantExpr)
		if !ok {
			return false
		}
		if ce.Op == core.OpCast && castLeaks(ce.Operand(0).Type(), ce.Type()) {
			return true
		}
		for i := 0; i < ce.NumOperands(); i++ {
			if oc, ok := ce.Operand(i).(core.Constant); ok && constLeaks(oc) {
				return true
			}
		}
		return false
	}
	for _, g := range m.Globals {
		if g.Init != nil && constLeaks(g.Init) {
			return true
		}
	}
	leaks := false
	for _, f := range m.Funcs {
		f.ForEachInst(func(inst core.Instruction) bool {
			if c, ok := inst.(*core.CastInst); ok && castLeaks(c.Operand(0).Type(), c.Type()) {
				leaks = true
				return false
			}
			for i := 0; i < inst.NumOperands(); i++ {
				if oc, ok := inst.Operand(i).(core.Constant); ok && constLeaks(oc) {
					leaks = true
					return false
				}
			}
			return true
		})
		if leaks {
			return true
		}
	}
	return false
}

// pointerFree reports whether a value of type t can never contain an
// address (so its raw bytes are comparable across heap layouts).
func pointerFree(t core.Type) bool {
	switch t.Kind() {
	case core.BoolKind, core.SByteKind, core.UByteKind, core.ShortKind, core.UShortKind,
		core.IntKind, core.UIntKind, core.LongKind, core.ULongKind,
		core.FloatKind, core.DoubleKind:
		return true
	case core.ArrayKind:
		return pointerFree(t.(*core.ArrayType).Elem)
	case core.StructKind:
		for _, f := range t.(*core.StructType).Fields {
			if !pointerFree(f) {
				return false
			}
		}
		return true
	}
	return false
}

// probeFunction runs the function pair on the deterministic vectors. One
// conclusive-equal probe with no disagreement anywhere is enough for
// Equivalent; any disagreement on comparable observables is Miscompile;
// otherwise Inconclusive.
func (d *diffRunner) probeFunction(bf, af *core.Function) funcOutcome {
	for _, p := range bf.Sig.Params {
		if !core.IsFirstClass(p) {
			return funcOutcome{verdict: Inconclusive, detail: fmt.Sprintf("unsupported parameter type %s", p)}
		}
	}

	out := funcOutcome{verdict: Inconclusive, detail: "no conclusive probe"}
	conclusive := false
	for _, vec := range d.vectors(bf) {
		out.probes++
		rb := d.runProbe(d.before, bf, vec)
		ra := d.runProbe(d.after, af, vec)
		eq, concl, detail := d.compareProbes(rb, ra)
		if !eq {
			return funcOutcome{
				verdict:        Miscompile,
				probes:         out.probes,
				counterexample: vec,
				detail:         detail,
			}
		}
		if concl {
			conclusive = true
		} else if detail != "" {
			out.detail = detail
		}
	}
	if conclusive {
		out.verdict = Equivalent
		out.detail = ""
	}
	return out
}

// vectors yields the raw input vectors for f: boundary values rotated per
// parameter position, then splitmix64-seeded extras. A niladic function
// gets exactly one (empty) probe.
func (d *diffRunner) vectors(f *core.Function) [][]uint64 {
	n := len(f.Sig.Params)
	if n == 0 {
		return [][]uint64{nil}
	}
	count := d.opts.MaxVectors
	vecs := make([][]uint64, 0, count)
	rng := d.opts.Seed ^ 0x9e3779b97f4a7c15
	for j := 0; j < count; j++ {
		vec := make([]uint64, n)
		for i := range vec {
			if j < len(boundaryInputs) {
				vec[i] = boundaryInputs[(i+j)%len(boundaryInputs)]
			} else {
				rng = splitmix64(rng)
				vec[i] = rng
			}
		}
		vecs = append(vecs, vec)
	}
	return vecs
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// scratchBytes bounds one pointer-parameter scratch buffer: enough for
// small loops to do observable work, small enough to stay cheap.
const scratchBytes = 256

// runProbe executes f in mod on one vector under a fresh machine, so
// global state never leaks between probes, and collects every observable.
func (d *diffRunner) runProbe(mod *core.Module, f *core.Function, vec []uint64) probeResult {
	var out bytes.Buffer
	mc, err := interp.NewMachine(mod, &out)
	if err != nil {
		return probeResult{class: pUnknown, detail: fmt.Sprintf("machine setup: %v", err)}
	}
	mc.MaxSteps = d.opts.MaxSteps
	mc.MaxHeapBytes = d.opts.MaxHeapBytes

	// Materialize arguments: scalars from the raw vector bits, pointer
	// parameters as deterministic scratch buffers (or null when the
	// pointee's bytes would not be comparable anyway).
	args := make([]uint64, len(vec))
	type scratch struct {
		addr uint64
		size int
	}
	var bufs []scratch
	for i, p := range f.Sig.Params {
		d0 := vec[i]
		switch {
		case p.Kind() == core.PointerKind:
			elem := p.(*core.PointerType).Elem
			size := core.SizeOf(elem)
			if size <= 0 || !pointerFree(elem) {
				args[i] = 0 // null: traps compare by kind on both sides
				continue
			}
			if size < scratchBytes {
				size = scratchBytes - scratchBytes%size
			}
			addr, err := mc.Malloc(uint64(size))
			if err != nil {
				return probeResult{class: pUnknown, detail: fmt.Sprintf("scratch alloc: %v", err)}
			}
			fill := make([]byte, size)
			seed := d0 ^ uint64(i)*0x9e3779b97f4a7c15
			for k := range fill {
				seed = splitmix64(seed)
				fill[k] = byte(seed)
			}
			if err := mc.WriteBytes(addr, fill); err != nil {
				return probeResult{class: pUnknown, detail: fmt.Sprintf("scratch fill: %v", err)}
			}
			bufs = append(bufs, scratch{addr: addr, size: size})
			args[i] = addr
		case p.Kind() == core.BoolKind:
			args[i] = d0 & 1
		case p.Kind() == core.FloatKind || p.Kind() == core.DoubleKind:
			// Small integral values exercise FP arithmetic without NaN
			// noise; the same bits reach both sides either way.
			args[i] = floatArgBits(p, d0)
		default:
			args[i] = maskExtend(d0, p)
		}
	}

	ret, err := mc.RunFunction(f, args...)
	res := probeResult{output: out.Bytes()}
	res.mallocs, res.mallocBytes = mc.NumMallocs, mc.MallocBytes
	res.allocas = mc.OpCounts[core.OpAlloca]
	if err != nil {
		var ee *interp.ExitError
		switch {
		case errors.As(err, &ee):
			res.class = pExit
			res.ret = uint64(ee.Code)
		case errors.Is(err, interp.ErrMaxSteps), errors.Is(err, interp.ErrStackOverflow),
			errors.Is(err, interp.ErrHeapLimit), errors.Is(err, interp.ErrCancelled):
			res.class = pBudget
			res.detail = fmt.Sprintf("budget exhausted (%s)", interp.TrapKind(err))
			return res
		case errors.Is(err, interp.ErrNullDeref), errors.Is(err, interp.ErrOutOfBounds),
			errors.Is(err, interp.ErrDivideByZero), errors.Is(err, interp.ErrDoubleFree),
			errors.Is(err, interp.ErrBadIndirectCall), errors.Is(err, interp.ErrUncaughtUnwind):
			res.class = pTrap
			res.trapKind = interp.TrapKind(err)
			return res
		default:
			res.class = pUnknown
			res.detail = fmt.Sprintf("execution fault (%v)", err)
			return res
		}
	} else {
		res.class = pOK
		res.ret = normalizeRet(f.Sig.Ret, ret)
	}

	// Final memory images, only reached on normal completion or exit —
	// after a trap the machine stopped mid-operation and its memory is not
	// a defined observable.
	for _, gp := range d.shared {
		g := gp.before
		if mod == d.after {
			g = gp.after
		}
		img, err := mc.ReadBytes(mc.GlobalAddr(g), gp.size)
		if err != nil {
			res.class = pUnknown
			res.detail = fmt.Sprintf("global readback: %v", err)
			return res
		}
		res.globals = append(res.globals, img...)
	}
	for _, b := range bufs {
		img, err := mc.ReadBytes(b.addr, b.size)
		if err != nil {
			// The function may free() its argument; that is an observable
			// the allocator tracks, not a comparison failure.
			img = []byte{0xf7}
		}
		res.bufs = append(res.bufs, img...)
	}
	return res
}

// maskExtend truncates raw bits to t's width and sign-extends signed
// types, matching the interpreter's in-register value convention.
func maskExtend(d uint64, t core.Type) uint64 {
	w := core.BitWidth(t)
	if w <= 0 || w >= 64 {
		return d
	}
	d &= 1<<uint(w) - 1
	if core.IsSigned(t) && d&(1<<uint(w-1)) != 0 {
		d |= ^uint64(0) << uint(w)
	}
	return d
}

func floatArgBits(t core.Type, d uint64) uint64 {
	v := float64(int64(d%1024) - 512)
	if t.Kind() == core.FloatKind {
		return uint64(math.Float32bits(float32(v)))
	}
	return math.Float64bits(v)
}

// normalizeRet projects a raw return value onto its comparable bits: the
// declared width for scalars, nullness only for pointers (addresses shift
// legitimately across heap layouts), nothing for void.
func normalizeRet(t core.Type, v uint64) uint64 {
	switch {
	case t.Kind() == core.VoidKind:
		return 0
	case t.Kind() == core.PointerKind:
		if v == 0 {
			return 0
		}
		return 1
	case t.Kind() == core.BoolKind:
		return v & 1
	default:
		return maskExtend(v, t)
	}
}

// compareProbes applies the verdict discipline to one probe pair:
// eq=false means confirmed disagreement (miscompile), conclusive=true
// means this probe affirmatively witnessed equal behavior.
//
// In an address-punning module a scalar observable may encode an address,
// and addresses legitimately move when a pass changes the memory layout
// (deleting a function shifts every global; removing an allocation shifts
// everything after it). There a disagreement only confirms a miscompile
// when the address maps of the two runs provably coincided: stable static
// layout plus identical allocation profiles. Otherwise the mismatch
// degrades to Inconclusive — never a false confirmation. Modules without
// such casts are unaffected: no observable can carry address bits, so
// every disagreement confirms.
func (d *diffRunner) compareProbes(rb, ra probeResult) (eq, conclusive bool, detail string) {
	// A budgeted or internally-faulted run on either side says nothing.
	if rb.class == pBudget || rb.class == pUnknown {
		return true, false, rb.detail
	}
	if ra.class == pBudget || ra.class == pUnknown {
		return true, false, ra.detail
	}

	strict := !d.punned || (d.layoutStable &&
		rb.mallocs == ra.mallocs && rb.mallocBytes == ra.mallocBytes && rb.allocas == ra.allocas)
	// A trapped run's allocation profile stops at the trap, so only the
	// static half of the address argument applies to trap comparisons.
	strictTrap := !d.punned || d.layoutStable
	const shifted = " in an address-punning module with a changed memory layout; not confirmable"

	switch {
	case rb.class == pTrap && ra.class == pTrap:
		// Same defined error with identical output to that point is a
		// witnessed match; anything else proves nothing either way.
		if rb.trapKind == ra.trapKind && bytes.Equal(rb.output, ra.output) {
			return true, true, ""
		}
		return true, false, fmt.Sprintf("diverging traps (%s vs %s)", rb.trapKind, ra.trapKind)

	case rb.class == pTrap:
		// The pass removed a trap: legal for dead-code elimination.
		return true, false, fmt.Sprintf("trap (%s) only before the pass", rb.trapKind)

	case ra.class == pTrap:
		// The pass introduced a defined error into an execution the
		// original completed: never legal — unless the trap could stem
		// from an address that moved with the layout.
		if !strictTrap {
			return true, false, fmt.Sprintf("introduced %s trap%s", ra.trapKind, shifted)
		}
		return false, true, fmt.Sprintf("pass introduced a %s trap", ra.trapKind)

	case rb.class != ra.class:
		// Normal return vs explicit exit(): the call graph changed shape
		// in a way this harness cannot attribute; stay conservative.
		return true, false, "normal return vs exit divergence"

	case rb.class == pExit:
		if rb.ret != ra.ret {
			if !strict {
				return true, false, "exit code differs" + shifted
			}
			return false, true, fmt.Sprintf("exit code %d became %d", int64(rb.ret), int64(ra.ret))
		}
		if !bytes.Equal(rb.output, ra.output) {
			if !strict {
				return true, false, "program output differs" + shifted
			}
			return false, true, "program output differs"
		}
		return true, true, ""

	default: // both pOK: every observable is comparable
		var mismatch string
		switch {
		case rb.ret != ra.ret:
			mismatch = fmt.Sprintf("return value %#x became %#x", rb.ret, ra.ret)
		case !bytes.Equal(rb.output, ra.output):
			mismatch = "program output differs"
		case !bytes.Equal(rb.globals, ra.globals):
			mismatch = "final global memory differs"
		case !bytes.Equal(rb.bufs, ra.bufs):
			mismatch = "pointer-argument buffer contents differ"
		default:
			return true, true, ""
		}
		if !strict {
			return true, false, mismatch + shifted
		}
		return false, true, mismatch
	}
}
