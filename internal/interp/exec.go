package interp

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
)

// execResult describes how a function activation ended.
type execResult int

const (
	resReturn execResult = iota
	resUnwind            // an unwind is propagating; caller must dispatch
)

// frame is one interpreter activation record.
type frame struct {
	fn     *core.Function
	vals   map[core.Value]uint64
	vaArgs []uint64 // extra args of a variadic call
	vaCur  int
	// stackMark is the stack-arena watermark to restore on return.
	stackMark uint64
	// fs carries per-function profile counters when profiling is on.
	fs *funcState
}

// RunFunction executes f with the given raw arguments and returns the raw
// result. An unwind that escapes f is reported as ErrUncaughtUnwind. Any
// execution fault — including a recovered interpreter panic — comes back
// as a *Trap wrapping one of the Err* sentinels, never as a Go panic.
func (mc *Machine) RunFunction(f *core.Function, args ...uint64) (uint64, error) {
	return mc.RunContext(context.Background(), f, args...)
}

// RunContext is RunFunction with cooperative cancellation: when ctx is
// cancelled (or its deadline passes), the step loop stops within a bounded
// number of instructions and the run fails with a *Trap wrapping
// ErrCancelled. The machine stays reusable afterwards.
func (mc *Machine) RunContext(ctx context.Context, f *core.Function, args ...uint64) (v uint64, err error) {
	prevCtx := mc.ctx
	if ctx != context.Background() {
		mc.ctx = ctx
	}
	mc.runDepth++
	steps0 := mc.Steps
	tc0 := mc.tierCalls
	tcp0 := mc.tierCompiles
	ups0 := mc.tierUps
	defer func() {
		mc.ctx = prevCtx
		if r := recover(); r != nil {
			err = mc.trapErr(fmt.Errorf("%w: panic: %v", ErrTrap, r))
			v = 0
		}
		mc.runDepth--
		// Fold and record once per outermost run so re-entrant calls
		// (builtins that call back into the machine) are not double-counted.
		if mc.runDepth == 0 && mc.prog != nil && mc.tier == TierAuto {
			mc.foldHeat()
		}
		if mc.runDepth == 0 && mc.Metrics != nil {
			mc.Metrics.Counter("llvm_interp_runs_total").Inc()
			mc.Metrics.Counter("llvm_interp_instructions_total").Add(float64(mc.Steps - steps0))
			if err != nil {
				var ee *ExitError
				if !errors.As(err, &ee) {
					mc.Metrics.Counter("llvm_interp_traps_total", "kind", trapKindOf(err)).Inc()
				}
			}
			for t, name := range tierNames {
				if d := mc.tierCalls[t] - tc0[t]; d > 0 {
					mc.Metrics.Counter("llvm_interp_tier_calls_total", "tier", name).Add(float64(d))
				}
				if d := mc.tierCompiles[t] - tcp0[t]; d > 0 {
					mc.Metrics.Counter("llvm_interp_tier_compiles_total", "tier", name).Add(float64(d))
				}
			}
			if d := mc.tierUps - ups0; d > 0 {
				mc.Metrics.Counter("llvm_interp_tier_ups_total").Add(float64(d))
			}
		}
	}()
	val, res, err := mc.call(f, args)
	if err != nil {
		var ee *ExitError
		if errors.As(err, &ee) {
			return 0, err // explicit exit(): not a fault
		}
		return 0, mc.trapErr(err)
	}
	if res == resUnwind {
		return 0, mc.trapErr(ErrUncaughtUnwind)
	}
	return val, nil
}

// trapKindOf maps an execution error to its stable metric label, mirroring
// the Err* sentinels (llvm_interp_traps_total{kind=...}).
func trapKindOf(err error) string {
	for _, c := range []struct {
		sentinel error
		kind     string
	}{
		{ErrMaxSteps, "max-steps"},
		{ErrStackOverflow, "stack-overflow"},
		{ErrNullDeref, "null-deref"},
		{ErrOutOfBounds, "out-of-bounds"},
		{ErrUncaughtUnwind, "uncaught-unwind"},
		{ErrDivideByZero, "divide-by-zero"},
		{ErrBadIndirectCall, "bad-indirect-call"},
		{ErrDoubleFree, "double-free"},
		{ErrCancelled, "cancelled"},
		{ErrHeapLimit, "heap-limit"},
	} {
		if errors.Is(err, c.sentinel) {
			return c.kind
		}
	}
	return "other"
}

// trapErr wraps an execution error with the machine's current position.
// It must be called at the fault site, before the deferred curFn restore
// in call/jitExec unwinds the position. Explicit exit() is not a fault and
// passes through untouched.
func (mc *Machine) trapErr(cause error) error {
	var t *Trap
	if errors.As(cause, &t) {
		return cause // already positioned at the innermost fault
	}
	var ee *ExitError
	if errors.As(cause, &ee) {
		return cause
	}
	t = &Trap{Cause: cause}
	if mc.curFn != nil {
		t.Fn = mc.curFn.Name()
	}
	if mc.curBlock != nil {
		t.Block = mc.curBlock.Name()
	}
	if mc.curInst != nil {
		t.Inst = core.InstDebugString(mc.curInst)
	}
	return t
}

// RunMain looks up "main" and runs it with no arguments, returning its
// integer exit value.
func (mc *Machine) RunMain() (int64, error) {
	return mc.RunMainContext(context.Background())
}

// RunMainContext is RunMain with cooperative cancellation (see RunContext).
func (mc *Machine) RunMainContext(ctx context.Context) (int64, error) {
	f := mc.Mod.Func("main")
	if f == nil {
		return 0, errors.New("interp: no main function")
	}
	args := make([]uint64, len(f.Args))
	v, err := mc.RunContext(ctx, f, args...)
	if err != nil {
		return 0, err
	}
	if f.Sig.Ret == core.VoidType {
		return 0, nil
	}
	return int64(signExtend(f.Sig.Ret, v)), nil
}

// tierNames labels the tier dimension of the engine metrics.
var tierNames = [3]string{"0", "1", "2"}

// call dispatches one activation of f to the machine's execution tier.
// Builtin and translation errors return unpositioned; every executor
// positions faults itself (the interpreter via trapErr at the fault site,
// the translated tiers via their pc side tables), so the position a trap
// reports is identical at every tier.
func (mc *Machine) call(f *core.Function, args []uint64) (uint64, execResult, error) {
	if f.IsDeclaration() {
		if b, ok := mc.builtins[f.Name()]; ok {
			// Errors position at the caller's call site; each executor's
			// error path stamps its own current instruction.
			v, err := b(mc, args)
			return v, resReturn, err
		}
		return 0, resReturn, fmt.Errorf("interp: call to undefined external %%%s", f.Name())
	}
	switch mc.tier {
	case TierBaseline:
		fs := mc.fstate(f)
		fs.calls++
		if err := mc.ensureT1(fs); err != nil {
			return 0, resReturn, err
		}
		mc.tierCalls[1]++
		return mc.execTier1(fs, args)
	case TierOpt:
		fs := mc.fstate(f)
		fs.calls++
		if err := mc.ensureT2(fs); err != nil {
			return 0, resReturn, err
		}
		mc.tierCalls[2]++
		return mc.execTier2(fs, args)
	case TierAuto:
		return mc.autoCall(f, args)
	}
	mc.tierCalls[0]++
	var fs *funcState
	if mc.profiling {
		fs = mc.fstate(f)
		fs.calls++
	}
	return mc.interpCall(f, fs, args)
}

// interpCall runs one tier-0 (tree-walking) activation of f.
func (mc *Machine) interpCall(f *core.Function, fs *funcState, args []uint64) (uint64, execResult, error) {
	if mc.depth >= mc.MaxDepth {
		return 0, resReturn, ErrStackOverflow
	}
	mc.depth++
	prevFn, prevBlock := mc.curFn, mc.curBlock
	mc.curFn = f
	// Restore the caller's block too: without this, a trap in the caller
	// after this call returns would report the callee's last block.
	defer func() { mc.depth--; mc.curFn = prevFn; mc.curBlock = prevBlock }()

	fr := &frame{
		fn:        f,
		vals:      make(map[core.Value]uint64, f.NumInstructions()+len(f.Args)),
		stackMark: mc.stackTop,
		fs:        fs,
	}
	defer func() { mc.stackTop = fr.stackMark }()
	for i, a := range f.Args {
		if i < len(args) {
			fr.vals[a] = args[i]
		}
	}
	if f.Sig.Variadic && len(args) > len(f.Args) {
		fr.vaArgs = args[len(f.Args):]
	}

	block := f.Entry()
	var prev *core.BasicBlock
	for {
		nextBlock, ret, res, err := mc.execBlock(fr, block, prev)
		if err != nil {
			// Wrap before the deferred curFn restore unwinds the position.
			return 0, resReturn, mc.trapErr(err)
		}
		if nextBlock == nil {
			return ret, res, nil
		}
		prev, block = block, nextBlock
	}
}

// operand fetches the raw bits of an operand in a frame.
func (mc *Machine) operand(fr *frame, v core.Value) (uint64, error) {
	switch x := v.(type) {
	case core.Constant:
		switch x.(type) {
		case *core.Function, *core.GlobalVariable:
			return mc.evalConstant(x)
		default:
			return mc.evalConstant(x)
		}
	default:
		val, ok := fr.vals[v]
		if !ok {
			// Uninitialized (undef-like); zero is a legal choice.
			return 0, nil
		}
		return val, nil
	}
}

// execBlock runs block to its terminator. It returns the next block (nil if
// the function is done), the return value, and whether an unwind is in
// progress.
func (mc *Machine) execBlock(fr *frame, b, prev *core.BasicBlock) (*core.BasicBlock, uint64, execResult, error) {
	mc.curBlock = b
	if fr.fs != nil && fr.fs.counts != nil {
		fr.fs.counts[fr.fs.blockIdx[b]]++
	}
	// Phis evaluate simultaneously from the edge's values.
	phis := b.Phis()
	if len(phis) > 0 {
		tmp := make([]uint64, len(phis))
		for i, phi := range phis {
			v := phi.IncomingFor(prev)
			if v == nil {
				return nil, 0, resReturn, fmt.Errorf("interp: phi %%%s has no entry for predecessor", phi.Name())
			}
			val, err := mc.operand(fr, v)
			if err != nil {
				return nil, 0, resReturn, err
			}
			tmp[i] = val
		}
		for i, phi := range phis {
			fr.vals[phi] = tmp[i]
		}
	}

	for _, inst := range b.Instrs[b.FirstNonPhi():] {
		// Attribute budget/cancellation traps to the instruction that was
		// about to execute, exactly like the translated tiers do — the
		// trap position is part of the cross-tier identity contract.
		mc.curInst = inst
		mc.Steps++
		if mc.Steps > mc.MaxSteps {
			return nil, 0, resReturn, ErrMaxSteps
		}
		if mc.ctx != nil && mc.Steps&cancelCheckMask == 0 {
			if cerr := mc.ctx.Err(); cerr != nil {
				return nil, 0, resReturn, fmt.Errorf("%w: %v", ErrCancelled, cerr)
			}
		}
		mc.OpCounts[inst.Opcode()]++

		switch i := inst.(type) {
		case *core.RetInst:
			if i.Value() == nil {
				return nil, 0, resReturn, nil
			}
			v, err := mc.operand(fr, i.Value())
			return nil, v, resReturn, err

		case *core.BranchInst:
			if !i.IsConditional() {
				return i.TrueDest(), 0, resReturn, nil
			}
			c, err := mc.operand(fr, i.Cond())
			if err != nil {
				return nil, 0, resReturn, err
			}
			if c != 0 {
				return i.TrueDest(), 0, resReturn, nil
			}
			return i.FalseDest(), 0, resReturn, nil

		case *core.SwitchInst:
			v, err := mc.operand(fr, i.Value())
			if err != nil {
				return nil, 0, resReturn, err
			}
			dest := i.Default()
			for n := 0; n < i.NumCases(); n++ {
				cv, d := i.Case(n)
				if cv.Val == v {
					dest = d
					break
				}
			}
			return dest, 0, resReturn, nil

		case *core.UnwindInst:
			return nil, 0, resUnwind, nil

		case *core.CallInst:
			v, res, err := mc.execCall(fr, i.Callee(), i.Args())
			if err != nil {
				return nil, 0, resReturn, err
			}
			if res == resUnwind {
				// A call does not stop unwinding: propagate out of this
				// frame too.
				return nil, 0, resUnwind, nil
			}
			if i.Type() != core.VoidType {
				fr.vals[i] = v
			}

		case *core.InvokeInst:
			v, res, err := mc.execCall(fr, i.Callee(), i.Args())
			if err != nil {
				return nil, 0, resReturn, err
			}
			if res == resUnwind {
				// The invoke catches the unwind: control transfers to the
				// unwind label (§2.4).
				return i.UnwindDest(), 0, resReturn, nil
			}
			if i.Type() != core.VoidType {
				fr.vals[i] = v
			}
			return i.NormalDest(), 0, resReturn, nil

		case *core.BinaryInst:
			v, err := mc.execBinary(fr, i)
			if err != nil {
				return nil, 0, resReturn, err
			}
			fr.vals[i] = v

		case *core.MallocInst:
			n := uint64(1)
			if ne := i.NumElems(); ne != nil {
				v, err := mc.operand(fr, ne)
				if err != nil {
					return nil, 0, resReturn, err
				}
				n = v
			}
			size, ok := mulNoOverflow(n, uint64(core.SizeOf(i.AllocType)))
			if !ok {
				return nil, 0, resReturn, ErrHeapLimit
			}
			addr, err := mc.Malloc(size)
			if err != nil {
				return nil, 0, resReturn, err
			}
			fr.vals[i] = addr

		case *core.AllocaInst:
			n := uint64(1)
			if ne := i.NumElems(); ne != nil {
				v, err := mc.operand(fr, ne)
				if err != nil {
					return nil, 0, resReturn, err
				}
				n = v
			}
			size, ok := mulNoOverflow(n, uint64(core.SizeOf(i.AllocType)))
			if !ok {
				return nil, 0, resReturn, ErrStackOverflow
			}
			addr, err := mc.alloca(size)
			if err != nil {
				return nil, 0, resReturn, err
			}
			fr.vals[i] = addr

		case *core.FreeInst:
			p, err := mc.operand(fr, i.Ptr())
			if err != nil {
				return nil, 0, resReturn, err
			}
			if err := mc.Free(p); err != nil {
				return nil, 0, resReturn, err
			}

		case *core.LoadInst:
			p, err := mc.operand(fr, i.Ptr())
			if err != nil {
				return nil, 0, resReturn, err
			}
			v, err := mc.loadBits(p, i.Type())
			if err != nil {
				return nil, 0, resReturn, err
			}
			fr.vals[i] = v

		case *core.StoreInst:
			v, err := mc.operand(fr, i.Val())
			if err != nil {
				return nil, 0, resReturn, err
			}
			p, err := mc.operand(fr, i.Ptr())
			if err != nil {
				return nil, 0, resReturn, err
			}
			if err := mc.storeBits(p, i.Val().Type(), v); err != nil {
				return nil, 0, resReturn, err
			}

		case *core.GetElementPtrInst:
			base, err := mc.operand(fr, i.Base())
			if err != nil {
				return nil, 0, resReturn, err
			}
			idx := i.Indices()
			vals := make([]uint64, len(idx))
			for k, ix := range idx {
				v, err := mc.operand(fr, ix)
				if err != nil {
					return nil, 0, resReturn, err
				}
				vals[k] = v
			}
			addr, err := gepAddress(i.Base().Type(), base, idx, vals)
			if err != nil {
				return nil, 0, resReturn, err
			}
			fr.vals[i] = addr

		case *core.CastInst:
			v, err := mc.operand(fr, i.Val())
			if err != nil {
				return nil, 0, resReturn, err
			}
			fr.vals[i] = castBits(i.Val().Type(), i.Type(), v)

		case *core.VAArgInst:
			if fr.vaCur < len(fr.vaArgs) {
				fr.vals[i] = fr.vaArgs[fr.vaCur]
				fr.vaCur++
			} else {
				fr.vals[i] = 0
			}

		default:
			return nil, 0, resReturn, fmt.Errorf("interp: unhandled instruction %s", inst.Opcode())
		}
	}
	return nil, 0, resReturn, fmt.Errorf("interp: block %%%s fell off the end", b.Name())
}

// execCall resolves the callee (direct or via function address) and calls.
func (mc *Machine) execCall(fr *frame, callee core.Value, argVals []core.Value) (uint64, execResult, error) {
	args := make([]uint64, len(argVals))
	for k, a := range argVals {
		v, err := mc.operand(fr, a)
		if err != nil {
			return 0, resReturn, err
		}
		args[k] = v
	}
	if f, ok := callee.(*core.Function); ok {
		return mc.call(f, args)
	}
	addr, err := mc.operand(fr, callee)
	if err != nil {
		return 0, resReturn, err
	}
	f, ok := mc.funcAt[addr]
	if !ok {
		return 0, resReturn, ErrBadIndirectCall
	}
	return mc.call(f, args)
}

// execBinary evaluates arithmetic, logic, and comparisons.
func (mc *Machine) execBinary(fr *frame, i *core.BinaryInst) (uint64, error) {
	a, err := mc.operand(fr, i.LHS())
	if err != nil {
		return 0, err
	}
	b, err := mc.operand(fr, i.RHS())
	if err != nil {
		return 0, err
	}
	t := i.LHS().Type()
	op := i.Opcode()

	if core.IsFloatingPoint(t) {
		fa, fb := bitsToFloat(t, a), bitsToFloat(t, b)
		if core.IsComparisonOp(op) {
			r, ok := core.EvalFloatCompare(op, fa, fb)
			if !ok {
				return 0, fmt.Errorf("interp: bad float compare %s", op)
			}
			return boolBits(r), nil
		}
		r, ok := core.EvalFloatBinary(op, t, fa, fb)
		if !ok {
			return 0, fmt.Errorf("interp: bad float op %s", op)
		}
		return floatBits(t, r), nil
	}

	// bool and pointer comparisons / logic use unsigned semantics.
	et := t
	if !core.IsInteger(et) {
		et = core.ULongType
	}
	if core.IsComparisonOp(op) {
		r, ok := core.EvalIntCompare(op, et, a, b)
		if !ok {
			return 0, fmt.Errorf("interp: bad compare %s", op)
		}
		return boolBits(r), nil
	}
	if t.Kind() == core.BoolKind {
		switch op {
		case core.OpAnd:
			return a & b & 1, nil
		case core.OpOr:
			return (a | b) & 1, nil
		case core.OpXor:
			return (a ^ b) & 1, nil
		}
	}
	r, ok := core.EvalIntBinary(op, et, a, b)
	if !ok {
		if op == core.OpDiv || op == core.OpRem {
			return 0, ErrDivideByZero
		}
		return 0, fmt.Errorf("interp: bad int op %s on %s", op, t)
	}
	return r, nil
}

// alloca carves n bytes from the stack arena.
func (mc *Machine) alloca(n uint64) (uint64, error) {
	if n == 0 {
		n = 1
	}
	top := (mc.stackTop + 7) &^ 7
	if n > stackSize || top+n > stackSize {
		return 0, ErrStackOverflow
	}
	mc.growStack(top + n)
	addr := stackBase + top
	// Zero the region: prior frames may have left data behind.
	clear(mc.stack[top : top+n])
	mc.stackTop = top + n
	return addr, nil
}

// growStack makes the first end bytes of the stack arena addressable. The
// arena is allocated as the program touches it, doubling up to stackSize,
// so a machine pays for the stack it uses and not for the 4 MiB it may
// use; new bytes are zero, as the whole arena was when it was allocated
// at once. Slices mem returned earlier go stale when this reallocates.
func (mc *Machine) growStack(end uint64) {
	if end <= uint64(len(mc.stack)) {
		return
	}
	size := max(2*uint64(len(mc.stack)), end, minStack)
	grown := make([]byte, min(size, stackSize))
	copy(grown, mc.stack)
	mc.stack = grown
}

// mulNoOverflow multiplies allocation sizes, reporting overflow instead of
// silently wrapping to a small allocation.
func mulNoOverflow(a, b uint64) (uint64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, false
	}
	return p, true
}

func boolBits(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// GlobalAddr returns the runtime address of a global, for host harnesses.
func (mc *Machine) GlobalAddr(g *core.GlobalVariable) uint64 { return mc.globals[g] }

// FunctionAddr returns the runtime descriptor address of a function.
func (mc *Machine) FunctionAddr(f *core.Function) uint64 { return mc.funcAddrs[f] }

// ReadCString reads a NUL-terminated string at addr (for builtins/tests).
func (mc *Machine) ReadCString(addr uint64) (string, error) {
	var out []byte
	for {
		b, err := mc.mem(addr, 1)
		if err != nil {
			return "", err
		}
		if b[0] == 0 {
			return string(out), nil
		}
		out = append(out, b[0])
		addr++
		if len(out) > 1<<20 {
			return "", errors.New("interp: unterminated string")
		}
	}
}

// ReadWord reads a 64-bit little-endian word from program memory, for host
// harnesses that inspect run results (e.g. reading profile counters).
func (mc *Machine) ReadWord(addr uint64) (uint64, error) {
	return mc.loadBits(addr, core.LongType)
}

// ReadBytes copies n bytes of program memory starting at addr, for host
// harnesses that compare observable memory state (the translation-validation
// oracle reads final global images through this).
func (mc *Machine) ReadBytes(addr uint64, n int) ([]byte, error) {
	b, err := mc.mem(addr, n)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

// WriteBytes copies b into program memory at addr, for host harnesses that
// prepare argument buffers before a run.
func (mc *Machine) WriteBytes(addr uint64, b []byte) error {
	dst, err := mc.mem(addr, len(b))
	if err != nil {
		return err
	}
	copy(dst, b)
	return nil
}

// TrapKind classifies an execution error by its sentinel: "max-steps",
// "divide-by-zero", "null-deref", ... ("other" for internal faults). It is
// the stable vocabulary the llvm_interp_traps_total metric labels use, and
// the translation-validation oracle compares trap kinds through it.
func TrapKind(err error) string { return trapKindOf(err) }
