// Package interp is the execution engine (§3.4): a portable interpreter for
// IR modules. It implements the unified memory model of §2.3 with a flat
// byte-addressable arena (so type-punning through casts behaves like real
// memory), the invoke/unwind exception mechanism of §2.4 by unwinding
// interpreter frames until an invoke is found, and a small registry of
// external functions (printf and friends) that front-end runtimes use.
package interp

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/obs"
)

// Limits protect against runaway programs.
const (
	DefaultMaxSteps     = 200_000_000
	DefaultMaxDepth     = 10_000
	DefaultMaxHeapBytes = 1 << 30 // heap arena cap (1 GiB)
	stackSize           = 1 << 22 // per-machine stack arena limit (4 MiB)
	minStack            = 1 << 12 // first allocation of the stack arena
	// cancelCheckMask gates context polling to every 1024th step so
	// cooperative cancellation stays off the hot path.
	cancelCheckMask = 1<<10 - 1
)

// Common execution errors. Errors that escape RunFunction/RunContext are
// wrapped in *Trap (carrying the faulting position) but still match these
// sentinels under errors.Is.
var (
	ErrMaxSteps        = errors.New("interp: step limit exceeded")
	ErrStackOverflow   = errors.New("interp: call depth exceeded")
	ErrNullDeref       = errors.New("interp: null pointer dereference")
	ErrOutOfBounds     = errors.New("interp: memory access out of bounds")
	ErrUncaughtUnwind  = errors.New("interp: unwind with no enclosing invoke")
	ErrDivideByZero    = errors.New("interp: integer division by zero")
	ErrBadIndirectCall = errors.New("interp: indirect call through bad function pointer")
	ErrDoubleFree      = errors.New("interp: free of unallocated or already-freed pointer")
	ErrCancelled       = errors.New("interp: execution cancelled")
	ErrHeapLimit       = errors.New("interp: heap limit exceeded")
	// ErrTrap marks an internal fault (a recovered interpreter/JIT panic)
	// rather than a well-defined program error.
	ErrTrap = errors.New("interp: runtime trap")
)

// Trap is a typed execution fault: the underlying cause plus the position
// (function, block, instruction) the machine was executing when it fired.
// It unwraps to its cause, so errors.Is(err, ErrNullDeref) etc. still work.
type Trap struct {
	Cause error
	Fn    string // faulting function name ("" if unknown)
	Block string // basic block name ("" if unnamed/unknown)
	Inst  string // rendered instruction ("" if unknown, e.g. in JIT code)
}

// Pos returns the fault position in the toolchain's shared diagnostic
// coordinates, so a runtime trap can be matched against the static
// checker's prediction for the same instruction.
func (t *Trap) Pos() diag.Pos {
	return diag.Pos{Fn: t.Fn, Block: t.Block, Inst: t.Inst}
}

func (t *Trap) Error() string {
	msg := t.Cause.Error()
	if loc := t.Pos().String(); loc != "" {
		msg += " " + loc
	}
	return msg
}

func (t *Trap) Unwrap() error { return t.Cause }

// Builtin is a native implementation of an external function. Args are raw
// 64-bit values per the declared parameter types (plus variadic extras);
// the result is the raw return value.
type Builtin func(m *Machine, args []uint64) (uint64, error)

// Machine executes one module.
type Machine struct {
	Mod *core.Module
	// Out receives program output (printf etc.).
	Out io.Writer
	// MaxSteps and MaxDepth bound execution.
	MaxSteps int64
	MaxDepth int
	// MaxHeapBytes caps the heap arena (globals + malloc); 0 disables the
	// cap. Exceeding it traps with ErrHeapLimit instead of exhausting the
	// host.
	MaxHeapBytes int64

	// Metrics, when set, receives per-run counters: runs, instructions
	// executed, and traps broken down by kind (llvm_interp_*, DESIGN.md
	// §10). Recorded once per outermost RunContext.
	Metrics *obs.Registry

	// Steps counts executed instructions; OpCounts breaks them down.
	Steps    int64
	OpCounts [core.NumOpcodes]int64
	// MallocBytes and NumMallocs track heap usage.
	MallocBytes int64
	NumMallocs  int64

	heap      []byte
	stack     []byte
	stackTop  uint64
	allocs    map[uint64]uint64 // live heap allocations: addr -> size
	globals   map[*core.GlobalVariable]uint64
	funcAddrs map[*core.Function]uint64
	funcAt    map[uint64]*core.Function
	builtins  map[string]Builtin
	depth     int
	runDepth  int // nesting of RunContext; metrics record at the outermost

	// Tiered execution (DESIGN.md §12). tier selects the policy; fstates
	// carries per-function translations, hotness counters, and profile
	// counts; prog, when attached, shares translations across machines.
	tier      TierPolicy
	HotCalls  int64 // TierAuto: promote after this many calls
	HotTicks  int64 // TierAuto: promote after this many steps inside the function
	fstates   map[*core.Function]*funcState
	prog      *Program
	profiling bool
	argBuf    []uint64 // shared call-argument arena (watermark discipline)

	tierCalls     [3]int64
	tierCompiles  [3]int64
	tierCompileNs [3]int64
	tierUps       int64

	// ctx enables cooperative cancellation while a RunContext call is
	// active; cur* record the execution position for trap reports.
	ctx      context.Context
	curFn    *core.Function
	curBlock *core.BasicBlock
	curInst  core.Instruction
}

// NewMachine prepares a machine: lays out globals, assigns function
// addresses, and registers the standard builtins. Out may be nil to
// discard output.
func NewMachine(m *core.Module, out io.Writer) (*Machine, error) {
	if out == nil {
		out = io.Discard
	}
	mc := &Machine{
		Mod:          m,
		Out:          out,
		MaxSteps:     DefaultMaxSteps,
		MaxDepth:     DefaultMaxDepth,
		MaxHeapBytes: DefaultMaxHeapBytes,
		HotCalls:     DefaultHotCalls,
		HotTicks:     DefaultHotTicks,
		heap:         make([]byte, 8), // address 0 reserved (null)
		stackTop:     8,
		allocs:       map[uint64]uint64{},
		globals:      map[*core.GlobalVariable]uint64{},
		funcAddrs:    map[*core.Function]uint64{},
		funcAt:       map[uint64]*core.Function{},
		builtins:     map[string]Builtin{},
	}
	// LLVM_INTERP_TIER forces an execution tier for every machine in the
	// process (the CI matrix runs the whole test suite at each tier).
	if s := os.Getenv("LLVM_INTERP_TIER"); s != "" {
		if p, ok := ParseTierPolicy(s); ok {
			mc.tier = p
		}
	}
	registerStdBuiltins(mc)

	// Function descriptors: 8 opaque bytes each.
	for _, f := range m.Funcs {
		addr := mc.rawAlloc(8)
		mc.funcAddrs[f] = addr
		mc.funcAt[addr] = f
	}
	// Globals. Hostile inputs can declare absurdly large (or overflowed)
	// value types; reject them instead of exhausting the host arena.
	for _, g := range m.Globals {
		size := core.SizeOf(g.ValueType)
		if size == 0 {
			size = 8
		}
		if size < 0 || (mc.MaxHeapBytes > 0 && int64(len(mc.heap))+int64(size) > mc.MaxHeapBytes) {
			return nil, fmt.Errorf("%w: global %%%s of type %s", ErrHeapLimit, g.Name(), g.ValueType)
		}
		mc.globals[g] = mc.rawAlloc(uint64(size))
	}
	for _, g := range m.Globals {
		if g.Init != nil {
			if err := mc.storeConstant(mc.globals[g], g.Init); err != nil {
				return nil, fmt.Errorf("initializing %%%s: %w", g.Name(), err)
			}
		}
	}
	return mc, nil
}

// RegisterBuiltin installs (or overrides) a native external function.
func (mc *Machine) RegisterBuiltin(name string, fn Builtin) { mc.builtins[name] = fn }

// rawAlloc grows the heap by n bytes (8-byte aligned) and returns the base.
func (mc *Machine) rawAlloc(n uint64) uint64 {
	addr := uint64(len(mc.heap))
	if rem := addr % 8; rem != 0 {
		mc.heap = append(mc.heap, make([]byte, 8-rem)...)
		addr = uint64(len(mc.heap))
	}
	mc.heap = append(mc.heap, make([]byte, n)...)
	return addr
}

// Malloc allocates n bytes on the heap (the malloc instruction). It traps
// with ErrHeapLimit when the allocation would push the arena past
// MaxHeapBytes.
func (mc *Machine) Malloc(n uint64) (uint64, error) {
	if n == 0 {
		n = 1
	}
	if mc.MaxHeapBytes > 0 {
		if n > uint64(mc.MaxHeapBytes) || int64(len(mc.heap))+int64(n) > mc.MaxHeapBytes {
			return 0, ErrHeapLimit
		}
	}
	addr := mc.rawAlloc(n)
	mc.allocs[addr] = n
	mc.MallocBytes += int64(n)
	mc.NumMallocs++
	return addr, nil
}

// Free releases a heap allocation (the free instruction).
func (mc *Machine) Free(addr uint64) error {
	if addr == 0 {
		return nil // free(null) is a no-op
	}
	if _, ok := mc.allocs[addr]; !ok {
		return ErrDoubleFree
	}
	delete(mc.allocs, addr)
	return nil
}

// Memory addressing: the stack arena occupies addresses [stackBase,
// stackBase+stackSize), of which mc.stack backs the part touched so far;
// everything below is heap/globals.
const stackBase = 1 << 40

func (mc *Machine) mem(addr uint64, n int) ([]byte, error) {
	if addr == 0 {
		return nil, ErrNullDeref
	}
	if addr+uint64(n) < addr {
		// addr+n wrapped around: a hostile GEP produced a pointer near the
		// top of the address space. Without this check the bounds tests
		// below would pass spuriously and the slice would panic.
		return nil, ErrOutOfBounds
	}
	if addr >= stackBase {
		off := addr - stackBase
		if end := off + uint64(n); end > uint64(len(mc.stack)) {
			if end > stackSize {
				return nil, ErrOutOfBounds
			}
			mc.growStack(end)
		}
		return mc.stack[off : off+uint64(n)], nil
	}
	if addr+uint64(n) > uint64(len(mc.heap)) {
		return nil, ErrOutOfBounds
	}
	return mc.heap[addr : addr+uint64(n)], nil
}

// loadBits reads a first-class value of type t at addr.
func (mc *Machine) loadBits(addr uint64, t core.Type) (uint64, error) {
	size := core.SizeOf(t)
	b, err := mc.mem(addr, size)
	if err != nil {
		return 0, err
	}
	switch size {
	case 1:
		return uint64(b[0]), nil
	case 2:
		return uint64(binary.LittleEndian.Uint16(b)), nil
	case 4:
		return uint64(binary.LittleEndian.Uint32(b)), nil
	case 8:
		return binary.LittleEndian.Uint64(b), nil
	}
	return 0, fmt.Errorf("interp: load of %d-byte type %s", size, t)
}

// storeBits writes a first-class value of type t at addr.
func (mc *Machine) storeBits(addr uint64, t core.Type, v uint64) error {
	size := core.SizeOf(t)
	b, err := mc.mem(addr, size)
	if err != nil {
		return err
	}
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(b, v)
	default:
		return fmt.Errorf("interp: store of %d-byte type %s", size, t)
	}
	return nil
}

// storeConstant writes a constant (possibly aggregate) into memory.
func (mc *Machine) storeConstant(addr uint64, c core.Constant) error {
	switch cc := c.(type) {
	case *core.ConstantInt:
		return mc.storeBits(addr, cc.Type(), cc.Val)
	case *core.ConstantFloat:
		return mc.storeBits(addr, cc.Type(), floatBits(cc.Type(), cc.Val))
	case *core.ConstantBool:
		v := uint64(0)
		if cc.Val {
			v = 1
		}
		return mc.storeBits(addr, core.BoolType, v)
	case *core.ConstantNull:
		return mc.storeBits(addr, cc.Type(), 0)
	case *core.ConstantUndef, *core.ConstantZero:
		return nil // memory is already zeroed
	case *core.ConstantArray:
		at := cc.Type().(*core.ArrayType)
		esz := uint64(core.SizeOf(at.Elem))
		for i, e := range cc.Elems {
			if err := mc.storeConstant(addr+uint64(i)*esz, e); err != nil {
				return err
			}
		}
		return nil
	case *core.ConstantStruct:
		st := cc.Type().(*core.StructType)
		for i, f := range cc.Fields {
			if err := mc.storeConstant(addr+uint64(core.FieldOffset(st, i)), f); err != nil {
				return err
			}
		}
		return nil
	case *core.Function:
		return mc.storeBits(addr, cc.Type(), mc.funcAddrs[cc])
	case *core.GlobalVariable:
		return mc.storeBits(addr, cc.Type(), mc.globals[cc])
	case *core.ConstantExpr:
		v, err := mc.evalConstant(cc)
		if err != nil {
			return err
		}
		return mc.storeBits(addr, cc.Type(), v)
	}
	return fmt.Errorf("interp: cannot store constant %T", c)
}

// evalConstant computes the raw bits of a first-class constant.
func (mc *Machine) evalConstant(c core.Constant) (uint64, error) {
	switch cc := c.(type) {
	case *core.ConstantInt:
		return cc.Val, nil
	case *core.ConstantFloat:
		return floatBits(cc.Type(), cc.Val), nil
	case *core.ConstantBool:
		if cc.Val {
			return 1, nil
		}
		return 0, nil
	case *core.ConstantNull:
		return 0, nil
	case *core.ConstantUndef, *core.ConstantZero:
		return 0, nil
	case *core.Function:
		return mc.funcAddrs[cc], nil
	case *core.GlobalVariable:
		return mc.globals[cc], nil
	case *core.ConstantExpr:
		switch cc.Op {
		case core.OpCast:
			src := cc.Operand(0).(core.Constant)
			v, err := mc.evalConstant(src)
			if err != nil {
				return 0, err
			}
			return castBits(src.Type(), cc.Type(), v), nil
		case core.OpGetElementPtr:
			base := cc.Operand(0).(core.Constant)
			v, err := mc.evalConstant(base)
			if err != nil {
				return 0, err
			}
			idxVals := make([]uint64, cc.NumOperands()-1)
			idxTypes := make([]core.Type, cc.NumOperands()-1)
			for i := 1; i < cc.NumOperands(); i++ {
				iv, err := mc.evalConstant(cc.Operand(i).(core.Constant))
				if err != nil {
					return 0, err
				}
				idxVals[i-1] = iv
				idxTypes[i-1] = cc.Operand(i).Type()
			}
			return gepAddress(base.Type(), v, cc.Operands()[1:], idxVals)
		}
	}
	return 0, fmt.Errorf("interp: cannot evaluate constant %T", c)
}

// gepAddress computes base + offsets for a getelementptr's index path.
func gepAddress(baseType core.Type, base uint64, idxOps []core.Value, idxVals []uint64) (uint64, error) {
	pt, ok := baseType.(*core.PointerType)
	if !ok {
		return 0, fmt.Errorf("interp: GEP base is not a pointer")
	}
	addr := int64(base)
	cur := core.Type(pt.Elem)
	for k := range idxOps {
		iv := int64(signExtend(idxOps[k].Type(), idxVals[k]))
		if k == 0 {
			addr += iv * int64(core.SizeOf(cur))
			continue
		}
		switch ct := cur.(type) {
		case *core.StructType:
			f := int(iv)
			if f < 0 || f >= len(ct.Fields) {
				return 0, ErrOutOfBounds
			}
			addr += int64(core.FieldOffset(ct, f))
			cur = ct.Fields[f]
		case *core.ArrayType:
			addr += iv * int64(core.SizeOf(ct.Elem))
			cur = ct.Elem
		default:
			return 0, fmt.Errorf("interp: GEP into non-aggregate %s", cur)
		}
	}
	return uint64(addr), nil
}

// signExtend interprets raw bits as a (possibly signed) integer value.
func signExtend(t core.Type, v uint64) uint64 {
	if core.IsSigned(t) {
		bits := core.BitWidth(t)
		if bits < 64 {
			shift := uint(64 - bits)
			return uint64(int64(v<<shift) >> shift)
		}
	}
	return v
}

// floatBits encodes a float value in the in-memory representation of t.
func floatBits(t core.Type, f float64) uint64 {
	if t.Kind() == core.FloatKind {
		return uint64(math.Float32bits(float32(f)))
	}
	return math.Float64bits(f)
}

// bitsToFloat decodes the in-memory representation of t.
func bitsToFloat(t core.Type, v uint64) float64 {
	if t.Kind() == core.FloatKind {
		return float64(math.Float32frombits(uint32(v)))
	}
	return math.Float64frombits(v)
}

// castBits implements the cast instruction over raw bits.
func castBits(from, to core.Type, v uint64) uint64 {
	switch {
	case core.IsFloatingPoint(from) && core.IsFloatingPoint(to):
		return floatBits(to, bitsToFloat(from, v))
	case core.IsFloatingPoint(from) && (core.IsInteger(to) || to.Kind() == core.BoolKind):
		return core.EvalFloatToInt(to, bitsToFloat(from, v))
	case core.IsFloatingPoint(to):
		return floatBits(to, core.EvalIntToFloat(from, to, v))
	case from.Kind() == core.PointerKind || to.Kind() == core.PointerKind:
		// Pointer-integer conversions keep the bit pattern (truncated).
		if core.IsInteger(to) {
			return core.EvalIntCast(core.ULongType, to, v)
		}
		return v
	case to.Kind() == core.BoolKind:
		if v != 0 {
			return 1
		}
		return 0
	default:
		return core.EvalIntCast(from, to, v)
	}
}
