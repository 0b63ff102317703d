package codegen

// Tier-2 execution lowering: the optimizing tier of the execution engine
// (§3.4, "invokes the appropriate code generator at runtime, translating
// one function at a time"). Where the baseline JIT tier keeps the CFG and
// dispatches per-block with map-resolved φ edges, this lowering produces a
// flat, linearized form the dispatch loop can run with nothing but array
// indexing:
//
//   - the whole function is one []EInstr; every CFG edge is an EEdge: the
//     successor's pc plus the edge's φ copies, sequentialized at lowering
//     time, so a branch runs its edge's copies inside its own dispatch and
//     block entry does no φ evaluation at all (φs read as arguments passed
//     along the branch);
//   - a conditional branch whose condition is an integer compare just
//     before it — optionally through MiniC's `cast bool to int; setne 0`
//     idiom — is a fused group: the compare (the group's head) gets a
//     fused opcode that runs every constituent's arm and the branch in one
//     dispatch. The constituents stay in Code after the head, so pcs,
//     SrcOf and BlockOf are those of the unfused code, and the executor
//     can still run them one by one when a step-limit or cancellation
//     boundary falls inside the group;
//   - every SSA value lives in a dense word register file assigned by the
//     allocator in regalloc.go, reusing the native allocator's
//     block-locality discipline (cross-block values get dedicated
//     registers, block-local values share a scratch pool);
//   - opcodes are specialized by width and signedness at lowering time
//     (EAdd64 vs masked EAddM, shifted signed compares, sized loads), so
//     the executor does no per-instruction type dispatch.
//
// The lowering is machine-independent: constants (including global and
// function addresses) are kept symbolically in a pool and resolved to raw
// bits per Machine, so one EFunction is shareable across every machine
// executing the same module.

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
)

// EOp enumerates tier-2 executable opcodes. ECount is synthetic (the
// profiling variant's block-entry counter, no IR counterpart) and must not
// count as an executed instruction, so the executor's step accounting is
// gated on op != ECount. Every other op corresponds to exactly one IR
// instruction; a fused head steps for its whole group.
type EOp uint8

const (
	ECount EOp = iota // block-entry profile counter; Imm = block index

	// Integer arithmetic. The 64-bit forms skip masking; the M forms mask
	// the result with Imm (truncToWidth semantics).
	EMov   // Dst <- A
	EAdd64 // Dst <- A + B
	EAddM  // Dst <- (A + B) & Imm
	ESub64
	ESubM
	EMul64
	EMulM
	EAnd // logic masks with Imm too: operands may be non-canonical (a 1-byte
	EOr  // load can yield 0xFF for a bool), and bool logic is just mask 1
	EXor
	EShl  // Imm = result mask, Aux = bit width (shift >= width yields 0)
	EShrU // Imm = result mask, Aux = bit width
	EShrS // Imm = result mask, Aux = 64-width sext shift
	EDivU // Imm = result mask; traps on B == 0
	EDivS // Imm = result mask, B(field) unused, Aux = 64-width sext shift
	ERemU
	ERemS

	// Comparisons produce bool bits. Unsigned/equality forms mask with
	// Imm; signed forms sign-extend via the Imm shift (64-width).
	ECmpEq
	ECmpNe
	ECmpULt
	ECmpUGt
	ECmpULe
	ECmpUGe
	ECmpSLt
	ECmpSGt
	ECmpSLe
	ECmpSGe

	// Floats delegate to core's evaluation helpers: Imm = core.Opcode,
	// Aux = index into Types (float32 rounds per step there).
	EFBin
	EFCmp

	// Casts. ECastTrunc masks with Imm; ECastSext sign-extends by the B
	// shift then masks with Imm (EvalIntCast semantics); ECastBool is
	// v != 0; ECastGen (float conversions) evaluates Casts[Aux] exactly
	// like the interpreter's castBits.
	ECastTrunc
	ECastSext
	ECastBool
	ECastGen

	// Sized memory ops (A = address for loads; A = value, B = address for
	// stores).
	ELoad1
	ELoad2
	ELoad4
	ELoad8
	EStore1
	EStore2
	EStore4
	EStore8

	// Address arithmetic: Dst <- A + Imm (+ scaled terms of Geps[Aux]).
	EGepC
	EGep

	// Allocation: Imm = (element) size; A = element count for the V forms.
	EMallocF
	EMallocV
	EAllocaF
	EAllocaV
	EFree

	EVAArg
	ECall // Aux = index into Calls (covers call and invoke, direct and indirect)

	ERet // return reg A
	ERetVoid
	EBr     // take edge {Imm, Dst}
	ECondBr // take edge {Imm, Dst} if A != 0, else {Aux, B}
	ESwitch // Switches[Aux] on reg A; default edge {Imm, Dst}
	EUnwind

	// Fused heads, one per compare kind in ECmpEq's order: the compare
	// itself (Dst, A, B, Imm as the plain op), then the Aux instructions
	// after it in Code, in the same dispatch: the ECondBr reading it
	// (Aux = 1), or an ECastTrunc of it, an ECmpNe of the cast and the
	// ECondBr reading that (Aux = 3).
	ECmpEqBr
	ECmpNeBr
	ECmpULtBr
	ECmpUGtBr
	ECmpULeBr
	ECmpUGeBr
	ECmpSLtBr
	ECmpSGtBr
	ECmpSLeBr
	ECmpSGeBr
)

// Fused is the number of instructions after in that its dispatch also
// runs: a fused head's group, 0 for every other instruction.
func (in *EInstr) Fused() int {
	if in.Op >= ECmpEqBr {
		return int(in.Aux)
	}
	return 0
}

// EInstr is one flat tier-2 instruction. Dst, A and B are register
// indices into the activation frame (except that a branch keeps its edges'
// copy-list indices in Dst and B); Imm/Aux carry immediates, masks, pcs,
// and side-table indices as each opcode requires.
type EInstr struct {
	Imm int64
	Dst int32
	A   int32
	B   int32
	Aux int32
	Op  EOp
}

// EGepTerm is one variable term of an address plan: reg's value,
// sign-extended by Shift, times Scale.
type EGepTerm struct {
	Reg   int32
	Scale int64
	Shift uint8
}

// ECallSite is the side table entry for a call or invoke.
type ECallSite struct {
	Target *core.Function // nil for indirect calls (callee address in Callee)
	Callee int32          // register holding the callee address (indirect only)
	Args   []int32        // argument registers
	Invoke bool
	Normal EEdge // invoke only
	Unwind EEdge // invoke only
}

// ESwitchTable is a sorted jump table: Vals ascending, Edges parallel.
// Duplicate case values keep the first occurrence (interpreter order).
type ESwitchTable struct {
	Vals  []uint64
	Edges []EEdge
}

// EEdge is one CFG edge as the executor takes it: run the copy list
// CopyLists[Copies] in order (the successor's φs as a parallel copy,
// already sequentialized through TempReg; Copies is -1 when there is
// nothing to copy), then continue at PC, the successor's first
// instruction. EBr and ECondBr hold their edges' two fields inline.
type EEdge struct {
	PC, Copies int32
}

// ECopy is one φ copy: Dst <- Src.
type ECopy struct {
	Dst, Src int32
}

// ECastPair is the (from, to) type pair of a general cast.
type ECastPair struct {
	From, To core.Type
}

// EFunction is a lowered tier-2 function. It is machine-independent and
// immutable after lowering: Consts holds unresolved constants the executor
// resolves to raw bits once per machine, so one translation is shared by
// every machine running the same module.
type EFunction struct {
	Fn        *core.Function
	Code      []EInstr
	NumRegs   int // total frame words: [args|values|temp|consts]
	NumArgs   int
	TempReg   int32 // parallel-copy scratch register
	ConstBase int   // first constant register
	Variadic  bool
	NumBlocks int

	Consts    []core.Constant
	CopyLists [][]ECopy // φ copy lists, one per edge that copies
	Calls     []ECallSite
	Geps      [][]EGepTerm
	Switches  []ESwitchTable
	Casts     []ECastPair
	Types     []core.Type // float operation types (EFBin/EFCmp)

	// Per-pc source positions for trap reports: the IR instruction a pc
	// lowers (nil for ECount) and its block index. Consulted only on the
	// error path and by the dispatch census.
	SrcOf   []core.Instruction
	BlockOf []int32
}

// GEPPath folds a getelementptr index path into a constant byte offset
// plus scaled variable terms, reported through term. It is the single
// source of address arithmetic shared by the MIR lowering (lowerGEPPath),
// the baseline JIT's address plans, and the tier-2 exec lowering, so all
// engines and code generators agree by construction.
func GEPPath(baseType core.Type, indices []core.Value, term func(idx core.Value, scale int64)) (int64, error) {
	pt, ok := baseType.(*core.PointerType)
	if !ok {
		return 0, fmt.Errorf("codegen: GEP base is not a pointer")
	}
	cur := core.Type(pt.Elem)
	var constOff int64
	for k, idx := range indices {
		if k == 0 {
			sz := int64(core.SizeOf(cur))
			if ci, ok := idx.(*core.ConstantInt); ok {
				constOff += ci.SExt() * sz
			} else {
				term(idx, sz)
			}
			continue
		}
		switch ct := cur.(type) {
		case *core.StructType:
			ci, ok := idx.(*core.ConstantInt)
			if !ok {
				return constOff, fmt.Errorf("codegen: non-constant struct field index")
			}
			f := int(ci.SExt())
			if f < 0 || f >= len(ct.Fields) {
				return constOff, fmt.Errorf("codegen: GEP field index %d out of range", f)
			}
			constOff += int64(core.FieldOffset(ct, f))
			cur = ct.Fields[f]
		case *core.ArrayType:
			sz := int64(core.SizeOf(ct.Elem))
			if ci, ok := idx.(*core.ConstantInt); ok {
				constOff += ci.SExt() * sz
			} else {
				term(idx, sz)
			}
			cur = ct.Elem
		default:
			return constOff, fmt.Errorf("codegen: GEP into non-aggregate %s", cur)
		}
	}
	return constOff, nil
}

type execLowerer struct {
	f  *core.Function
	ef *EFunction
	fr *execFrame

	blockIdx   map[*core.BasicBlock]int32
	blockStart []int32
	constReg   map[core.Constant]int32
	typeIdx    map[core.Type]int32
}

// LowerExec translates f to its flat tier-2 form. It fails (cleanly, no
// panic) on constructs the translation cannot represent — placeholder
// operands, malformed GEPs — exactly the cases the baseline JIT also
// rejects; callers fall back to a lower tier.
//
// counts selects the profiling variant: an ECount at every block entry.
// Non-profiling executions get code with no counter instructions at all —
// one fewer dispatch per block, which matters in tight loops. The two
// variants are otherwise identical (ECount is synthetic and unstepped),
// so results and positions cannot differ between them.
func LowerExec(f *core.Function, counts bool) (*EFunction, error) {
	if f.IsDeclaration() {
		return nil, fmt.Errorf("codegen: cannot lower declaration %%%s", f.Name())
	}
	fr := assignExecRegs(f)
	lo := &execLowerer{
		f:  f,
		fr: fr,
		ef: &EFunction{
			Fn:        f,
			NumArgs:   len(f.Args),
			Variadic:  f.Sig.Variadic,
			NumBlocks: len(f.Blocks),
			TempReg:   fr.numVals,
			ConstBase: int(fr.numVals) + 1,
		},
		blockIdx: map[*core.BasicBlock]int32{},
		constReg: map[core.Constant]int32{},
		typeIdx:  map[core.Type]int32{},
	}
	// Every non-φ instruction lowers to exactly one EInstr, so each block's
	// entry pc is known before any branch to it is lowered.
	lo.blockStart = make([]int32, len(f.Blocks))
	pc := int32(0)
	for bi, b := range f.Blocks {
		if len(b.Instrs) == 0 || !b.Instrs[len(b.Instrs)-1].IsTerminator() {
			return nil, fmt.Errorf("codegen: block %%%s in %%%s lacks a terminator", b.Name(), f.Name())
		}
		lo.blockIdx[b] = int32(bi)
		lo.blockStart[bi] = pc
		pc += int32(len(b.Instrs) - b.FirstNonPhi())
		if counts {
			pc++
		}
	}
	for bi, b := range f.Blocks {
		if int32(len(lo.ef.Code)) != lo.blockStart[bi] {
			return nil, fmt.Errorf("codegen: block %%%s in %%%s did not lower one instruction per instruction", b.Name(), f.Name())
		}
		if counts {
			lo.emit(EInstr{Op: ECount, Imm: int64(bi)}, nil, int32(bi))
		}
		for _, inst := range b.Instrs[b.FirstNonPhi():] {
			if err := lo.lowerInst(inst, int32(bi)); err != nil {
				return nil, err
			}
		}
		lo.fuseBranch(lo.blockStart[bi])
	}
	lo.ef.NumRegs = lo.ef.ConstBase + len(lo.ef.Consts)
	return lo.ef, nil
}

func (lo *execLowerer) emit(in EInstr, src core.Instruction, block int32) {
	lo.ef.Code = append(lo.ef.Code, in)
	lo.ef.SrcOf = append(lo.ef.SrcOf, src)
	lo.ef.BlockOf = append(lo.ef.BlockOf, block)
}

// reg resolves an operand to its frame register, pooling constants.
func (lo *execLowerer) reg(v core.Value) (int32, error) {
	if c, ok := v.(core.Constant); ok {
		if _, bad := c.(*core.Placeholder); bad {
			return 0, fmt.Errorf("codegen: placeholder operand in %%%s", lo.f.Name())
		}
		if r, ok := lo.constReg[c]; ok {
			return r, nil
		}
		r := int32(lo.ef.ConstBase + len(lo.ef.Consts))
		lo.ef.Consts = append(lo.ef.Consts, c)
		lo.constReg[c] = r
		return r, nil
	}
	r, ok := lo.fr.reg[v]
	if !ok {
		return 0, fmt.Errorf("codegen: unassigned operand %T in %%%s", v, lo.f.Name())
	}
	return r, nil
}

func (lo *execLowerer) typeOf(t core.Type) int32 {
	if i, ok := lo.typeIdx[t]; ok {
		return i
	}
	i := int32(len(lo.ef.Types))
	lo.ef.Types = append(lo.ef.Types, t)
	lo.typeIdx[t] = i
	return i
}

// maskOf is truncToWidth's mask for a bit width.
func maskOf(bits int) int64 {
	if bits >= 64 {
		return -1
	}
	return int64(uint64(1)<<uint(bits) - 1)
}

func (lo *execLowerer) lowerInst(inst core.Instruction, bi int32) error {
	emit := func(in EInstr) { lo.emit(in, inst, bi) }
	dst := int32(-1)
	if inst.Type() != core.VoidType {
		r, err := lo.reg(inst)
		if err != nil {
			return err
		}
		dst = r
	}

	switch i := inst.(type) {
	case *core.RetInst:
		if i.Value() == nil {
			emit(EInstr{Op: ERetVoid})
			return nil
		}
		a, err := lo.reg(i.Value())
		if err != nil {
			return err
		}
		emit(EInstr{Op: ERet, A: a})
		return nil

	case *core.BranchInst:
		t, err := lo.edge(bi, i.TrueDest())
		if err != nil {
			return err
		}
		if !i.IsConditional() {
			emit(EInstr{Op: EBr, Imm: int64(t.PC), Dst: t.Copies})
			return nil
		}
		a, err := lo.reg(i.Cond())
		if err != nil {
			return err
		}
		f, err := lo.edge(bi, i.FalseDest())
		if err != nil {
			return err
		}
		emit(EInstr{Op: ECondBr, A: a, Imm: int64(t.PC), Dst: t.Copies, Aux: f.PC, B: f.Copies})
		return nil

	case *core.SwitchInst:
		a, err := lo.reg(i.Value())
		if err != nil {
			return err
		}
		// Keep the first destination for duplicate case values (the
		// interpreter scans cases in order), then sort for binary search.
		type swCase struct {
			val  uint64
			edge EEdge
		}
		var cases []swCase
		seen := map[uint64]bool{}
		for n := 0; n < i.NumCases(); n++ {
			cv, dest := i.Case(n)
			if seen[cv.Val] {
				continue
			}
			seen[cv.Val] = true
			e, err := lo.edge(bi, dest)
			if err != nil {
				return err
			}
			cases = append(cases, swCase{cv.Val, e})
		}
		sort.Slice(cases, func(x, y int) bool { return cases[x].val < cases[y].val })
		tab := ESwitchTable{Vals: make([]uint64, len(cases)), Edges: make([]EEdge, len(cases))}
		for n, c := range cases {
			tab.Vals[n], tab.Edges[n] = c.val, c.edge
		}
		def, err := lo.edge(bi, i.Default())
		if err != nil {
			return err
		}
		ti := int32(len(lo.ef.Switches))
		lo.ef.Switches = append(lo.ef.Switches, tab)
		emit(EInstr{Op: ESwitch, A: a, Imm: int64(def.PC), Dst: def.Copies, Aux: ti})
		return nil

	case *core.UnwindInst:
		emit(EInstr{Op: EUnwind})
		return nil

	case *core.BinaryInst:
		a, err := lo.reg(i.LHS())
		if err != nil {
			return err
		}
		b, err := lo.reg(i.RHS())
		if err != nil {
			return err
		}
		return lo.lowerBinary(i, dst, a, b, emit)

	case *core.MallocInst:
		esz := uint64(core.SizeOf(i.AllocType))
		if n := i.NumElems(); n != nil {
			a, err := lo.reg(n)
			if err != nil {
				return err
			}
			emit(EInstr{Op: EMallocV, Dst: dst, A: a, Imm: int64(esz)})
			return nil
		}
		emit(EInstr{Op: EMallocF, Dst: dst, Imm: int64(esz)})
		return nil

	case *core.AllocaInst:
		esz := uint64(core.SizeOf(i.AllocType))
		if n := i.NumElems(); n != nil {
			a, err := lo.reg(n)
			if err != nil {
				return err
			}
			emit(EInstr{Op: EAllocaV, Dst: dst, A: a, Imm: int64(esz)})
			return nil
		}
		emit(EInstr{Op: EAllocaF, Dst: dst, Imm: int64(esz)})
		return nil

	case *core.FreeInst:
		a, err := lo.reg(i.Ptr())
		if err != nil {
			return err
		}
		emit(EInstr{Op: EFree, A: a})
		return nil

	case *core.LoadInst:
		a, err := lo.reg(i.Ptr())
		if err != nil {
			return err
		}
		op, err := sizedOp(ELoad1, ELoad2, ELoad4, ELoad8, i.Type())
		if err != nil {
			return err
		}
		emit(EInstr{Op: op, Dst: dst, A: a})
		return nil

	case *core.StoreInst:
		a, err := lo.reg(i.Val())
		if err != nil {
			return err
		}
		b, err := lo.reg(i.Ptr())
		if err != nil {
			return err
		}
		op, err := sizedOp(EStore1, EStore2, EStore4, EStore8, i.Val().Type())
		if err != nil {
			return err
		}
		emit(EInstr{Op: op, A: a, B: b})
		return nil

	case *core.GetElementPtrInst:
		a, err := lo.reg(i.Base())
		if err != nil {
			return err
		}
		var terms []EGepTerm
		var termErr error
		off, err := GEPPath(i.Base().Type(), i.Indices(), func(idx core.Value, scale int64) {
			r, e := lo.reg(idx)
			if e != nil {
				termErr = e
				return
			}
			var shift uint8
			if t := idx.Type(); core.IsSigned(t) {
				if bits := core.BitWidth(t); bits < 64 {
					shift = uint8(64 - bits)
				}
			}
			terms = append(terms, EGepTerm{Reg: r, Scale: scale, Shift: shift})
		})
		if err != nil {
			return err
		}
		if termErr != nil {
			return termErr
		}
		if len(terms) == 0 {
			emit(EInstr{Op: EGepC, Dst: dst, A: a, Imm: off})
			return nil
		}
		gi := int32(len(lo.ef.Geps))
		lo.ef.Geps = append(lo.ef.Geps, terms)
		emit(EInstr{Op: EGep, Dst: dst, A: a, Imm: off, Aux: gi})
		return nil

	case *core.CastInst:
		a, err := lo.reg(i.Val())
		if err != nil {
			return err
		}
		lo.lowerCast(i.Val().Type(), i.Type(), dst, a, emit)
		return nil

	case *core.CallInst:
		return lo.lowerCall(dst, i.Callee(), i.Args(), nil, nil, bi, emit)

	case *core.InvokeInst:
		return lo.lowerCall(dst, i.Callee(), i.Args(), i.NormalDest(), i.UnwindDest(), bi, emit)

	case *core.VAArgInst:
		emit(EInstr{Op: EVAArg, Dst: dst})
		return nil
	}
	return fmt.Errorf("codegen: cannot lower %s for execution", inst.Opcode())
}

// sizedOp picks the 1/2/4/8-byte variant for a first-class type.
func sizedOp(b1, b2, b4, b8 EOp, t core.Type) (EOp, error) {
	switch core.SizeOf(t) {
	case 1:
		return b1, nil
	case 2:
		return b2, nil
	case 4:
		return b4, nil
	case 8:
		return b8, nil
	}
	return 0, fmt.Errorf("codegen: memory op on %d-byte type %s", core.SizeOf(t), t)
}

// lowerBinary specializes one arithmetic/logic/comparison instruction by
// operand type, replicating the interpreter's execBinary semantics
// (core/arith.go: operate raw, then truncate to width; signed operations
// sign-extend through shifts).
func (lo *execLowerer) lowerBinary(i *core.BinaryInst, dst, a, b int32, emit func(EInstr)) error {
	t := i.LHS().Type()
	op := i.Opcode()

	if core.IsFloatingPoint(t) {
		ti := lo.typeOf(t)
		k := EFBin
		if core.IsComparisonOp(op) {
			k = EFCmp
		}
		emit(EInstr{Op: k, Dst: dst, A: a, B: b, Imm: int64(op), Aux: ti})
		return nil
	}

	// bool and pointer comparisons / arithmetic use unsigned 64-bit
	// semantics, exactly like the interpreter.
	et := t
	if !core.IsInteger(et) {
		et = core.ULongType
	}
	bits := core.BitWidth(et)
	signed := core.IsSigned(et)

	if core.IsComparisonOp(op) {
		if signed {
			shift := int64(0)
			if bits < 64 {
				shift = int64(64 - bits)
			}
			var k EOp
			switch op {
			case core.OpSetEQ:
				k = ECmpEq
			case core.OpSetNE:
				k = ECmpNe
			case core.OpSetLT:
				k = ECmpSLt
			case core.OpSetGT:
				k = ECmpSGt
			case core.OpSetLE:
				k = ECmpSLe
			case core.OpSetGE:
				k = ECmpSGe
			}
			imm := shift
			if k == ECmpEq || k == ECmpNe {
				imm = maskOf(bits)
			}
			emit(EInstr{Op: k, Dst: dst, A: a, B: b, Imm: imm})
			return nil
		}
		var k EOp
		switch op {
		case core.OpSetEQ:
			k = ECmpEq
		case core.OpSetNE:
			k = ECmpNe
		case core.OpSetLT:
			k = ECmpULt
		case core.OpSetGT:
			k = ECmpUGt
		case core.OpSetLE:
			k = ECmpULe
		case core.OpSetGE:
			k = ECmpUGe
		}
		emit(EInstr{Op: k, Dst: dst, A: a, B: b, Imm: maskOf(bits)})
		return nil
	}

	if t.Kind() == core.BoolKind {
		var k EOp
		switch op {
		case core.OpAnd:
			k = EAnd
		case core.OpOr:
			k = EOr
		case core.OpXor:
			k = EXor
		default:
			return fmt.Errorf("codegen: bad bool op %s", op)
		}
		emit(EInstr{Op: k, Dst: dst, A: a, B: b, Imm: 1})
		return nil
	}

	switch op {
	case core.OpAdd:
		if bits >= 64 {
			emit(EInstr{Op: EAdd64, Dst: dst, A: a, B: b})
		} else {
			emit(EInstr{Op: EAddM, Dst: dst, A: a, B: b, Imm: maskOf(bits)})
		}
	case core.OpSub:
		if bits >= 64 {
			emit(EInstr{Op: ESub64, Dst: dst, A: a, B: b})
		} else {
			emit(EInstr{Op: ESubM, Dst: dst, A: a, B: b, Imm: maskOf(bits)})
		}
	case core.OpMul:
		if bits >= 64 {
			emit(EInstr{Op: EMul64, Dst: dst, A: a, B: b})
		} else {
			emit(EInstr{Op: EMulM, Dst: dst, A: a, B: b, Imm: maskOf(bits)})
		}
	case core.OpAnd:
		emit(EInstr{Op: EAnd, Dst: dst, A: a, B: b, Imm: maskOf(bits)})
	case core.OpOr:
		emit(EInstr{Op: EOr, Dst: dst, A: a, B: b, Imm: maskOf(bits)})
	case core.OpXor:
		emit(EInstr{Op: EXor, Dst: dst, A: a, B: b, Imm: maskOf(bits)})
	case core.OpShl:
		emit(EInstr{Op: EShl, Dst: dst, A: a, B: b, Imm: maskOf(bits), Aux: int32(bits)})
	case core.OpShr:
		if signed {
			emit(EInstr{Op: EShrS, Dst: dst, A: a, B: b, Imm: maskOf(bits), Aux: int32(64 - bits)})
		} else {
			emit(EInstr{Op: EShrU, Dst: dst, A: a, B: b, Imm: maskOf(bits), Aux: int32(bits)})
		}
	case core.OpDiv:
		if signed {
			emit(EInstr{Op: EDivS, Dst: dst, A: a, B: b, Imm: maskOf(bits), Aux: int32(64 - bits)})
		} else {
			emit(EInstr{Op: EDivU, Dst: dst, A: a, B: b, Imm: maskOf(bits)})
		}
	case core.OpRem:
		if signed {
			emit(EInstr{Op: ERemS, Dst: dst, A: a, B: b, Imm: maskOf(bits), Aux: int32(64 - bits)})
		} else {
			emit(EInstr{Op: ERemU, Dst: dst, A: a, B: b, Imm: maskOf(bits)})
		}
	default:
		return fmt.Errorf("codegen: bad int op %s", op)
	}
	return nil
}

// lowerCast specializes the interpreter's castBits decision tree at
// lowering time. Only conversions involving floats stay generic.
func (lo *execLowerer) lowerCast(from, to core.Type, dst, a int32, emit func(EInstr)) {
	switch {
	case core.IsFloatingPoint(from) || core.IsFloatingPoint(to):
		ci := int32(len(lo.ef.Casts))
		lo.ef.Casts = append(lo.ef.Casts, ECastPair{From: from, To: to})
		emit(EInstr{Op: ECastGen, Dst: dst, A: a, Aux: ci})
	case from.Kind() == core.PointerKind || to.Kind() == core.PointerKind:
		// Pointer-integer conversions keep the bit pattern (truncated to
		// the integer width when the destination is an integer).
		if core.IsInteger(to) {
			emit(EInstr{Op: ECastTrunc, Dst: dst, A: a, Imm: maskOf(core.BitWidth(to))})
		} else {
			emit(EInstr{Op: EMov, Dst: dst, A: a})
		}
	case to.Kind() == core.BoolKind:
		emit(EInstr{Op: ECastBool, Dst: dst, A: a})
	default:
		// Integer-to-integer: EvalIntCast. Sign-extend from the source
		// width when the source is signed, then truncate to the target.
		fb, tb := core.BitWidth(from), core.BitWidth(to)
		if core.IsSigned(from) && fb < 64 {
			emit(EInstr{Op: ECastSext, Dst: dst, A: a, B: int32(64 - fb), Imm: maskOf(tb)})
		} else {
			m := fb
			if tb < m {
				m = tb
			}
			emit(EInstr{Op: ECastTrunc, Dst: dst, A: a, Imm: maskOf(m)})
		}
	}
}

func (lo *execLowerer) lowerCall(dst int32, callee core.Value,
	args []core.Value, normal, unwind *core.BasicBlock, bi int32, emit func(EInstr)) error {

	cs := ECallSite{Callee: -1}
	for _, a := range args {
		r, err := lo.reg(a)
		if err != nil {
			return err
		}
		cs.Args = append(cs.Args, r)
	}
	if f, ok := callee.(*core.Function); ok {
		cs.Target = f
	} else {
		r, err := lo.reg(callee)
		if err != nil {
			return err
		}
		cs.Callee = r
	}
	if normal != nil {
		var err error
		cs.Invoke = true
		if cs.Normal, err = lo.edge(bi, normal); err != nil {
			return err
		}
		if cs.Unwind, err = lo.edge(bi, unwind); err != nil {
			return err
		}
	}
	ci := int32(len(lo.ef.Calls))
	lo.ef.Calls = append(lo.ef.Calls, cs)
	emit(EInstr{Op: ECall, Dst: dst, Aux: ci})
	return nil
}

// edge lowers the CFG edge from block bi to succ: succ's entry pc, and
// the edge's φ copies in registers, sequentialized through the temp
// register and appended to CopyLists unless every copy is a no-op.
func (lo *execLowerer) edge(bi int32, succ *core.BasicBlock) (EEdge, error) {
	e := EEdge{PC: lo.blockStart[lo.blockIdx[succ]], Copies: -1}
	var dsts, srcs []int32
	err := edgeCopies(lo.f.Blocks[bi], succ, func(phi *core.PhiInst, v core.Value) error {
		d, err := lo.reg(phi)
		if err != nil {
			return err
		}
		s, err := lo.reg(v)
		if err != nil {
			return err
		}
		dsts, srcs = append(dsts, d), append(srcs, s)
		return nil
	})
	if err != nil {
		return e, err
	}
	var copies []ECopy
	seqCopies(dsts, srcs, lo.ef.TempReg, func(d, s int32) {
		copies = append(copies, ECopy{Dst: d, Src: s})
	})
	if len(copies) > 0 {
		e.Copies = int32(len(lo.ef.CopyLists))
		lo.ef.CopyLists = append(lo.ef.CopyLists, copies)
	}
	return e, nil
}

// fuseBranch makes a fused group of the block just lowered (from pc
// start) when its conditional branch reads an integer compare right
// before it, directly or through the `cast bool to int; setne` idiom:
// the compare becomes the group's head. Each constituent must read the
// one before it, which lets the executor pass that value along without
// reading it back. Nothing else changes, so the constituents still run
// one by one wherever the head does not fuse.
func (lo *execLowerer) fuseBranch(start int32) {
	code := lo.ef.Code
	t := int32(len(code)) - 1
	br := code[t]
	if br.Op != ECondBr {
		return
	}
	fuse := func(head *EInstr, rest int32) {
		head.Op += ECmpEqBr - ECmpEq
		head.Aux = rest
	}
	if t-3 >= start {
		head, cast, ne := &code[t-3], code[t-2], code[t-1]
		if isIntCmp(head.Op) && cast.Op == ECastTrunc && cast.A == head.Dst &&
			ne.Op == ECmpNe && ne.A == cast.Dst && ne.Dst == br.A {
			fuse(head, 3)
			return
		}
	}
	if t-1 >= start && isIntCmp(code[t-1].Op) && code[t-1].Dst == br.A {
		fuse(&code[t-1], 1)
	}
}

// isIntCmp reports an unfused integer compare op.
func isIntCmp(op EOp) bool { return op >= ECmpEq && op <= ECmpSGe }

// The edge plan both lowerings share. A φ is an argument passed along a
// branch: the edge from pred to succ assigns every φ at the head of succ
// the value it reads for pred, all at once. edgeCopies names that parallel
// copy in value space; each lowering maps it to its own names (tier-2
// registers, native vregs) and orders it with seqCopies.

// edgeCopies calls visit for each φ at the head of succ with the value it
// reads on the edge from pred, in φ order. It fails when a φ has no entry
// for pred, or when visit fails.
func edgeCopies(pred, succ *core.BasicBlock, visit func(phi *core.PhiInst, v core.Value) error) error {
	for _, inst := range succ.Instrs {
		phi, ok := inst.(*core.PhiInst)
		if !ok {
			break
		}
		v := phi.IncomingFor(pred)
		if v == nil {
			return fmt.Errorf("codegen: phi %%%s has no entry for predecessor %%%s", phi.Name(), pred.Name())
		}
		if err := visit(phi, v); err != nil {
			return err
		}
	}
	return nil
}

// seqCopies sequentializes the parallel copy dsts[i] <- srcs[i]: it emits
// the moves in an order where no source is overwritten before it is read,
// skipping no-ops and breaking each cycle (a swap) by parking one source
// in temp first. The dsts must be distinct. It reorders and overwrites
// dsts and srcs.
func seqCopies[T ~int32](dsts, srcs []T, temp T, emit func(d, s T)) {
	for len(dsts) > 0 {
		progress := false
		for i := 0; i < len(dsts); i++ {
			if d, s := dsts[i], srcs[i]; d == s || !slices.Contains(srcs, d) {
				if d != s {
					emit(d, s)
				}
				dsts, srcs = slices.Delete(dsts, i, i+1), slices.Delete(srcs, i, i+1)
				i--
				progress = true
			}
		}
		if !progress {
			// Pure cycle: park one source in temp, redirect its readers.
			s := srcs[0]
			emit(temp, s)
			for j := range srcs {
				if srcs[j] == s {
					srcs[j] = temp
				}
			}
		}
	}
}
