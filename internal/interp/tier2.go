package interp

// The optimizing execution tier: runs the flat, register-allocated form
// produced by codegen.LowerExec in one tight pc-indexed dispatch loop.
// Compared to the baseline tier there is no per-block dispatch, no
// per-operand const-vs-slot test, no φ evaluation at block entry (a branch
// runs its edge's pre-sequentialized copies in its own dispatch), and no
// per-activation allocation (frames are recycled per function). Opcodes
// are width-specialized at lowering time, so the loop does no type
// dispatch at all, and a compare with the branch that reads it is one
// dispatch (a fused group).
//
// Every arm mirrors the interpreter's semantics exactly — raw operate
// then mask for arithmetic (core.EvalIntBinary), truncate-then-compare
// for comparisons (core.EvalIntCompare) — so results, output, traps, and
// trap positions are bit-identical to tiers 0 and 1 even for
// non-canonical inputs (caller-supplied argument bits, bools loaded from
// punned memory).

import (
	"encoding/binary"
	"fmt"

	"repro/internal/codegen"
	"repro/internal/core"
)

// execTier2 runs one activation of fs.t2.
func (mc *Machine) execTier2(fs *funcState, args []uint64) (rv uint64, res execResult, err error) {
	ef := fs.t2
	if mc.depth >= mc.MaxDepth {
		// Plain sentinel: the caller positions it at its call site, like
		// the interpreter does.
		return 0, resReturn, ErrStackOverflow
	}
	mc.depth++
	prevFn := mc.curFn
	mc.curFn = ef.Fn
	stackMark := mc.stackTop

	regs := fs.getFrame()
	if n := len(args); n > ef.NumArgs {
		copy(regs, args[:ef.NumArgs])
	} else {
		copy(regs, args)
		// A shortfall reads as zero, like the interpreter's missing
		// value-map entries; recycled frames are otherwise not cleared.
		clear(regs[n:ef.NumArgs])
	}
	var vaArgs []uint64
	if ef.Variadic && len(args) > ef.NumArgs {
		vaArgs = args[ef.NumArgs:]
	}
	vaCur := 0

	code := ef.Code
	copies := ef.CopyLists
	counts := fs.counts
	steps := mc.Steps
	maxSteps := mc.MaxSteps
	ctx := mc.ctx
	pc := 0
	// limit is the last step count the loop can reach without a look: the
	// budget, or with a context the step before its next poll.
	limit := mc.stepLimit(steps)

	defer func() {
		mc.Steps = steps
		fs.putFrame(regs)
		mc.stackTop = stackMark
		mc.curFn = prevFn
		mc.depth--
		if err != nil {
			err = positionErr(err, ef.Fn, ef.Fn.Blocks[ef.BlockOf[pc]], ef.SrcOf[pc])
		}
	}()

	for {
		in := &code[pc]
		// ECount is not an executed instruction; everything else steps
		// exactly like the interpreter (a fused head for its whole group
		// below, once it knows no boundary falls inside the group).
		if in.Op != codegen.ECount {
			steps++
			if steps > limit {
				if steps > maxSteps {
					return 0, resReturn, ErrMaxSteps
				}
				if cerr := ctx.Err(); cerr != nil {
					return 0, resReturn, fmt.Errorf("%w: %v", ErrCancelled, cerr)
				}
				limit = mc.stepLimit(steps)
			}
		}

		var c uint64 // a compare's result, for a fused head's group
		switch in.Op {
		case codegen.ECount:
			if counts != nil {
				counts[in.Imm]++
			}
		case codegen.EMov:
			regs[in.Dst] = regs[in.A]

		case codegen.EAdd64:
			regs[in.Dst] = regs[in.A] + regs[in.B]
		case codegen.EAddM:
			regs[in.Dst] = (regs[in.A] + regs[in.B]) & uint64(in.Imm)
		case codegen.ESub64:
			regs[in.Dst] = regs[in.A] - regs[in.B]
		case codegen.ESubM:
			regs[in.Dst] = (regs[in.A] - regs[in.B]) & uint64(in.Imm)
		case codegen.EMul64:
			regs[in.Dst] = regs[in.A] * regs[in.B]
		case codegen.EMulM:
			regs[in.Dst] = (regs[in.A] * regs[in.B]) & uint64(in.Imm)
		case codegen.EAnd:
			regs[in.Dst] = regs[in.A] & regs[in.B] & uint64(in.Imm)
		case codegen.EOr:
			regs[in.Dst] = (regs[in.A] | regs[in.B]) & uint64(in.Imm)
		case codegen.EXor:
			regs[in.Dst] = (regs[in.A] ^ regs[in.B]) & uint64(in.Imm)

		case codegen.EShl:
			sh := regs[in.B] & 0xFF
			if sh >= uint64(uint32(in.Aux)) {
				regs[in.Dst] = 0
			} else {
				regs[in.Dst] = (regs[in.A] << sh) & uint64(in.Imm)
			}
		case codegen.EShrU:
			sh := regs[in.B] & 0xFF
			if sh >= uint64(uint32(in.Aux)) {
				regs[in.Dst] = 0
			} else {
				regs[in.Dst] = (regs[in.A] >> sh) & uint64(in.Imm)
			}
		case codegen.EShrS:
			sh := regs[in.B] & 0xFF
			if sh >= 64 {
				sh = 63
			}
			ext := uint(uint32(in.Aux))
			regs[in.Dst] = uint64((int64(regs[in.A]<<ext)>>ext)>>sh) & uint64(in.Imm)

		case codegen.EDivU:
			b := regs[in.B]
			if b == 0 {
				return 0, resReturn, ErrDivideByZero
			}
			regs[in.Dst] = (regs[in.A] / b) & uint64(in.Imm)
		case codegen.EDivS:
			b := regs[in.B]
			if b == 0 {
				return 0, resReturn, ErrDivideByZero
			}
			ext := uint(uint32(in.Aux))
			sa := int64(regs[in.A]<<ext) >> ext
			sb := int64(b<<ext) >> ext
			regs[in.Dst] = uint64(sa/sb) & uint64(in.Imm)
		case codegen.ERemU:
			b := regs[in.B]
			if b == 0 {
				return 0, resReturn, ErrDivideByZero
			}
			regs[in.Dst] = (regs[in.A] % b) & uint64(in.Imm)
		case codegen.ERemS:
			b := regs[in.B]
			if b == 0 {
				return 0, resReturn, ErrDivideByZero
			}
			ext := uint(uint32(in.Aux))
			sa := int64(regs[in.A]<<ext) >> ext
			sb := int64(b<<ext) >> ext
			regs[in.Dst] = uint64(sa%sb) & uint64(in.Imm)

		// Each compare arm also runs a fused head's compare, then its group.
		case codegen.ECmpEq, codegen.ECmpEqBr:
			c = boolBits(regs[in.A]&uint64(in.Imm) == regs[in.B]&uint64(in.Imm))
			regs[in.Dst] = c
			if in.Op != codegen.ECmpEq {
				goto group
			}
		case codegen.ECmpNe, codegen.ECmpNeBr:
			c = boolBits(regs[in.A]&uint64(in.Imm) != regs[in.B]&uint64(in.Imm))
			regs[in.Dst] = c
			if in.Op != codegen.ECmpNe {
				goto group
			}
		case codegen.ECmpULt, codegen.ECmpULtBr:
			c = boolBits(regs[in.A]&uint64(in.Imm) < regs[in.B]&uint64(in.Imm))
			regs[in.Dst] = c
			if in.Op != codegen.ECmpULt {
				goto group
			}
		case codegen.ECmpUGt, codegen.ECmpUGtBr:
			c = boolBits(regs[in.A]&uint64(in.Imm) > regs[in.B]&uint64(in.Imm))
			regs[in.Dst] = c
			if in.Op != codegen.ECmpUGt {
				goto group
			}
		case codegen.ECmpULe, codegen.ECmpULeBr:
			c = boolBits(regs[in.A]&uint64(in.Imm) <= regs[in.B]&uint64(in.Imm))
			regs[in.Dst] = c
			if in.Op != codegen.ECmpULe {
				goto group
			}
		case codegen.ECmpUGe, codegen.ECmpUGeBr:
			c = boolBits(regs[in.A]&uint64(in.Imm) >= regs[in.B]&uint64(in.Imm))
			regs[in.Dst] = c
			if in.Op != codegen.ECmpUGe {
				goto group
			}
		case codegen.ECmpSLt, codegen.ECmpSLtBr:
			sh := uint(in.Imm)
			c = boolBits(int64(regs[in.A]<<sh)>>sh < int64(regs[in.B]<<sh)>>sh)
			regs[in.Dst] = c
			if in.Op != codegen.ECmpSLt {
				goto group
			}
		case codegen.ECmpSGt, codegen.ECmpSGtBr:
			sh := uint(in.Imm)
			c = boolBits(int64(regs[in.A]<<sh)>>sh > int64(regs[in.B]<<sh)>>sh)
			regs[in.Dst] = c
			if in.Op != codegen.ECmpSGt {
				goto group
			}
		case codegen.ECmpSLe, codegen.ECmpSLeBr:
			sh := uint(in.Imm)
			c = boolBits(int64(regs[in.A]<<sh)>>sh <= int64(regs[in.B]<<sh)>>sh)
			regs[in.Dst] = c
			if in.Op != codegen.ECmpSLe {
				goto group
			}
		case codegen.ECmpSGe, codegen.ECmpSGeBr:
			sh := uint(in.Imm)
			c = boolBits(int64(regs[in.A]<<sh)>>sh >= int64(regs[in.B]<<sh)>>sh)
			regs[in.Dst] = c
			if in.Op != codegen.ECmpSGe {
				goto group
			}

		case codegen.EFBin:
			t := ef.Types[in.Aux]
			r, ok := core.EvalFloatBinary(core.Opcode(in.Imm), t, bitsToFloat(t, regs[in.A]), bitsToFloat(t, regs[in.B]))
			if !ok {
				return 0, resReturn, fmt.Errorf("interp: bad float op %s", core.Opcode(in.Imm))
			}
			regs[in.Dst] = floatBits(t, r)
		case codegen.EFCmp:
			t := ef.Types[in.Aux]
			r, _ := core.EvalFloatCompare(core.Opcode(in.Imm), bitsToFloat(t, regs[in.A]), bitsToFloat(t, regs[in.B]))
			regs[in.Dst] = boolBits(r)

		case codegen.ECastTrunc:
			regs[in.Dst] = regs[in.A] & uint64(in.Imm)
		case codegen.ECastSext:
			sh := uint(uint32(in.B))
			regs[in.Dst] = uint64(int64(regs[in.A]<<sh)>>sh) & uint64(in.Imm)
		case codegen.ECastBool:
			regs[in.Dst] = boolBits(regs[in.A] != 0)
		case codegen.ECastGen:
			p := ef.Casts[in.Aux]
			regs[in.Dst] = castBits(p.From, p.To, regs[in.A])

		case codegen.ELoad1:
			b, lerr := mc.mem(regs[in.A], 1)
			if lerr != nil {
				return 0, resReturn, lerr
			}
			regs[in.Dst] = uint64(b[0])
		case codegen.ELoad2:
			b, lerr := mc.mem(regs[in.A], 2)
			if lerr != nil {
				return 0, resReturn, lerr
			}
			regs[in.Dst] = uint64(binary.LittleEndian.Uint16(b))
		case codegen.ELoad4:
			b, lerr := mc.mem(regs[in.A], 4)
			if lerr != nil {
				return 0, resReturn, lerr
			}
			regs[in.Dst] = uint64(binary.LittleEndian.Uint32(b))
		case codegen.ELoad8:
			b, lerr := mc.mem(regs[in.A], 8)
			if lerr != nil {
				return 0, resReturn, lerr
			}
			regs[in.Dst] = binary.LittleEndian.Uint64(b)
		case codegen.EStore1:
			b, serr := mc.mem(regs[in.B], 1)
			if serr != nil {
				return 0, resReturn, serr
			}
			b[0] = byte(regs[in.A])
		case codegen.EStore2:
			b, serr := mc.mem(regs[in.B], 2)
			if serr != nil {
				return 0, resReturn, serr
			}
			binary.LittleEndian.PutUint16(b, uint16(regs[in.A]))
		case codegen.EStore4:
			b, serr := mc.mem(regs[in.B], 4)
			if serr != nil {
				return 0, resReturn, serr
			}
			binary.LittleEndian.PutUint32(b, uint32(regs[in.A]))
		case codegen.EStore8:
			b, serr := mc.mem(regs[in.B], 8)
			if serr != nil {
				return 0, resReturn, serr
			}
			binary.LittleEndian.PutUint64(b, regs[in.A])

		case codegen.EGepC:
			regs[in.Dst] = uint64(int64(regs[in.A]) + in.Imm)
		case codegen.EGep:
			addr := int64(regs[in.A]) + in.Imm
			for _, t := range ef.Geps[in.Aux] {
				v := regs[t.Reg]
				if t.Shift != 0 {
					v = uint64(int64(v<<t.Shift) >> t.Shift)
				}
				addr += int64(v) * t.Scale
			}
			regs[in.Dst] = uint64(addr)

		case codegen.EMallocF:
			a, merr := mc.Malloc(uint64(in.Imm))
			if merr != nil {
				return 0, resReturn, merr
			}
			regs[in.Dst] = a
		case codegen.EMallocV:
			size, ok := mulNoOverflow(uint64(in.Imm), regs[in.A])
			if !ok {
				return 0, resReturn, ErrHeapLimit
			}
			a, merr := mc.Malloc(size)
			if merr != nil {
				return 0, resReturn, merr
			}
			regs[in.Dst] = a
		case codegen.EAllocaF:
			a, aerr := mc.alloca(uint64(in.Imm))
			if aerr != nil {
				return 0, resReturn, aerr
			}
			regs[in.Dst] = a
		case codegen.EAllocaV:
			size, ok := mulNoOverflow(uint64(in.Imm), regs[in.A])
			if !ok {
				return 0, resReturn, ErrStackOverflow
			}
			a, aerr := mc.alloca(size)
			if aerr != nil {
				return 0, resReturn, aerr
			}
			regs[in.Dst] = a
		case codegen.EFree:
			if ferr := mc.Free(regs[in.A]); ferr != nil {
				return 0, resReturn, ferr
			}

		case codegen.EVAArg:
			if vaCur < len(vaArgs) {
				regs[in.Dst] = vaArgs[vaCur]
				vaCur++
			} else if in.Dst >= 0 {
				regs[in.Dst] = 0
			}

		case codegen.ECall:
			site := &ef.Calls[in.Aux]
			mark := len(mc.argBuf)
			for _, r := range site.Args {
				mc.argBuf = append(mc.argBuf, regs[r])
			}
			target := site.Target
			if target == nil {
				f, ok := mc.funcAt[regs[site.Callee]]
				if !ok {
					mc.argBuf = mc.argBuf[:mark]
					return 0, resReturn, ErrBadIndirectCall
				}
				target = f
			}
			mc.Steps = steps
			v, cres, cerr := mc.call(target, mc.argBuf[mark:])
			steps = mc.Steps
			limit = mc.stepLimit(steps)
			mc.argBuf = mc.argBuf[:mark]
			if cerr != nil {
				return 0, resReturn, cerr
			}
			if cres == resUnwind {
				if !site.Invoke {
					return 0, resUnwind, nil
				}
				pc = takeEdge(regs, copies, site.Unwind.PC, site.Unwind.Copies)
				continue
			}
			if in.Dst >= 0 {
				regs[in.Dst] = v
			}
			if site.Invoke {
				pc = takeEdge(regs, copies, site.Normal.PC, site.Normal.Copies)
				continue
			}

		case codegen.ERet:
			return regs[in.A], resReturn, nil
		case codegen.ERetVoid:
			return 0, resReturn, nil
		case codegen.EBr:
			pc = takeEdge(regs, copies, int32(in.Imm), in.Dst)
			continue
		case codegen.ECondBr:
			if regs[in.A] != 0 {
				pc = takeEdge(regs, copies, int32(in.Imm), in.Dst)
			} else {
				pc = takeEdge(regs, copies, in.Aux, in.B)
			}
			continue
		case codegen.ESwitch:
			tab := &ef.Switches[in.Aux]
			v := regs[in.A]
			e := codegen.EEdge{PC: int32(in.Imm), Copies: in.Dst}
			vals := tab.Vals
			lo, hi := 0, len(vals)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if vals[mid] < v {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			if lo < len(vals) && vals[lo] == v {
				e = tab.Edges[lo]
			}
			pc = takeEdge(regs, copies, e.PC, e.Copies)
			continue
		case codegen.EUnwind:
			// Stamp the position for a possible ErrUncaughtUnwind at the
			// top level, exactly where the interpreter leaves its cursor.
			mc.curBlock = ef.Fn.Blocks[ef.BlockOf[pc]]
			mc.curInst = ef.SrcOf[pc]
			return 0, resUnwind, nil

		default:
			return 0, resReturn, fmt.Errorf("interp: bad tier-2 opcode %d", in.Op)
		}
		pc++
		continue

	group:
		// A fused head has run its compare; its group's other
		// constituents and the branch run here, in the same dispatch.
		// The lowering fuses only a cast that reads the compare, a setne
		// that reads the cast and a branch that reads the last of them,
		// so each arm takes that operand from c, the value it just wrote.
		// When the group's steps would cross the step budget or a
		// cancellation poll, its constituents dispatch one by one
		// instead, so the trap lands where tier 0 puts it.
		if rest := int64(in.Aux); steps+rest <= limit {
			steps += rest
			if rest == 3 {
				cast, ne := &code[pc+1], &code[pc+2]
				c &= uint64(cast.Imm)
				regs[cast.Dst] = c
				c = boolBits(c&uint64(ne.Imm) != regs[ne.B]&uint64(ne.Imm))
				regs[ne.Dst] = c
			}
			if br := &code[pc+int(rest)]; c != 0 {
				pc = takeEdge(regs, copies, int32(br.Imm), br.Dst)
			} else {
				pc = takeEdge(regs, copies, br.Aux, br.B)
			}
			continue
		}
		pc++
	}
}

// stepLimit is the last step count after steps that needs no check: the
// budget, or the step before the next cancellation poll if that is sooner.
func (mc *Machine) stepLimit(steps int64) int64 {
	if mc.ctx != nil {
		return min(mc.MaxSteps, steps|cancelCheckMask)
	}
	return mc.MaxSteps
}

// takeEdge runs a CFG edge's φ copies (copy list c, -1 for none) and
// returns its target pc.
func takeEdge(regs []uint64, copies [][]codegen.ECopy, pc, c int32) int {
	if c >= 0 {
		for _, cp := range copies[c] {
			regs[cp.Dst] = regs[cp.Src]
		}
	}
	return int(pc)
}
