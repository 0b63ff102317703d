package bytecode

import (
	"fmt"

	"repro/internal/core"
)

// bodyDecoder holds per-function decode state.
type bodyDecoder struct {
	d      *decoder
	f      *core.Function
	blocks []*core.BasicBlock
	values []core.Value
	fwd    map[uint64]*core.Placeholder
}

// readFunctionBody decodes f's blocks, constant pool, instructions and
// symbol tables. A malformation fails the decoder's reader.
func (d *decoder) readFunctionBody(f *core.Function) {
	r := d.r
	bd := &bodyDecoder{d: d, f: f, fwd: map[uint64]*core.Placeholder{}}

	// Each block costs at least its instruction-count byte.
	bd.blocks = make([]*core.BasicBlock, r.Count(1))
	for i := range bd.blocks {
		bd.blocks[i] = core.NewBlock("")
		f.AddBlock(bd.blocks[i])
	}

	// Constant pool; each record is at least a kind byte and a varint.
	for n := r.Count(2); n > 0; n-- {
		c := d.readConstant()
		if r.Err() != nil {
			return
		}
		bd.values = append(bd.values, c)
	}
	for _, a := range f.Args {
		bd.values = append(bd.values, a)
	}

	// Block instruction counts, then the instructions, each at least a byte.
	counts := make([]int, len(bd.blocks))
	for i := range counts {
		counts[i] = r.Count(1)
	}
	for bi, blk := range bd.blocks {
		for k := 0; k < counts[bi]; k++ {
			inst := bd.readInstruction()
			if r.Err() != nil {
				return
			}
			blk.Append(inst)
			bd.values = append(bd.values, inst)
		}
	}
	if r.Err() != nil {
		return
	}

	// Resolve forward references.
	for id, ph := range bd.fwd {
		if id >= uint64(len(bd.values)) {
			r.Failf("forward value id %d never defined", id)
			return
		}
		core.ReplaceAllUses(ph, bd.values[id])
	}

	// Symbol tables: (value id, string id), then (block id, string id).
	for n := r.Count(2); n > 0; n-- {
		vid, name := r.Uvarint(), d.str(r.Uvarint())
		if r.Err() == nil && vid >= uint64(len(bd.values)) {
			r.Failf("symbol value id %d out of range", vid)
		}
		if r.Err() != nil {
			return
		}
		bd.values[vid].SetName(name)
	}
	for n := r.Count(2); n > 0; n-- {
		blk, name := bd.block(r.Uvarint()), d.str(r.Uvarint())
		if r.Err() != nil {
			return
		}
		blk.SetName(name)
	}
}

// value resolves a value id, creating a typed placeholder for forward refs.
// It returns nil once the reader has failed.
func (bd *bodyDecoder) value(id uint64, t core.Type) core.Value {
	r := bd.d.r
	if r.Err() != nil {
		return nil
	}
	if id < uint64(len(bd.values)) {
		return bd.values[id]
	}
	if ph, ok := bd.fwd[id]; ok {
		return ph
	}
	if t == nil {
		r.Failf("untyped forward reference to value %d", id)
		return nil
	}
	ph := core.NewPlaceholder(fmt.Sprintf("fwd.%d", id), t)
	bd.fwd[id] = ph
	return ph
}

// definedValue resolves a value id that must already be defined (compact
// encoding guarantees backward references).
func (bd *bodyDecoder) definedValue(id uint64) core.Value {
	if bd.d.r.Err() == nil && id < uint64(len(bd.values)) {
		return bd.values[id]
	}
	bd.d.r.Failf("compact operand %d is a forward reference", id)
	return nil
}

func (bd *bodyDecoder) block(id uint64) *core.BasicBlock {
	if bd.d.r.Err() == nil && id < uint64(len(bd.blocks)) {
		return bd.blocks[id]
	}
	bd.d.r.Failf("block id %d out of range", id)
	return nil
}

// typedOperand reads (type id, value id).
func (bd *bodyDecoder) typedOperand() core.Value {
	t := bd.d.readType()
	return bd.value(bd.d.r.Uvarint(), t)
}

// readInstruction decodes one instruction record. It returns nil exactly
// when the reader has failed; no instruction is built from a field read
// after the failure.
func (bd *bodyDecoder) readInstruction() core.Instruction {
	if bd.d.r.Peek()&0x80 != 0 {
		return bd.readEscape()
	}
	return bd.readCompact()
}

func (bd *bodyDecoder) readCompact() core.Instruction {
	r := bd.d.r
	word := r.U32()
	op := core.Opcode(word >> 26)
	t := bd.d.typeByID(uint64(word >> 17 & 0x1FF))
	op1 := uint64(word >> 9 & 0xFF)
	op2 := uint64(word & 0x1FF)

	// Resolve the operands the opcode uses: an optional or required first
	// value, a second value, or a block.
	var a, b core.Value
	var blk *core.BasicBlock
	switch {
	case op == core.OpRet || op == core.OpMalloc || op == core.OpAlloca:
		if op1 != noOp1 {
			a = bd.definedValue(op1)
		}
	case op == core.OpFree || op == core.OpLoad || op == core.OpCast || op == core.OpVAArg:
		a = bd.definedValue(op1)
	case op == core.OpStore || core.IsBinaryOp(op) || core.IsComparisonOp(op):
		a, b = bd.definedValue(op1), bd.definedValue(op2)
	case op == core.OpBr:
		blk = bd.block(op1)
	case op != core.OpUnwind:
		r.Failf("opcode %s not valid in compact form", op)
	}
	if op == core.OpLoad && r.Err() == nil && a.Type().Kind() != core.PointerKind {
		r.Failf("load of non-pointer")
	}
	if r.Err() != nil {
		return nil
	}

	switch op {
	case core.OpRet:
		return core.NewRet(a)
	case core.OpBr:
		return core.NewBr(blk)
	case core.OpUnwind:
		return core.NewUnwind()
	case core.OpMalloc:
		return core.NewMalloc(t, a)
	case core.OpAlloca:
		return core.NewAlloca(t, a)
	case core.OpFree:
		return core.NewFree(a)
	case core.OpLoad:
		return core.NewLoad(a)
	case core.OpStore:
		return core.NewStore(a, b)
	case core.OpCast:
		return core.NewCast(a, t)
	case core.OpVAArg:
		return core.NewVAArg(a, t)
	}
	return core.NewBinary(op, a, b)
}

// typedOperands reads a count and that many typed operands (call
// arguments, GEP indices), each at least two bytes.
func (bd *bodyDecoder) typedOperands() []core.Value {
	vs := make([]core.Value, bd.d.r.Count(2))
	for i := range vs {
		vs[i] = bd.typedOperand()
	}
	return vs
}

func (bd *bodyDecoder) readEscape() core.Instruction {
	r := bd.d.r
	op := core.Opcode(r.Byte() & 0x7F)

	switch {
	case op == core.OpRet:
		var v core.Value
		if r.Byte() != 0 {
			v = bd.typedOperand()
		}
		if r.Err() == nil {
			return core.NewRet(v)
		}

	case op == core.OpBr:
		if r.Byte() == 0 {
			if blk := bd.block(r.Uvarint()); r.Err() == nil {
				return core.NewBr(blk)
			}
			return nil
		}
		c, tb, fb := bd.typedOperand(), bd.block(r.Uvarint()), bd.block(r.Uvarint())
		if r.Err() == nil {
			return core.NewCondBr(c, tb, fb)
		}

	case op == core.OpSwitch:
		v, def := bd.typedOperand(), bd.block(r.Uvarint())
		if r.Err() != nil {
			return nil
		}
		sw := core.NewSwitch(v, def)
		// Each case is a (value id, block id) pair.
		for n := r.Count(2); n > 0; n-- {
			cv, blk := bd.definedValue(r.Uvarint()), bd.block(r.Uvarint())
			if r.Err() != nil {
				return nil
			}
			ci, ok := cv.(*core.ConstantInt)
			if !ok {
				r.Failf("switch case is not an integer constant")
				return nil
			}
			sw.AddCase(ci, blk)
		}
		if r.Err() == nil {
			return sw
		}

	case op == core.OpInvoke, op == core.OpCall:
		callee := bd.typedOperand()
		if r.Err() == nil && core.CalleeFunctionType(callee) == nil {
			r.Failf("callee is not a function pointer")
		}
		args := bd.typedOperands()
		if op == core.OpCall {
			if r.Err() == nil {
				return core.NewCall(callee, args...)
			}
			return nil
		}
		nb, ub := bd.block(r.Uvarint()), bd.block(r.Uvarint())
		if r.Err() == nil {
			return core.NewInvoke(callee, args, nb, ub)
		}

	case op == core.OpUnwind:
		return core.NewUnwind()

	case core.IsBinaryOp(op) || core.IsComparisonOp(op):
		t := bd.d.readType()
		lid, rid := r.Uvarint(), r.Uvarint()
		rt := t
		if op == core.OpShl || op == core.OpShr {
			rt = core.UByteType
		}
		lhs := bd.value(lid, t)
		rhs := bd.value(rid, rt)
		if r.Err() == nil {
			return core.NewBinary(op, lhs, rhs)
		}

	case op == core.OpMalloc, op == core.OpAlloca:
		t := bd.d.readType()
		var n core.Value
		if r.Byte() != 0 {
			n = bd.typedOperand()
		}
		if r.Err() != nil {
			return nil
		}
		if op == core.OpMalloc {
			return core.NewMalloc(t, n)
		}
		return core.NewAlloca(t, n)

	case op == core.OpFree:
		if p := bd.typedOperand(); r.Err() == nil {
			return core.NewFree(p)
		}

	case op == core.OpLoad:
		p := bd.typedOperand()
		if r.Err() == nil && p.Type().Kind() != core.PointerKind {
			r.Failf("load of non-pointer")
		}
		if r.Err() == nil {
			return core.NewLoad(p)
		}

	case op == core.OpStore:
		v, p := bd.typedOperand(), bd.typedOperand()
		if r.Err() == nil {
			return core.NewStore(v, p)
		}

	case op == core.OpGetElementPtr:
		base, idx := bd.typedOperand(), bd.typedOperands()
		if r.Err() != nil {
			return nil
		}
		if _, err := core.GEPResultType(base.Type(), idx); err != nil {
			r.Fail(err)
			return nil
		}
		return core.NewGEP(base, idx...)

	case op == core.OpPhi:
		t := bd.d.readType()
		if r.Err() != nil {
			return nil
		}
		phi := core.NewPhi(t)
		// Each incoming edge is a (value id, block id) pair.
		for n := r.Count(2); n > 0; n-- {
			vid, bid := r.Uvarint(), r.Uvarint()
			v, blk := bd.value(vid, t), bd.block(bid)
			if r.Err() != nil {
				return nil
			}
			phi.AddIncoming(v, blk)
		}
		if r.Err() == nil {
			return phi
		}

	case op == core.OpCast, op == core.OpVAArg:
		t, v := bd.d.readType(), bd.typedOperand()
		if r.Err() != nil {
			return nil
		}
		if op == core.OpCast {
			return core.NewCast(v, t)
		}
		return core.NewVAArg(v, t)

	default:
		r.Failf("bad escape opcode %d", op)
	}
	return nil
}
