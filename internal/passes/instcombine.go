package passes

import (
	"repro/internal/core"
)

// InstCombine performs local algebraic simplification: constant folding,
// identity/absorption rules (x+0, x*1, x*0, x-x, x&0, x|x, ...), constant
// canonicalization to the right of commutative operators, reassociation of
// constant chains ((x+c1)+c2 → x+(c1+c2)), cast elimination, and branch
// condition simplification. It iterates to a local fixed point.
type InstCombine struct{}

// NewInstCombine returns the pass.
func NewInstCombine() *InstCombine { return &InstCombine{} }

// Name returns the pass name.
func (*InstCombine) Name() string { return "instcombine" }

// RunOnFunction applies simplifications until none fire.
func (ic *InstCombine) RunOnFunction(f *core.Function) int {
	total := 0
	for {
		n := ic.onePass(f)
		total += n
		if n == 0 {
			return total
		}
	}
}

func (ic *InstCombine) onePass(f *core.Function) int {
	changed := 0
	for _, b := range f.Blocks {
		// Iterate over a snapshot; replacements erase in place.
		for _, inst := range append([]core.Instruction(nil), b.Instrs...) {
			if inst.Parent() == nil {
				continue // already erased
			}
			repl, mutated := ic.simplify(inst)
			if repl != nil {
				core.ReplaceAllUses(inst, repl)
				b.Erase(inst)
				changed++
			} else if mutated {
				changed++
			}
		}
	}
	return changed
}

// simplify returns a replacement value for inst (nil if none) plus whether
// the instruction was rewritten in place (operand canonicalization or
// reassociation) without producing a replacement.
func (ic *InstCombine) simplify(inst core.Instruction) (core.Value, bool) {
	switch i := inst.(type) {
	case *core.BinaryInst:
		return ic.simplifyBinary(i)
	case *core.CastInst:
		return ic.simplifyCast(i), false
	case *core.PhiInst:
		return ic.simplifyPhi(i), false
	case *core.GetElementPtrInst:
		// getelementptr p, 0 (single zero index) is p.
		if len(i.Indices()) == 1 {
			if c, ok := i.Indices()[0].(*core.ConstantInt); ok && c.IsZero() {
				return i.Base(), false
			}
		}
	}
	return nil, false
}

func (ic *InstCombine) simplifyBinary(i *core.BinaryInst) (core.Value, bool) {
	op := i.Opcode()
	lhs, rhs := i.LHS(), i.RHS()
	lc, lIsC := lhs.(core.Constant)
	rc, rIsC := rhs.(core.Constant)

	// Full constant folding.
	if lIsC && rIsC {
		if folded := core.FoldBinary(op, lc, rc); folded != nil {
			return folded, false
		}
	}

	// Canonicalize: constant to the RHS of commutative operators.
	if lIsC && !rIsC && core.IsCommutative(op) {
		i.SetOperand(0, rhs)
		i.SetOperand(1, lhs)
		lhs, rhs = i.LHS(), i.RHS()
		lc, lIsC = nil, false
		rc, rIsC = rhs.(core.Constant), true
		_ = lc
	}

	t := lhs.Type()
	isInt := core.IsInteger(t)

	// Identity / absorption with a constant RHS.
	if rIsC {
		switch op {
		case core.OpAdd, core.OpSub, core.OpOr, core.OpXor, core.OpShl, core.OpShr:
			if isZeroConst(rc) {
				return lhs, false // x op 0 = x
			}
		case core.OpMul:
			if isZeroConst(rc) && isInt {
				return rc, false // x * 0 = 0 (int only; FP has NaN)
			}
			if isIntConst(rc, 1) {
				return lhs, false // x * 1 = x
			}
		case core.OpDiv:
			if isIntConst(rc, 1) {
				return lhs, false // x / 1 = x
			}
		case core.OpAnd:
			if isZeroConst(rc) && isInt {
				return rc, false // x & 0 = 0
			}
			if isAllOnes(rc) {
				return lhs, false // x & ~0 = x
			}
		case core.OpRem:
			if isIntConst(rc, 1) && isInt {
				return core.NewInt(t, 0), false // x % 1 = 0
			}
		}
		// Reassociate (x op c1) op c2 for associative-commutative ops.
		if inner, ok := lhs.(*core.BinaryInst); ok && inner.Opcode() == op && core.IsCommutative(op) && op != core.OpSetEQ && op != core.OpSetNE {
			if ic2, ok := inner.RHS().(core.Constant); ok {
				if folded := core.FoldBinary(op, ic2, rc); folded != nil {
					i.SetOperand(0, inner.LHS())
					i.SetOperand(1, folded)
					return nil, true // mutated in place; re-checked next iteration
				}
			}
		}
	}

	// x - x = 0; x ^ x = 0; x & x = x; x | x = x; seteq x,x = true ...
	if lhs == rhs {
		switch op {
		case core.OpSub, core.OpXor:
			if isInt {
				return core.NewInt(t, 0), false
			}
			if t.Kind() == core.BoolKind && op == core.OpXor {
				return core.NewBool(false), false
			}
		case core.OpAnd, core.OpOr:
			return lhs, false
		case core.OpSetEQ, core.OpSetLE, core.OpSetGE:
			// FP NaN makes x==x false; only safe for non-FP.
			if !core.IsFloatingPoint(t) {
				return core.NewBool(true), false
			}
		case core.OpSetNE, core.OpSetLT, core.OpSetGT:
			if !core.IsFloatingPoint(t) {
				return core.NewBool(false), false
			}
		}
	}
	return nil, false
}

func (ic *InstCombine) simplifyCast(i *core.CastInst) core.Value {
	src := i.Val()
	// cast x to sametype = x.
	if src.Type() == i.Type() {
		return src
	}
	// Fold constant casts.
	if c, ok := src.(core.Constant); ok {
		if folded := core.FoldCast(c, i.Type()); folded != nil {
			return folded
		}
	}
	// cast (cast x to B) to A = x when the round trip is lossless and
	// A is x's type.
	if inner, ok := src.(*core.CastInst); ok {
		x := inner.Val()
		if x.Type() == i.Type() && core.IsLosslesslyConvertible(x.Type(), inner.Type()) {
			return x
		}
	}
	return nil
}

func (ic *InstCombine) simplifyPhi(i *core.PhiInst) core.Value {
	// A phi whose incoming values are all the same value (or the phi
	// itself) is that value.
	var same core.Value
	for n := 0; n < i.NumIncoming(); n++ {
		v, _ := i.Incoming(n)
		if v == core.Value(i) {
			continue
		}
		if same == nil {
			same = v
			continue
		}
		if v != same {
			// Distinct constants with equal value also merge.
			ca, aok := same.(*core.ConstantInt)
			cb, bok := v.(*core.ConstantInt)
			if aok && bok && ca.Val == cb.Val && ca.Type() == cb.Type() {
				continue
			}
			return nil
		}
	}
	return same
}

func isZeroConst(c core.Constant) bool { return core.IsConstantZero(c) }

func isIntConst(c core.Constant, v int64) bool {
	ci, ok := c.(*core.ConstantInt)
	return ok && ci.SExt() == v
}

func isAllOnes(c core.Constant) bool {
	ci, ok := c.(*core.ConstantInt)
	return ok && ci.SExt() == -1
}
