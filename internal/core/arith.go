package core

import "math"

// This file defines the evaluation semantics of the arithmetic, logical,
// comparison, and cast operations, over raw bit patterns. Integer values
// are carried in a uint64 truncated to the type's width; floating-point
// values as float64 (float32 values are rounded at each step). The same
// functions drive the constant folder, SCCP, and the execution engine, so
// compile-time and run-time evaluation cannot disagree.

// EvalIntBinary applies an integer binary operator in type t to bit
// patterns a and b. ok is false when the operation is undefined (divide or
// remainder by zero) or the opcode is not an integer binary op.
func EvalIntBinary(op Opcode, t Type, a, b uint64) (uint64, bool) {
	bits := BitWidth(t)
	signed := IsSigned(t)
	sext := func(v uint64) int64 {
		if bits >= 64 {
			return int64(v)
		}
		shift := uint(64 - bits)
		return int64(v<<shift) >> shift
	}
	var r uint64
	switch op {
	case OpAdd:
		r = a + b
	case OpSub:
		r = a - b
	case OpMul:
		r = a * b
	case OpDiv:
		if b == 0 {
			return 0, false
		}
		if signed {
			r = uint64(sext(a) / sext(b))
		} else {
			r = a / b
		}
	case OpRem:
		if b == 0 {
			return 0, false
		}
		if signed {
			r = uint64(sext(a) % sext(b))
		} else {
			r = a % b
		}
	case OpAnd:
		r = a & b
	case OpOr:
		r = a | b
	case OpXor:
		r = a ^ b
	case OpShl:
		sh := b & 0xFF
		if sh >= uint64(bits) {
			r = 0
		} else {
			r = a << sh
		}
	case OpShr:
		sh := b & 0xFF
		if signed {
			// Arithmetic shift on the sign-extended value.
			if sh >= 64 {
				sh = 63
			}
			r = uint64(sext(a) >> sh)
		} else {
			if sh >= uint64(bits) {
				r = 0
			} else {
				r = a >> sh
			}
		}
	default:
		return 0, false
	}
	return truncToWidth(r, bits), true
}

// EvalIntCompare applies a set* comparison in type t to bit patterns a, b.
func EvalIntCompare(op Opcode, t Type, a, b uint64) (bool, bool) {
	signed := IsSigned(t)
	bits := BitWidth(t)
	a, b = truncToWidth(a, bits), truncToWidth(b, bits)
	var lt bool
	if signed {
		shift := uint(64 - bits)
		if bits >= 64 {
			shift = 0
		}
		lt = int64(a<<shift)>>shift < int64(b<<shift)>>shift
	} else {
		lt = a < b
	}
	switch op {
	case OpSetEQ:
		return a == b, true
	case OpSetNE:
		return a != b, true
	case OpSetLT:
		return lt, true
	case OpSetGT:
		return !lt && a != b, true
	case OpSetLE:
		return lt || a == b, true
	case OpSetGE:
		return !lt, true
	}
	return false, false
}

// EvalFloatBinary applies a binary operator in float type t.
func EvalFloatBinary(op Opcode, t Type, a, b float64) (float64, bool) {
	var r float64
	switch op {
	case OpAdd:
		r = a + b
	case OpSub:
		r = a - b
	case OpMul:
		r = a * b
	case OpDiv:
		r = a / b // IEEE: inf/nan, not a trap
	case OpRem:
		r = math.Mod(a, b)
	default:
		return 0, false
	}
	if t.Kind() == FloatKind {
		r = float64(float32(r))
	}
	return r, true
}

// EvalFloatCompare applies a set* comparison to floats.
func EvalFloatCompare(op Opcode, a, b float64) (bool, bool) {
	switch op {
	case OpSetEQ:
		return a == b, true
	case OpSetNE:
		return a != b, true
	case OpSetLT:
		return a < b, true
	case OpSetGT:
		return a > b, true
	case OpSetLE:
		return a <= b, true
	case OpSetGE:
		return a >= b, true
	}
	return false, false
}

// EvalIntCast converts an integer bit pattern from type 'from' to integer
// type 'to' (sign- or zero-extension per the source type's signedness,
// truncation when narrowing).
func EvalIntCast(from, to Type, v uint64) uint64 {
	fb, tb := BitWidth(from), BitWidth(to)
	if fb < 64 {
		if IsSigned(from) {
			shift := uint(64 - fb)
			v = uint64(int64(v<<shift) >> shift)
		} else {
			v = truncToWidth(v, fb)
		}
	}
	return truncToWidth(v, tb)
}

// EvalIntToFloat converts an integer bit pattern to a float value.
func EvalIntToFloat(from, to Type, v uint64) float64 {
	var f float64
	if IsSigned(from) {
		bits := BitWidth(from)
		shift := uint(64 - bits)
		if bits >= 64 {
			shift = 0
		}
		f = float64(int64(v<<shift) >> shift)
	} else {
		f = float64(truncToWidth(v, BitWidth(from)))
	}
	if to.Kind() == FloatKind {
		f = float64(float32(f))
	}
	return f
}

// EvalFloatToInt converts a float value to an integer bit pattern in type
// to (C-style truncation toward zero; out-of-range is clamped).
func EvalFloatToInt(to Type, f float64) uint64 {
	if math.IsNaN(f) {
		return 0
	}
	t := math.Trunc(f)
	if IsSigned(to) {
		if t > math.MaxInt64 {
			t = math.MaxInt64
		}
		if t < math.MinInt64 {
			t = math.MinInt64
		}
		return truncToWidth(uint64(int64(t)), BitWidth(to))
	}
	if t < 0 {
		t = 0
	}
	if t > math.MaxUint64 {
		return truncToWidth(^uint64(0), BitWidth(to))
	}
	return truncToWidth(uint64(t), BitWidth(to))
}

// FoldBinary evaluates a binary operator or comparison over constants,
// returning nil when it cannot fold (division by zero, non-constant
// operands, unhandled kinds).
func FoldBinary(op Opcode, lhs, rhs Constant) Constant {
	switch a := lhs.(type) {
	case *ConstantInt:
		b, ok := rhs.(*ConstantInt)
		if !ok {
			return nil
		}
		if IsComparisonOp(op) {
			r, ok := EvalIntCompare(op, a.Type(), a.Val, b.Val)
			if !ok {
				return nil
			}
			return NewBool(r)
		}
		r, ok := EvalIntBinary(op, a.Type(), a.Val, b.Val)
		if !ok {
			return nil
		}
		return NewInt(a.Type(), int64(r))
	case *ConstantFloat:
		b, ok := rhs.(*ConstantFloat)
		if !ok {
			return nil
		}
		if IsComparisonOp(op) {
			r, ok := EvalFloatCompare(op, a.Val, b.Val)
			if !ok {
				return nil
			}
			return NewBool(r)
		}
		r, ok := EvalFloatBinary(op, a.Type(), a.Val, b.Val)
		if !ok {
			return nil
		}
		return NewFloat(a.Type(), r)
	case *ConstantBool:
		b, ok := rhs.(*ConstantBool)
		if !ok {
			return nil
		}
		switch op {
		case OpAnd:
			return NewBool(a.Val && b.Val)
		case OpOr:
			return NewBool(a.Val || b.Val)
		case OpXor:
			return NewBool(a.Val != b.Val)
		case OpSetEQ:
			return NewBool(a.Val == b.Val)
		case OpSetNE:
			return NewBool(a.Val != b.Val)
		}
		return nil
	case *ConstantNull:
		if _, ok := rhs.(*ConstantNull); ok {
			switch op {
			case OpSetEQ, OpSetLE, OpSetGE:
				return NewBool(true)
			case OpSetNE, OpSetLT, OpSetGT:
				return NewBool(false)
			}
		}
		return nil
	}
	return nil
}

// FoldCast evaluates "cast c to t" over a constant, or nil.
func FoldCast(c Constant, to Type) Constant {
	from := c.Type()
	if from == to {
		return c
	}
	switch cc := c.(type) {
	case *ConstantInt:
		switch {
		case IsInteger(to):
			return NewInt(to, int64(EvalIntCast(from, to, cc.Val)))
		case IsFloatingPoint(to):
			return NewFloat(to, EvalIntToFloat(from, to, cc.Val))
		case to.Kind() == BoolKind:
			return NewBool(cc.Val != 0)
		}
	case *ConstantFloat:
		switch {
		case IsInteger(to):
			return NewInt(to, int64(EvalFloatToInt(to, cc.Val)))
		case IsFloatingPoint(to):
			return NewFloat(to, cc.Val)
		}
	case *ConstantBool:
		if IsInteger(to) {
			if cc.Val {
				return NewInt(to, 1)
			}
			return NewInt(to, 0)
		}
	case *ConstantNull:
		if pt, ok := to.(*PointerType); ok {
			return NewNull(pt)
		}
		if IsInteger(to) {
			return NewInt(to, 0)
		}
	case *ConstantUndef:
		if IsFirstClass(to) {
			return NewUndef(to)
		}
	}
	return nil
}
