package core

import (
	"fmt"
	"strconv"
	"strings"
)

// Constant is a Value whose bits are known at compile time: integer, float
// and bool literals, null pointers, undef, aggregate literals, and constant
// expressions (cast/getelementptr over other constants, used chiefly in
// global initializers).
type Constant interface {
	Value
	isConstant()
}

// ConstantInt is an integer literal of one of the eight integer types.
// The value is stored sign-agnostically in a uint64 and interpreted
// according to the type's signedness and width.
type ConstantInt struct {
	valueBase
	Val uint64
}

// NewInt returns an integer constant of type t holding v (truncated to the
// type's width).
func NewInt(t Type, v int64) *ConstantInt {
	if !IsInteger(t) {
		panic("core.NewInt: non-integer type " + t.String())
	}
	c := &ConstantInt{Val: truncToWidth(uint64(v), BitWidth(t))}
	c.typ = t
	c.markShared()
	return c
}

func truncToWidth(v uint64, bits int) uint64 {
	if bits >= 64 {
		return v
	}
	return v & (1<<uint(bits) - 1)
}

func (c *ConstantInt) isConstant() {}

// SExt returns the value sign- or zero-extended to int64 per the type.
func (c *ConstantInt) SExt() int64 {
	bits := BitWidth(c.typ)
	if IsSigned(c.typ) && bits < 64 {
		shift := uint(64 - bits)
		return int64(c.Val<<shift) >> shift
	}
	return int64(c.Val)
}

// IsZero reports whether the constant is zero.
func (c *ConstantInt) IsZero() bool { return c.Val == 0 }

// String returns the literal spelling.
func (c *ConstantInt) String() string {
	if IsSigned(c.typ) {
		return strconv.FormatInt(c.SExt(), 10)
	}
	return strconv.FormatUint(c.Val, 10)
}

// ConstantFloat is a float or double literal.
type ConstantFloat struct {
	valueBase
	Val float64
}

// NewFloat returns a floating-point constant of type t (float or double).
func NewFloat(t Type, v float64) *ConstantFloat {
	if !IsFloatingPoint(t) {
		panic("core.NewFloat: non-FP type " + t.String())
	}
	if t.Kind() == FloatKind {
		v = float64(float32(v))
	}
	c := &ConstantFloat{Val: v}
	c.typ = t
	c.markShared()
	return c
}

func (c *ConstantFloat) isConstant() {}

// String returns the literal spelling.
func (c *ConstantFloat) String() string {
	s := strconv.FormatFloat(c.Val, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eEnI") {
		s += ".0"
	}
	return s
}

// ConstantBool is "true" or "false".
type ConstantBool struct {
	valueBase
	Val bool
}

// NewBool returns a bool constant.
func NewBool(v bool) *ConstantBool {
	c := &ConstantBool{Val: v}
	c.typ = BoolType
	c.markShared()
	return c
}

// True and False construct fresh bool constants.
func True() *ConstantBool  { return NewBool(true) }
func False() *ConstantBool { return NewBool(false) }

func (c *ConstantBool) isConstant() {}

// String returns "true" or "false".
func (c *ConstantBool) String() string {
	if c.Val {
		return "true"
	}
	return "false"
}

// ConstantNull is the null pointer of a given pointer type.
type ConstantNull struct{ valueBase }

// NewNull returns the null constant of pointer type t.
func NewNull(t *PointerType) *ConstantNull {
	c := &ConstantNull{}
	c.typ = t
	c.markShared()
	return c
}

func (c *ConstantNull) isConstant() {}

// String returns "null".
func (c *ConstantNull) String() string { return "null" }

// ConstantUndef is an undefined value of any first-class type. Reading it
// yields an unspecified bit pattern; optimizers may fold it freely.
type ConstantUndef struct{ valueBase }

// NewUndef returns an undef constant of type t.
func NewUndef(t Type) *ConstantUndef {
	c := &ConstantUndef{}
	c.typ = t
	c.markShared()
	return c
}

func (c *ConstantUndef) isConstant() {}

// String returns "undef".
func (c *ConstantUndef) String() string { return "undef" }

// ConstantZero is the zero-initializer of an aggregate (or any) type,
// spelled "zeroinitializer" in assembly.
type ConstantZero struct{ valueBase }

// NewZero returns the all-zero constant of type t.
func NewZero(t Type) *ConstantZero {
	c := &ConstantZero{}
	c.typ = t
	c.markShared()
	return c
}

func (c *ConstantZero) isConstant() {}

// String returns "zeroinitializer".
func (c *ConstantZero) String() string { return "zeroinitializer" }

// ConstantArray is an array literal. Elems has exactly the array length.
type ConstantArray struct {
	valueBase
	Elems []Constant
}

// NewArrayConst returns an array constant with the given elements; its type
// is [len(elems) x elem].
func NewArrayConst(elem Type, elems []Constant) *ConstantArray {
	c := &ConstantArray{Elems: elems}
	c.typ = NewArray(elem, len(elems))
	c.markShared()
	return c
}

// NewString returns a constant [n x sbyte] array holding s plus a
// terminating NUL, matching how C front-ends emit string literals.
func NewString(s string) *ConstantArray {
	elems := make([]Constant, len(s)+1)
	for i := 0; i < len(s); i++ {
		elems[i] = NewInt(SByteType, int64(s[i]))
	}
	elems[len(s)] = NewInt(SByteType, 0)
	return NewArrayConst(SByteType, elems)
}

func (c *ConstantArray) isConstant() {}

// AsString decodes a NUL-terminated sbyte or ubyte array back into a Go
// string, reporting ok=false if the array is not such string data.
func (c *ConstantArray) AsString() (string, bool) {
	if k := c.typ.(*ArrayType).Elem.Kind(); k != SByteKind && k != UByteKind {
		return "", false // c"..." cannot spell wider elements
	}
	var b strings.Builder
	for i, e := range c.Elems {
		ci, ok := e.(*ConstantInt)
		if !ok {
			return "", false
		}
		if i == len(c.Elems)-1 && ci.Val == 0 {
			return b.String(), true
		}
		b.WriteByte(byte(ci.Val))
	}
	return "", false
}

// String returns the literal spelling, using the c"..." shorthand for
// printable NUL-terminated sbyte and ubyte arrays.
func (c *ConstantArray) String() string {
	if s, ok := c.AsString(); ok && isPrintable(s) {
		return "c" + quoteLL(s+"\x00")
	}
	var b strings.Builder
	b.WriteString("[ ")
	for i, e := range c.Elems {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(e.Type().String())
		b.WriteString(" ")
		b.WriteString(valueRef(e))
	}
	b.WriteString(" ]")
	return b.String()
}

func isPrintable(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x7f {
			return false
		}
	}
	return true
}

func quoteLL(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		ch := s[i]
		if ch >= 0x20 && ch < 0x7f && ch != '"' && ch != '\\' {
			b.WriteByte(ch)
		} else {
			fmt.Fprintf(&b, "\\%02X", ch)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// ConstantStruct is a struct literal.
type ConstantStruct struct {
	valueBase
	Fields []Constant
}

// NewStructConst returns a struct constant of type st with the given fields.
func NewStructConst(st *StructType, fields []Constant) *ConstantStruct {
	c := &ConstantStruct{Fields: fields}
	c.typ = st
	c.markShared()
	return c
}

func (c *ConstantStruct) isConstant() {}

// String returns the literal spelling "{ ty v, ty v }".
func (c *ConstantStruct) String() string {
	var b strings.Builder
	b.WriteString("{ ")
	for i, f := range c.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.Type().String())
		b.WriteString(" ")
		b.WriteString(valueRef(f))
	}
	b.WriteString(" }")
	return b.String()
}

// ConstantExpr is a constant expression: a cast or getelementptr applied to
// other constants. These appear mainly in global initializers (e.g. a
// pointer to the first character of a string global).
type ConstantExpr struct {
	userBase
	Op Opcode
}

// NewConstCast returns the constant expression "cast (c to t)".
func NewConstCast(c Constant, t Type) *ConstantExpr {
	e := &ConstantExpr{Op: OpCast}
	e.typ = t
	e.markShared()
	e.setOperands(e, []Value{c})
	return e
}

// NewConstGEP returns the constant expression
// "getelementptr (base, indices...)". Its type is computed from the
// index path like the getelementptr instruction's.
func NewConstGEP(base Constant, indices ...Constant) *ConstantExpr {
	ivals := make([]Value, 0, len(indices)+1)
	ivals = append(ivals, base)
	idxVals := make([]Value, len(indices))
	for i, ix := range indices {
		idxVals[i] = ix
	}
	ivals = append(ivals, idxVals...)
	rt, err := GEPResultType(base.Type(), idxVals[0:])
	if err != nil {
		panic("core.NewConstGEP: " + err.Error())
	}
	e := &ConstantExpr{Op: OpGetElementPtr}
	e.typ = rt
	e.markShared()
	e.setOperands(e, ivals)
	return e
}

func (e *ConstantExpr) isConstant() {}

// SetOperand replaces the i'th operand.
func (e *ConstantExpr) SetOperand(i int, v Value) { e.setOperandAt(e, i, v) }

// String returns the expression spelling, e.g.
// "getelementptr ([5 x sbyte]* %str, long 0, long 0)".
func (e *ConstantExpr) String() string {
	var b strings.Builder
	b.WriteString(e.Op.String())
	b.WriteString(" (")
	for i, op := range e.ops {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(op.Type().String())
		b.WriteString(" ")
		b.WriteString(valueRef(op))
	}
	if e.Op == OpCast {
		b.WriteString(" to ")
		b.WriteString(e.typ.String())
	}
	b.WriteString(")")
	return b.String()
}

// valueRef returns how a value is spelled when used as an operand: literal
// text for constants, %name for registers/blocks, @-less %name for globals
// (LLVM 1.x used % for globals too).
func valueRef(v Value) string {
	switch c := v.(type) {
	case *ConstantInt:
		return c.String()
	case *ConstantFloat:
		return c.String()
	case *ConstantBool:
		return c.String()
	case *ConstantNull:
		return "null"
	case *ConstantUndef:
		return "undef"
	case *ConstantZero:
		return "zeroinitializer"
	case *ConstantArray:
		return c.String()
	case *ConstantStruct:
		return c.String()
	case *ConstantExpr:
		return c.String()
	case nil:
		return "<nil>"
	}
	return "%" + v.Name()
}

// ZeroValueOf returns the canonical zero constant for a first-class or
// aggregate type.
func ZeroValueOf(t Type) Constant {
	switch {
	case IsInteger(t):
		return NewInt(t, 0)
	case IsFloatingPoint(t):
		return NewFloat(t, 0)
	case t.Kind() == BoolKind:
		return NewBool(false)
	case t.Kind() == PointerKind:
		return NewNull(t.(*PointerType))
	default:
		return NewZero(t)
	}
}

// IsConstantZero reports whether c is a zero of its type.
func IsConstantZero(c Constant) bool {
	switch cc := c.(type) {
	case *ConstantInt:
		return cc.Val == 0
	case *ConstantFloat:
		return cc.Val == 0
	case *ConstantBool:
		return !cc.Val
	case *ConstantNull, *ConstantZero:
		return true
	}
	return false
}
