// Package core implements the LLVM 1.x-style intermediate representation
// described in "LLVM: A Compilation Framework for Lifelong Program Analysis &
// Transformation" (CGO 2004): a typed, SSA-based, low-level instruction set
// with exactly 31 opcodes, a language-independent type system, explicit
// memory allocation, and invoke/unwind exception primitives.
//
// The package provides the in-memory representation (Module, Function,
// BasicBlock, the Instruction hierarchy), the textual printer for the
// assembly syntax used by the paper, an IRBuilder for constructing code, and
// a Verifier that enforces the type and SSA rules.
package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// TypeKind discriminates the concrete implementations of Type.
type TypeKind int

// The kinds of types in the LLVM 1.x type system: primitive types with
// predefined sizes, plus exactly four derived types (pointer, array,
// struct, function). Label is the type of basic blocks; Opaque stands for
// a named type whose definition is not (yet) known.
const (
	VoidKind TypeKind = iota
	BoolKind
	SByteKind  // signed 8-bit
	UByteKind  // unsigned 8-bit
	ShortKind  // signed 16-bit
	UShortKind // unsigned 16-bit
	IntKind    // signed 32-bit
	UIntKind   // unsigned 32-bit
	LongKind   // signed 64-bit
	ULongKind  // unsigned 64-bit
	FloatKind  // IEEE single
	DoubleKind // IEEE double
	LabelKind
	PointerKind
	ArrayKind
	StructKind
	FunctionKind
	OpaqueKind
)

// Type is the interface implemented by every type in the IR. There is one
// object per type, so two types of a module are equal exactly when they
// are ==. Primitive types are singletons; the constructors of pointer,
// array, function and literal (unnamed) struct types return one object per
// set of components; named struct and opaque types are nominal, one object
// per (module, name). Canonical types are keyed on the identity of their
// components, not their contents, so a named struct's body may be filled
// in or permuted in place. Every other type is immutable.
type Type interface {
	Kind() TypeKind
	String() string
	derived() *derivedTypes
}

// derivedTypes is embedded in every type: it caches the canonical types
// built directly on this one. The pointer to T lives on T; the arrays of T
// live on T, keyed by length; a function type or literal struct lives on
// its first component that mentions a named struct or opaque type (see
// canonical). A cache therefore lives exactly as long as the types it
// derives from: nothing process-wide keeps a module's named types alive.
type derivedTypes struct {
	serial  atomic.Uint64 // this type's identity in component keys; 0 until first asked
	nominal bool          // the type mentions a named struct or opaque type
	ptr     atomic.Pointer[PointerType]
	more    sync.Map // int length -> *ArrayType; component key -> *FunctionType or *StructType
}

func (d *derivedTypes) derived() *derivedTypes { return d }

// lastSerial numbers types on first use as a component.
var lastSerial atomic.Uint64

// literalTypes holds the function types and literal structs built from
// primitive types only; there are no other process-wide type tables.
var literalTypes sync.Map

// mentionsNominal reports whether t is, or is built from, a named struct
// or an opaque type.
func mentionsNominal(t Type) bool {
	switch tt := t.(type) {
	case *StructType:
		return tt.Name != "" || tt.nominal
	case *OpaqueType:
		return true
	}
	return t.derived().nominal
}

// canonical returns the one function type or literal struct with t's
// components comps, registering t if it is the first.
func canonical[T Type](t T, tag byte, comps []Type) T {
	key := append(make([]byte, 0, 1+2*len(comps)), tag)
	table := &literalTypes
	for _, c := range comps {
		d := c.derived()
		if d.serial.Load() == 0 {
			d.serial.CompareAndSwap(0, lastSerial.Add(1))
		}
		key = binary.AppendUvarint(key, d.serial.Load())
		if table == &literalTypes && mentionsNominal(c) {
			table = &d.more
		}
	}
	t.derived().nominal = table != &literalTypes
	got, _ := table.LoadOrStore(string(key), t)
	return got.(T)
}

// PrimitiveType is one of the predefined-size primitive types (and label).
type PrimitiveType struct {
	derivedTypes
	kind TypeKind
}

// Kind returns the type's kind.
func (t *PrimitiveType) Kind() TypeKind { return t.kind }

// String returns the assembly spelling of the type.
func (t *PrimitiveType) String() string {
	switch t.kind {
	case VoidKind:
		return "void"
	case BoolKind:
		return "bool"
	case SByteKind:
		return "sbyte"
	case UByteKind:
		return "ubyte"
	case ShortKind:
		return "short"
	case UShortKind:
		return "ushort"
	case IntKind:
		return "int"
	case UIntKind:
		return "uint"
	case LongKind:
		return "long"
	case ULongKind:
		return "ulong"
	case FloatKind:
		return "float"
	case DoubleKind:
		return "double"
	case LabelKind:
		return "label"
	}
	return "<badprim>"
}

// Singleton instances of the primitive types.
var (
	VoidType   = &PrimitiveType{kind: VoidKind}
	BoolType   = &PrimitiveType{kind: BoolKind}
	SByteType  = &PrimitiveType{kind: SByteKind}
	UByteType  = &PrimitiveType{kind: UByteKind}
	ShortType  = &PrimitiveType{kind: ShortKind}
	UShortType = &PrimitiveType{kind: UShortKind}
	IntType    = &PrimitiveType{kind: IntKind}
	UIntType   = &PrimitiveType{kind: UIntKind}
	LongType   = &PrimitiveType{kind: LongKind}
	ULongType  = &PrimitiveType{kind: ULongKind}
	FloatType  = &PrimitiveType{kind: FloatKind}
	DoubleType = &PrimitiveType{kind: DoubleKind}
	LabelType  = &PrimitiveType{kind: LabelKind}
)

// PointerType is a typed pointer to Elem.
type PointerType struct {
	derivedTypes
	Elem Type
}

// NewPointer returns the pointer type *elem.
func NewPointer(elem Type) *PointerType {
	d := elem.derived()
	if p := d.ptr.Load(); p != nil {
		return p
	}
	p := &PointerType{Elem: elem}
	p.nominal = mentionsNominal(elem)
	d.ptr.CompareAndSwap(nil, p)
	return d.ptr.Load()
}

// Kind returns PointerKind.
func (t *PointerType) Kind() TypeKind { return PointerKind }

// String returns the assembly spelling, e.g. "int*".
func (t *PointerType) String() string { return t.Elem.String() + "*" }

// ArrayType is a fixed-size array [Len x Elem].
type ArrayType struct {
	derivedTypes
	Elem Type
	Len  int
}

// NewArray returns the array type [n x elem].
func NewArray(elem Type, n int) *ArrayType {
	a := &ArrayType{Elem: elem, Len: n}
	a.nominal = mentionsNominal(elem)
	got, _ := elem.derived().more.LoadOrStore(n, a)
	return got.(*ArrayType)
}

// Kind returns ArrayKind.
func (t *ArrayType) Kind() TypeKind { return ArrayKind }

// String returns the assembly spelling, e.g. "[10 x int]".
func (t *ArrayType) String() string { return fmt.Sprintf("[%d x %s]", t.Len, t.Elem) }

// StructType is a structure with an ordered field list. A named struct is
// built as &StructType{Name: ...} and registered in one Module's type
// table; its body may be set after construction, so it may be recursive.
// A literal struct (Name "") comes only from NewStruct.
type StructType struct {
	derivedTypes
	Name   string // "" for literal struct types
	Fields []Type
}

// NewStruct returns the literal (unnamed) struct type with the given fields.
func NewStruct(fields ...Type) *StructType {
	return canonical(&StructType{Fields: append([]Type{}, fields...)}, 's', fields)
}

// Kind returns StructKind.
func (t *StructType) Kind() TypeKind { return StructKind }

// String returns the struct's name if it has one, else its literal spelling.
func (t *StructType) String() string {
	if t.Name != "" {
		return "%" + t.Name
	}
	return t.LiteralString()
}

// LiteralString returns the literal spelling "{ f1, f2, ... }" regardless of
// whether the struct is named. Recursive named structs must not call this on
// themselves via their fields.
func (t *StructType) LiteralString() string {
	var b strings.Builder
	b.WriteString("{ ")
	for i, f := range t.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.String())
	}
	b.WriteString(" }")
	return b.String()
}

// FunctionType is a function signature.
type FunctionType struct {
	derivedTypes
	Ret      Type
	Params   []Type
	Variadic bool
}

// NewFunctionType returns the function type ret(params...).
func NewFunctionType(ret Type, params ...Type) *FunctionType {
	return FunctionTypeOf(ret, params, false)
}

// FunctionTypeOf returns the function type ret(params), followed by "..."
// when variadic.
func FunctionTypeOf(ret Type, params []Type, variadic bool) *FunctionType {
	tag := byte('f')
	if variadic {
		tag = 'v'
	}
	ft := &FunctionType{Ret: ret, Params: append([]Type{}, params...), Variadic: variadic}
	return canonical(ft, tag, append([]Type{ret}, params...))
}

// Kind returns FunctionKind.
func (t *FunctionType) Kind() TypeKind { return FunctionKind }

// String returns the assembly spelling, e.g. "int (int, sbyte*)".
func (t *FunctionType) String() string {
	var b strings.Builder
	b.WriteString(t.Ret.String())
	b.WriteString(" (")
	for i, p := range t.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.String())
	}
	if t.Variadic {
		if len(t.Params) > 0 {
			b.WriteString(", ")
		}
		b.WriteString("...")
	}
	b.WriteString(")")
	return b.String()
}

// OpaqueType is a type with an unknown body; it should not appear in
// verified modules except behind a pointer. Like a named struct it is
// nominal: each object is its own type.
type OpaqueType struct {
	derivedTypes
	Name string
}

// Kind returns OpaqueKind.
func (t *OpaqueType) Kind() TypeKind { return OpaqueKind }

// String returns the opaque type's spelling.
func (t *OpaqueType) String() string {
	if t.Name != "" {
		return "%" + t.Name
	}
	return "opaque"
}

// IsInteger reports whether t is one of the eight integer types.
func IsInteger(t Type) bool {
	switch t.Kind() {
	case SByteKind, UByteKind, ShortKind, UShortKind, IntKind, UIntKind, LongKind, ULongKind:
		return true
	}
	return false
}

// IsSigned reports whether t is a signed integer type.
func IsSigned(t Type) bool {
	switch t.Kind() {
	case SByteKind, ShortKind, IntKind, LongKind:
		return true
	}
	return false
}

// IsUnsigned reports whether t is an unsigned integer type.
func IsUnsigned(t Type) bool {
	switch t.Kind() {
	case UByteKind, UShortKind, UIntKind, ULongKind:
		return true
	}
	return false
}

// IsFloatingPoint reports whether t is float or double.
func IsFloatingPoint(t Type) bool {
	k := t.Kind()
	return k == FloatKind || k == DoubleKind
}

// IsArithmetic reports whether t supports the arithmetic binary operators.
func IsArithmetic(t Type) bool { return IsInteger(t) || IsFloatingPoint(t) }

// IsSized reports whether objects of type t have a well-defined allocation
// size: primitives except void and label, pointers, and aggregates built
// from sized types. Function and opaque types are unsized — they cannot be
// allocated, loaded, stored, or freed by value.
func IsSized(t Type) bool {
	switch tt := t.(type) {
	case *PrimitiveType:
		return tt.kind != VoidKind && tt.kind != LabelKind
	case *PointerType:
		return true
	case *ArrayType:
		return IsSized(tt.Elem)
	case *StructType:
		for _, f := range tt.Fields {
			if !IsSized(f) {
				return false
			}
		}
		return true
	}
	return false
}

// IsFirstClass reports whether values of type t can live in virtual
// registers: bool, the integers, the floats, and pointers.
func IsFirstClass(t Type) bool {
	return t.Kind() == BoolKind || IsInteger(t) || IsFloatingPoint(t) || t.Kind() == PointerKind
}

// BitWidth returns the width in bits of a primitive first-class type
// (pointers report 64). It returns 0 for aggregate and void types.
func BitWidth(t Type) int {
	switch t.Kind() {
	case BoolKind:
		return 1
	case SByteKind, UByteKind:
		return 8
	case ShortKind, UShortKind:
		return 16
	case IntKind, UIntKind:
		return 32
	case LongKind, ULongKind, PointerKind:
		return 64
	case FloatKind:
		return 32
	case DoubleKind:
		return 64
	}
	return 0
}

// SizeOf returns the size in bytes a value of type t occupies in the
// abstract memory model (pointers are 8 bytes). Aggregates are laid out
// with natural alignment.
func SizeOf(t Type) int {
	switch tt := t.(type) {
	case *PrimitiveType:
		switch tt.kind {
		case BoolKind, SByteKind, UByteKind:
			return 1
		case ShortKind, UShortKind:
			return 2
		case IntKind, UIntKind, FloatKind:
			return 4
		case LongKind, ULongKind, DoubleKind:
			return 8
		}
		return 0
	case *PointerType:
		return 8
	case *ArrayType:
		return tt.Len * SizeOf(tt.Elem)
	case *StructType:
		size := 0
		for _, f := range tt.Fields {
			a := AlignOf(f)
			size = alignUp(size, a)
			size += SizeOf(f)
		}
		return alignUp(size, AlignOf(tt))
	}
	return 0
}

// AlignOf returns the natural alignment in bytes of type t.
func AlignOf(t Type) int {
	switch tt := t.(type) {
	case *PrimitiveType:
		s := SizeOf(t)
		if s == 0 {
			return 1
		}
		return s
	case *PointerType:
		return 8
	case *ArrayType:
		return AlignOf(tt.Elem)
	case *StructType:
		a := 1
		for _, f := range tt.Fields {
			if fa := AlignOf(f); fa > a {
				a = fa
			}
		}
		return a
	}
	return 1
}

// FieldOffset returns the byte offset of field i within struct type st.
func FieldOffset(st *StructType, i int) int {
	off := 0
	for j := 0; j <= i; j++ {
		f := st.Fields[j]
		off = alignUp(off, AlignOf(f))
		if j == i {
			return off
		}
		off += SizeOf(f)
	}
	return off
}

func alignUp(n, a int) int {
	if a <= 1 {
		return n
	}
	return (n + a - 1) / a * a
}

// Isomorphic reports whether a and b, types of two modules (a program and
// a unit being linked in, or a module and the clone a pass changed), have
// the same structure, a named struct matching only one of its own name.
// m maps b's named structs to the a-side structs taken to equal them, so
// recursion terminates; Isomorphic extends it with every pair it relies
// on, so a caller keeps m only when the answer is true.
func Isomorphic(a, b Type, m map[Type]Type) bool {
	if a == b {
		return true
	}
	same := func(as, bs []Type) bool {
		return slices.EqualFunc(as, bs, func(x, y Type) bool { return Isomorphic(x, y, m) })
	}
	switch at := a.(type) {
	case *PointerType:
		bt, ok := b.(*PointerType)
		return ok && Isomorphic(at.Elem, bt.Elem, m)
	case *ArrayType:
		bt, ok := b.(*ArrayType)
		return ok && at.Len == bt.Len && Isomorphic(at.Elem, bt.Elem, m)
	case *StructType:
		bt, ok := b.(*StructType)
		if !ok || at.Name != bt.Name {
			return false
		}
		if bt.Name != "" {
			if x, seen := m[b]; seen {
				return x == a
			}
			m[b] = a
		}
		return same(at.Fields, bt.Fields)
	case *FunctionType:
		bt, ok := b.(*FunctionType)
		return ok && at.Variadic == bt.Variadic && Isomorphic(at.Ret, bt.Ret, m) && same(at.Params, bt.Params)
	}
	return false // distinct primitives, or opaque types, which are nominal
}

// IsLosslesslyConvertible reports whether a cast from 'from' to 'to' cannot
// lose information (same bit width integers, pointer-to-pointer, etc.).
// This mirrors the "physical subtyping" casts the paper distinguishes from
// reinterpreting casts.
func IsLosslesslyConvertible(from, to Type) bool {
	if from == to {
		return true
	}
	if IsInteger(from) && IsInteger(to) {
		return BitWidth(to) >= BitWidth(from)
	}
	if from.Kind() == PointerKind && to.Kind() == PointerKind {
		return true
	}
	return false
}
