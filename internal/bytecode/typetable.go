package bytecode

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/wire"
)

// Primitive types occupy fixed slots 0..12 in every type table; derived
// types are numbered from firstDerivedType in order of first use.
const firstDerivedType = 13

var primBySlot = []core.Type{
	core.VoidType, core.BoolType,
	core.SByteType, core.UByteType, core.ShortType, core.UShortType,
	core.IntType, core.UIntType, core.LongType, core.ULongType,
	core.FloatType, core.DoubleType, core.LabelType,
}

// Derived-type record kinds.
const (
	tkPointer byte = iota
	tkArray
	tkStruct
	tkFunction
	tkOpaque
)

// typeTable assigns dense ids to every type reachable from a module.
type typeTable struct {
	ids     map[core.Type]uint64
	derived []core.Type
}

func newTypeTable() *typeTable {
	tt := &typeTable{ids: map[core.Type]uint64{}}
	for i, t := range primBySlot {
		tt.ids[t] = uint64(i)
	}
	return tt
}

// id returns the id for t, registering it (and its components) on first use.
func (tt *typeTable) id(t core.Type) uint64 {
	if id, ok := tt.ids[t]; ok {
		return id
	}
	if pt, ok := t.(*core.PrimitiveType); ok {
		// Distinct pointer instances of primitives can't occur (singletons),
		// but guard against hand-built ones.
		for i, p := range primBySlot {
			if p.Kind() == pt.Kind() {
				return uint64(i)
			}
		}
	}
	// Register the shell first so recursive types terminate.
	id := uint64(firstDerivedType + len(tt.derived))
	tt.ids[t] = id
	tt.derived = append(tt.derived, t)
	// Force registration of components.
	switch tp := t.(type) {
	case *core.PointerType:
		tt.id(tp.Elem)
	case *core.ArrayType:
		tt.id(tp.Elem)
	case *core.StructType:
		for _, f := range tp.Fields {
			tt.id(f)
		}
	case *core.FunctionType:
		tt.id(tp.Ret)
		for _, p := range tp.Params {
			tt.id(p)
		}
	}
	return id
}

// write emits the derived-type records. Component references use type ids,
// which may point forward (recursive types); the decoder patches in a
// second pass.
func (tt *typeTable) write(w *wire.Writer, strs *stringTable) error {
	w.Uvarint(uint64(len(tt.derived)))
	for _, t := range tt.derived {
		switch tp := t.(type) {
		case *core.PointerType:
			w.Byte(tkPointer)
			w.Uvarint(tt.ids[tp.Elem])
		case *core.ArrayType:
			w.Byte(tkArray)
			w.Uvarint(uint64(tp.Len))
			w.Uvarint(tt.ids[tp.Elem])
		case *core.StructType:
			w.Byte(tkStruct)
			w.Uvarint(strs.id(tp.Name))
			w.Uvarint(uint64(len(tp.Fields)))
			for _, f := range tp.Fields {
				w.Uvarint(tt.ids[f])
			}
		case *core.FunctionType:
			w.Byte(tkFunction)
			w.Uvarint(tt.ids[tp.Ret])
			w.Uvarint(uint64(len(tp.Params)))
			for _, pr := range tp.Params {
				w.Uvarint(tt.ids[pr])
			}
			w.Bool(tp.Variadic)
		case *core.OpaqueType:
			w.Byte(tkOpaque)
			w.Uvarint(strs.id(tp.Name))
		default:
			return fmt.Errorf("bytecode: cannot encode type %T", t)
		}
	}
	return nil
}

// readTypeTable decodes the derived types into d.types in three passes:
// the raw records, then a shell per type so recursive references resolve,
// then the component references.
func (d *decoder) readTypeTable() {
	r := d.r
	type rawType struct {
		kind   byte
		name   string
		length uint64
		vararg bool
		// refs holds the component type ids: the element, the fields, or
		// the return type followed by the parameters.
		refs []uint64
	}
	// Each record is a kind byte and at least one varint.
	raws := make([]rawType, r.Count(2))
	for i := 0; i < len(raws) && r.Err() == nil; i++ {
		raw := &raws[i]
		raw.kind = r.Byte()
		switch raw.kind {
		case tkPointer:
			raw.refs = []uint64{r.Uvarint()}
		case tkArray:
			// Cap declared lengths so int(l) can't go negative and layout
			// arithmetic downstream can't overflow.
			if raw.length = r.Uvarint(); raw.length > 1<<40 {
				r.Failf("array type length %d out of range", raw.length)
			}
			raw.refs = []uint64{r.Uvarint()}
		case tkStruct:
			raw.name = d.str(r.Uvarint())
			raw.refs = make([]uint64, r.Count(1))
			for j := range raw.refs {
				raw.refs[j] = r.Uvarint()
			}
		case tkFunction:
			ret := r.Uvarint()
			raw.refs = make([]uint64, 1+r.Count(1))
			raw.refs[0] = ret
			for j := 1; j < len(raw.refs); j++ {
				raw.refs[j] = r.Uvarint()
			}
			raw.vararg = r.Byte() != 0
		case tkOpaque:
			raw.name = d.str(r.Uvarint())
		default:
			r.Failf("bad type kind %d", raw.kind)
		}
	}
	if r.Err() != nil {
		return
	}

	types := make([]core.Type, firstDerivedType+len(raws))
	copy(types, primBySlot)
	for i, raw := range raws {
		var t core.Type
		switch raw.kind {
		case tkPointer:
			t = &core.PointerType{}
		case tkArray:
			t = &core.ArrayType{Len: int(raw.length)}
		case tkStruct:
			t = &core.StructType{Name: raw.name}
		case tkFunction:
			t = &core.FunctionType{Variadic: raw.vararg}
		case tkOpaque:
			t = &core.OpaqueType{Name: raw.name}
		}
		types[firstDerivedType+i] = t
	}
	d.types = types
	resolve := func(ids []uint64) []core.Type {
		ts := make([]core.Type, len(ids))
		for j, id := range ids {
			ts[j] = d.typeByID(id)
		}
		return ts
	}
	for i, raw := range raws {
		switch t := types[firstDerivedType+i].(type) {
		case *core.PointerType:
			t.Elem = d.typeByID(raw.refs[0])
		case *core.ArrayType:
			t.Elem = d.typeByID(raw.refs[0])
		case *core.StructType:
			t.Fields = resolve(raw.refs)
		case *core.FunctionType:
			all := resolve(raw.refs)
			t.Ret, t.Params = all[0], all[1:]
		}
	}
	if r.Err() != nil {
		return
	}
	// Reject malformed graphs (self-referential function types, pointer
	// cycles without a named struct, infinite-size structs): they would
	// hang printing or layout computation downstream.
	for _, t := range types[firstDerivedType:] {
		if err := core.ValidateTypeGraph(t); err != nil {
			r.Fail(err)
			return
		}
	}
}
