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

// maxTypeNesting bounds how deep the decoder follows literal type records
// that refer to later ones.
const maxTypeNesting = 1 << 12

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

// id returns the id for t, registering it and its components on first
// use. A literal type's components are registered before it, so the
// decoder can build it through its constructor at once; a named struct is
// registered before its fields, which may refer back to it.
func (tt *typeTable) id(t core.Type) uint64 {
	if id, ok := tt.ids[t]; ok {
		return id
	}
	switch tp := t.(type) {
	case *core.PointerType:
		tt.id(tp.Elem)
	case *core.ArrayType:
		tt.id(tp.Elem)
	case *core.StructType:
		if tp.Name != "" {
			tt.add(t)
		}
		for _, f := range tp.Fields {
			tt.id(f)
		}
	case *core.FunctionType:
		tt.id(tp.Ret)
		for _, p := range tp.Params {
			tt.id(p)
		}
	}
	if id, ok := tt.ids[t]; ok {
		return id // a named struct, or registered through one's fields
	}
	return tt.add(t)
}

func (tt *typeTable) add(t core.Type) uint64 {
	id := uint64(firstDerivedType + len(tt.derived))
	tt.ids[t] = id
	tt.derived = append(tt.derived, t)
	return id
}

// write emits the derived-type records. Component references use type ids;
// only a reference to a named struct may point forward.
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

// readTypeTable decodes the derived types into d.types. Named structs and
// opaque types are nominal: each record makes a fresh object as it is read,
// so any record may refer to it. Literal types are built through their
// constructors, components first, so equal records collapse to one object.
// This encoder writes a literal type's components before it; older images
// may list them after, so a record may wait on a later one, but a literal
// record that leads back to itself is refused.
func (d *decoder) readTypeTable() {
	r := d.r
	type rawType struct {
		kind   byte
		length uint64
		vararg bool
		// refs holds the component type ids: the element, the fields, or
		// the return type followed by the parameters.
		refs []uint64
		// building marks a literal record whose construction has started.
		building bool
	}
	// Each record is a kind byte and at least one varint.
	raws := make([]rawType, r.Count(2))
	types := make([]core.Type, firstDerivedType+len(raws))
	copy(types, primBySlot)
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
			if name := d.str(r.Uvarint()); name != "" {
				types[firstDerivedType+i] = &core.StructType{Name: name}
			}
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
			types[firstDerivedType+i] = &core.OpaqueType{Name: d.str(r.Uvarint())}
		default:
			r.Failf("bad type kind %d", raw.kind)
		}
	}
	if r.Err() != nil {
		return
	}

	d.types = types
	// Build the literal types components first. Nesting is capped, so a
	// hostile chain of forward references cannot exhaust the stack.
	var build func(id uint64, depth int) core.Type
	build = func(id uint64, depth int) core.Type {
		if t := d.typeByID(id); t != nil || r.Err() != nil {
			return t
		}
		raw := &raws[id-firstDerivedType]
		if raw.building {
			r.Failf("type record %d leads back to itself through literal types", id)
		} else if depth > maxTypeNesting {
			r.Failf("type record %d nests deeper than %d records", id, maxTypeNesting)
		}
		if r.Err() != nil {
			return nil
		}
		raw.building = true
		c := make([]core.Type, len(raw.refs))
		for j, ref := range raw.refs {
			if c[j] = build(ref, depth+1); c[j] == nil {
				return nil
			}
		}
		switch raw.kind {
		case tkPointer:
			types[id] = core.NewPointer(c[0])
		case tkArray:
			types[id] = core.NewArray(c[0], int(raw.length))
		case tkStruct:
			types[id] = core.NewStruct(c...)
		case tkFunction:
			types[id] = core.FunctionTypeOf(c[0], c[1:], raw.vararg)
		}
		return types[id]
	}
	for i := range raws {
		build(uint64(firstDerivedType+i), 0)
	}
	if r.Err() != nil {
		return
	}
	for i, raw := range raws {
		if st, ok := types[firstDerivedType+i].(*core.StructType); ok && st.Name != "" {
			st.Fields = make([]core.Type, len(raw.refs))
			for j, ref := range raw.refs {
				st.Fields[j] = d.typeByID(ref)
			}
		}
	}
	// Reject infinite-size structs: they would hang layout computation
	// downstream.
	for _, t := range types[firstDerivedType:] {
		if err := core.ValidateTypeGraph(t); err != nil {
			r.Fail(err)
			return
		}
	}
}
