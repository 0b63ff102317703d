package bytecode

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/wire"
)

// Decode parses a bytecode image back into a Module. Hostile input is
// contained: every malformation — including one that trips an internal
// panic in an IR constructor — is reported as an error carrying the byte
// offset where decoding stopped, never as a Go panic.
func Decode(data []byte) (m *core.Module, err error) {
	r := wire.NewReader(data)
	defer func() {
		if rec := recover(); rec != nil {
			m, err = nil, fmt.Errorf("bytecode: offset %d: invalid input: %v", r.Offset(), rec)
		} else if err != nil {
			m, err = nil, fmt.Errorf("bytecode: offset %d: %w", r.Offset(), err)
		}
	}()
	r.Expect(string(Magic[:]))
	if ver := r.Byte(); r.Err() == nil && ver != Version {
		r.Failf("unsupported version %d", ver)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	d := &decoder{r: r}
	return d.run()
}

type decoder struct {
	r     *wire.Reader
	strs  []string
	types []core.Type
	m     *core.Module
	// Module-level values: functions then globals, by encoder order.
	modValues []core.Value
}

func (d *decoder) run() (*core.Module, error) {
	r := d.r
	// Each string is at least its length byte.
	d.strs = make([]string, r.Count(1))
	for i := range d.strs {
		d.strs[i] = r.Str()
	}
	modName := r.Str()
	d.readTypeTable()
	if r.Err() != nil {
		return nil, r.Err()
	}
	d.m = core.NewModule(modName)

	// Named module types: (name id, type id) pairs.
	for n := r.Count(2); n > 0; n-- {
		name, t := d.str(r.Uvarint()), d.readType()
		if r.Err() != nil {
			return nil, r.Err()
		}
		d.m.AddTypeName(name, t)
	}

	// Global and function headers: name id, type id, flag byte.
	type hdr struct {
		name  string
		t     core.Type
		flags byte
	}
	readHdrs := func() []hdr {
		hdrs := make([]hdr, r.Count(3))
		for i := range hdrs {
			hdrs[i] = hdr{d.str(r.Uvarint()), d.readType(), r.Byte()}
		}
		return hdrs
	}
	gHdrs := readHdrs()
	fHdrs := readHdrs()
	if r.Err() != nil {
		return nil, r.Err()
	}
	// Module values in encoder order: functions, then globals.
	d.modValues = make([]core.Value, 0, len(fHdrs)+len(gHdrs))
	for _, h := range fHdrs {
		sig, ok := h.t.(*core.FunctionType)
		if !ok {
			return nil, fmt.Errorf("function %q has non-function type %s", h.name, h.t)
		}
		if d.symbolTaken(h.name) {
			return nil, fmt.Errorf("duplicate function symbol %%%s", h.name)
		}
		f := core.NewFunction(h.name, sig)
		if h.flags&flagInternal != 0 {
			f.Linkage = core.InternalLinkage
		}
		d.m.AddFunc(f)
		d.modValues = append(d.modValues, f)
	}
	for _, h := range gHdrs {
		if d.symbolTaken(h.name) {
			return nil, fmt.Errorf("duplicate global symbol %%%s", h.name)
		}
		g := core.NewGlobal(h.name, h.t, nil)
		g.IsConst = h.flags&flagConst != 0
		if h.flags&flagInternal != 0 {
			g.Linkage = core.InternalLinkage
		}
		d.m.AddGlobal(g)
		d.modValues = append(d.modValues, g)
	}

	// Global initializers.
	for i, g := range d.m.Globals {
		if gHdrs[i].flags&flagHasInit != 0 {
			if g.Init = d.readConstant(); r.Err() != nil {
				return nil, r.Err()
			}
		}
	}

	// Function bodies.
	for i, f := range d.m.Funcs {
		if fHdrs[i].flags&flagHasInit != 0 {
			if d.readFunctionBody(f); r.Err() != nil {
				return nil, fmt.Errorf("function %%%s: %w", f.Name(), r.Err())
			}
		}
	}
	return d.m, nil
}

// symbolTaken reports whether a module symbol already holds name, which
// core.Module.AddFunc and AddGlobal refuse by panicking.
func (d *decoder) symbolTaken(name string) bool {
	return d.m.Func(name) != nil || d.m.Global(name) != nil
}

// str resolves a string-table id. Like the other table lookups, it fails
// the reader on an id out of range and returns the zero value once the
// reader has failed.
func (d *decoder) str(id uint64) string {
	if d.r.Err() == nil && id < uint64(len(d.strs)) {
		return d.strs[id]
	}
	d.r.Failf("string id %d out of range", id)
	return ""
}

// typeByID resolves a type id.
func (d *decoder) typeByID(id uint64) core.Type {
	if d.r.Err() == nil && id < uint64(len(d.types)) {
		return d.types[id]
	}
	d.r.Failf("type id %d out of range", id)
	return nil
}

// readType reads and resolves a type id.
func (d *decoder) readType() core.Type { return d.typeByID(d.r.Uvarint()) }

// readConstant reads one constant record, recursively for aggregates. It
// returns nil once the reader has failed.
func (d *decoder) readConstant() core.Constant {
	r := d.r
	kind := r.Byte()
	if kind == ckModRef {
		id := r.Uvarint()
		if r.Err() == nil && id >= uint64(len(d.modValues)) {
			r.Failf("module value id %d out of range", id)
		}
		if r.Err() != nil {
			return nil
		}
		return d.modValues[id].(core.Constant)
	}
	if kind == ckBool {
		b := r.Byte()
		if r.Err() != nil {
			return nil
		}
		return core.NewBool(b != 0)
	}
	if kind == ckExprGEP {
		// Each index is a constant record of at least two bytes.
		n := r.Count(2)
		base := d.readConstant()
		idx := make([]core.Constant, n)
		ivals := make([]core.Value, n)
		for i := range idx {
			idx[i] = d.readConstant()
			ivals[i] = idx[i]
		}
		if r.Err() != nil {
			return nil
		}
		if _, err := core.GEPResultType(base.Type(), ivals); err != nil {
			r.Fail(err)
			return nil
		}
		return core.NewConstGEP(base, idx...)
	}

	// Every other kind starts with its type.
	t := d.readType()
	if r.Err() != nil {
		return nil
	}
	switch kind {
	case ckInt:
		v := r.Svarint()
		if !core.IsInteger(t) {
			r.Failf("int constant of type %s", t)
		}
		if r.Err() == nil {
			return core.NewInt(t, v)
		}
	case ckFloat:
		v := r.F64()
		if !core.IsFloatingPoint(t) {
			r.Failf("float constant of type %s", t)
		}
		if r.Err() == nil {
			return core.NewFloat(t, v)
		}
	case ckNull:
		if pt, ok := t.(*core.PointerType); ok {
			return core.NewNull(pt)
		}
		r.Failf("null constant of type %s", t)
	case ckUndef:
		return core.NewUndef(t)
	case ckZero:
		return core.NewZero(t)
	case ckArray:
		at, ok := t.(*core.ArrayType)
		if !ok {
			r.Failf("array constant of type %s", t)
			return nil
		}
		// Each element record is at least one byte, so a length beyond the
		// remaining input is a lie; reject before allocating for it.
		if at.Len < 0 || at.Len > r.Remaining() {
			r.Fail(wire.ErrTruncated)
			return nil
		}
		elems := make([]core.Constant, at.Len)
		for i := range elems {
			elems[i] = d.readConstant()
		}
		if r.Err() == nil {
			return core.NewArrayConst(at.Elem, elems)
		}
	case ckStruct:
		st, ok := t.(*core.StructType)
		if !ok {
			r.Failf("struct constant of type %s", t)
			return nil
		}
		fields := make([]core.Constant, len(st.Fields))
		for i := range fields {
			fields[i] = d.readConstant()
		}
		if r.Err() == nil {
			return core.NewStructConst(st, fields)
		}
	case ckExprCast:
		if v := d.readConstant(); r.Err() == nil {
			return core.NewConstCast(v, t)
		}
	default:
		r.Failf("bad constant kind %d", kind)
	}
	return nil
}
