package core

import "fmt"

// Module is a translation unit: named types, global variables, and
// functions. Modules are the unit of separate compilation; the linker
// merges them (preserving the representation for later stages, per the
// paper's lifelong-compilation model).
type Module struct {
	Name string

	// TypeNames maps %name to its type, in declaration order for printing.
	typeNames    map[string]Type
	typeOrder    []string
	Globals      []*GlobalVariable
	Funcs        []*Function
	globalByName map[string]*GlobalVariable
	funcByName   map[string]*Function

	// stamp counts the edits to the module outside function bodies (see
	// Version).
	stamp uint64
}

// touch records an edit to m outside function bodies; m may be nil (a
// detached function or global).
func (m *Module) touch() {
	if m != nil {
		m.stamp++
	}
}

// Version identifies the state of m: it moves on every edit to the
// function or global lists, a linkage, an initializer, a named type, or
// any function's body: it is the module's own stamp plus the sum of its
// functions' body stamps, and every edit makes it grow. A module-level
// analysis computed at one version holds while the version is unchanged.
// It reads every function's body stamp, so call it only while no pass is
// editing m's functions.
func (m *Module) Version() uint64 {
	v := m.stamp
	for _, f := range m.Funcs {
		v += f.bodyStamp
	}
	return v
}

// NewModule creates an empty module.
func NewModule(name string) *Module {
	return &Module{
		Name:         name,
		typeNames:    map[string]Type{},
		globalByName: map[string]*GlobalVariable{},
		funcByName:   map[string]*Function{},
	}
}

// AddTypeName registers "%name = type ..." in the module's symbol table.
// A struct type defined under the name must be built as a named struct
// (&StructType{Name: name}); any other type t is registered as an alias.
func (m *Module) AddTypeName(name string, t Type) {
	if _, dup := m.typeNames[name]; !dup {
		m.typeOrder = append(m.typeOrder, name)
	}
	m.typeNames[name] = t
	m.touch()
}

// NamedType looks up a type by name.
func (m *Module) NamedType(name string) (Type, bool) {
	t, ok := m.typeNames[name]
	return t, ok
}

// TypeNames returns the registered type names in declaration order.
func (m *Module) TypeNames() []string { return m.typeOrder }

// RemoveTypeName deletes a named type entry (dead type elimination).
func (m *Module) RemoveTypeName(name string) {
	if _, ok := m.typeNames[name]; !ok {
		return
	}
	delete(m.typeNames, name)
	m.touch()
	for i, n := range m.typeOrder {
		if n == name {
			m.typeOrder = append(m.typeOrder[:i], m.typeOrder[i+1:]...)
			break
		}
	}
}

// AddGlobal inserts g into the module. The name must be unique among
// globals and functions.
func (m *Module) AddGlobal(g *GlobalVariable) {
	if m.globalByName[g.Name()] != nil || m.funcByName[g.Name()] != nil {
		panic(fmt.Sprintf("core: duplicate global symbol %%%s", g.Name()))
	}
	g.parent = m
	m.Globals = append(m.Globals, g)
	m.globalByName[g.Name()] = g
	m.touch()
}

// AddFunc inserts f into the module. The name must be unique among globals
// and functions.
func (m *Module) AddFunc(f *Function) {
	if m.globalByName[f.Name()] != nil || m.funcByName[f.Name()] != nil {
		panic(fmt.Sprintf("core: duplicate function symbol %%%s", f.Name()))
	}
	f.parent = m
	m.Funcs = append(m.Funcs, f)
	m.funcByName[f.Name()] = f
	m.touch()
}

// Global looks up a global variable by name.
func (m *Module) Global(name string) *GlobalVariable { return m.globalByName[name] }

// Func looks up a function by name.
func (m *Module) Func(name string) *Function { return m.funcByName[name] }

// RemoveGlobal unlinks g from the module; its uses must already be gone.
func (m *Module) RemoveGlobal(g *GlobalVariable) {
	for i, x := range m.Globals {
		if x == g {
			m.Globals = append(m.Globals[:i], m.Globals[i+1:]...)
			delete(m.globalByName, g.Name())
			g.parent = nil
			m.touch()
			return
		}
	}
}

// RemoveFunc unlinks f from the module; its uses must already be gone.
func (m *Module) RemoveFunc(f *Function) {
	for i, x := range m.Funcs {
		if x == f {
			m.Funcs = append(m.Funcs[:i], m.Funcs[i+1:]...)
			delete(m.funcByName, f.Name())
			f.parent = nil
			m.stamp += f.bodyStamp + 1 // the version still only grows
			return
		}
	}
}

// RenameFunc changes a function's symbol name, keeping lookup maps
// consistent. The new name must be free.
func (m *Module) RenameFunc(f *Function, newName string) {
	if m.funcByName[newName] != nil || m.globalByName[newName] != nil {
		panic("core.RenameFunc: symbol already exists: " + newName)
	}
	delete(m.funcByName, f.Name())
	f.SetName(newName)
	m.funcByName[newName] = f
	m.touch()
}

// UniqueSymbol returns base if it is unused, else base.N for the smallest
// free N. Useful when the linker must rename internal symbols.
func (m *Module) UniqueSymbol(base string) string {
	if m.funcByName[base] == nil && m.globalByName[base] == nil {
		return base
	}
	for i := 1; ; i++ {
		cand := fmt.Sprintf("%s.%d", base, i)
		if m.funcByName[cand] == nil && m.globalByName[cand] == nil {
			return cand
		}
	}
}

// NumInstructions returns the total instruction count of the module.
func (m *Module) NumInstructions() int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstructions()
	}
	return n
}

// GetOrInsertFunction returns the function named name, creating an external
// declaration with the given signature if absent.
func (m *Module) GetOrInsertFunction(name string, sig *FunctionType) *Function {
	if f := m.funcByName[name]; f != nil {
		return f
	}
	f := NewFunction(name, sig)
	m.AddFunc(f)
	return f
}

// AdoptFrom moves the entire contents of src into m, replacing whatever m
// held. Functions and globals are re-parented to m; src must not be used
// afterwards. The pass manager uses this to commit a transformed scratch
// clone back into the caller's module (or, symmetrically, to roll a module
// back to a snapshot) without invalidating the caller's *Module pointer.
// m's version moves past both its own and src's.
func (m *Module) AdoptFrom(src *Module) {
	m.stamp = m.Version() + 1 + src.stamp
	m.Name = src.Name
	m.typeNames = src.typeNames
	m.typeOrder = src.typeOrder
	m.Globals = src.Globals
	m.Funcs = src.Funcs
	m.globalByName = src.globalByName
	m.funcByName = src.funcByName
	for _, f := range m.Funcs {
		f.parent = m
	}
	for _, g := range m.Globals {
		g.parent = m
	}
}

// PermuteFields moves field i of st, a named struct type of m, to
// position perm[i]. Rewriting the GEPs and constants that index st is the
// caller's responsibility. The types built on st stay valid: they are
// keyed on st's identity, not on its fields.
func (m *Module) PermuteFields(st *StructType, perm []int) {
	fields := make([]Type, len(st.Fields))
	for oldPos, newPos := range perm {
		fields[newPos] = st.Fields[oldPos]
	}
	st.Fields = fields
	m.touch()
}

// MoveTypeNameToEnd reorders a named type to the end of the declaration
// order; parsers use it so printing reflects declaration order even when a
// type was first seen as a forward reference.
func (m *Module) MoveTypeNameToEnd(name string) {
	for i, n := range m.typeOrder {
		if n == name {
			m.typeOrder = append(m.typeOrder[:i], m.typeOrder[i+1:]...)
			m.typeOrder = append(m.typeOrder, name)
			m.touch()
			return
		}
	}
}
