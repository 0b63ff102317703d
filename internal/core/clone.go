package core

import (
	"fmt"
	"maps"
)

// CloneBlocks deep-copies the body of src. vmap seeds the value remapping
// (typically src arguments to replacement values); it is extended with
// every cloned block and instruction, so the caller can look up the clone
// of any original value afterwards. The returned blocks are detached; the
// caller inserts them into a function.
//
// Operands not present in vmap and not defined inside src (constants,
// globals, functions) are shared, not copied.
func CloneBlocks(src *Function, vmap map[Value]Value) []*BasicBlock {
	return cloneBlocksMapped(src, vmap, func(t Type) Type { return t })
}

// cloneBlocksMapped is CloneBlocks with an explicit type remapping, used by
// CloneModule so instruction-carried types (alloca/malloc element types,
// cast/phi/vaarg result types) point into the clone's type graph.
func cloneBlocksMapped(src *Function, vmap map[Value]Value, mapType func(Type) Type) []*BasicBlock {
	clones := make([]*BasicBlock, len(src.Blocks))
	for i, b := range src.Blocks {
		nb := NewBlock(b.Name())
		clones[i] = nb
		vmap[b] = nb
	}
	// Forward references (phis, and branches to later blocks are already
	// mapped) are patched through placeholders.
	pending := map[Value]*Placeholder{}
	lookup := func(v Value) Value {
		if v == nil {
			return nil
		}
		if mv, ok := vmap[v]; ok {
			return mv
		}
		// Values defined inside src must be remapped; placeholders cover
		// instructions not yet cloned.
		if inst, ok := v.(Instruction); ok && inst.Parent() != nil && inst.Parent().Parent() == src {
			if ph, ok := pending[v]; ok {
				return ph
			}
			ph := NewPlaceholder(v.Name(), v.Type())
			pending[v] = ph
			return ph
		}
		return v // constant, global, argument of another function, ...
	}

	for i, b := range src.Blocks {
		nb := clones[i]
		for _, inst := range b.Instrs {
			ni := cloneInstruction(inst, lookup, mapType)
			ni.SetName(inst.Name())
			nb.Append(ni)
			vmap[inst] = ni
		}
	}
	// Resolve placeholders now that every instruction has a clone.
	for orig, ph := range pending {
		ReplaceAllUses(ph, vmap[orig])
	}
	return clones
}

// cloneInstruction copies one instruction, remapping operands with lookup
// and instruction-carried types with mapType.
func cloneInstruction(inst Instruction, lookup func(Value) Value, mapType func(Type) Type) Instruction {
	switch i := inst.(type) {
	case *RetInst:
		return NewRet(lookup(i.Value()))
	case *BranchInst:
		if i.IsConditional() {
			return NewCondBr(lookup(i.Cond()), lookup(i.TrueDest()).(*BasicBlock), lookup(i.FalseDest()).(*BasicBlock))
		}
		return NewBr(lookup(i.TrueDest()).(*BasicBlock))
	case *SwitchInst:
		sw := NewSwitch(lookup(i.Value()), lookup(i.Default()).(*BasicBlock))
		for n := 0; n < i.NumCases(); n++ {
			v, d := i.Case(n)
			sw.AddCase(v, lookup(d).(*BasicBlock))
		}
		return sw
	case *InvokeInst:
		args := make([]Value, len(i.Args()))
		for k, a := range i.Args() {
			args[k] = lookup(a)
		}
		return NewInvoke(lookup(i.Callee()), args, lookup(i.NormalDest()).(*BasicBlock), lookup(i.UnwindDest()).(*BasicBlock))
	case *UnwindInst:
		return NewUnwind()
	case *BinaryInst:
		return NewBinary(i.Opcode(), lookup(i.LHS()), lookup(i.RHS()))
	case *MallocInst:
		return NewMalloc(mapType(i.AllocType), lookup(i.NumElems()))
	case *AllocaInst:
		return NewAlloca(mapType(i.AllocType), lookup(i.NumElems()))
	case *FreeInst:
		return NewFree(lookup(i.Ptr()))
	case *LoadInst:
		return NewLoad(lookup(i.Ptr()))
	case *StoreInst:
		return NewStore(lookup(i.Val()), lookup(i.Ptr()))
	case *GetElementPtrInst:
		idx := make([]Value, len(i.Indices()))
		for k, ix := range i.Indices() {
			idx[k] = lookup(ix)
		}
		return NewGEP(lookup(i.Base()), idx...)
	case *PhiInst:
		phi := NewPhi(mapType(i.Type()))
		for n := 0; n < i.NumIncoming(); n++ {
			v, b := i.Incoming(n)
			phi.AddIncoming(lookup(v), lookup(b).(*BasicBlock))
		}
		return phi
	case *CastInst:
		return NewCast(lookup(i.Val()), mapType(i.Type()))
	case *CallInst:
		args := make([]Value, len(i.Args()))
		for k, a := range i.Args() {
			args[k] = lookup(a)
		}
		return NewCall(lookup(i.Callee()), args...)
	case *VAArgInst:
		return NewVAArg(lookup(i.List()), mapType(i.Type()))
	}
	panic(fmt.Sprintf("core.CloneBlocks: unhandled instruction %T", inst))
}

// CloneFunction returns a complete copy of f (same signature) named name.
// The clone is detached from any module.
func CloneFunction(f *Function, name string) *Function {
	nf := NewFunction(name, f.Sig)
	nf.Linkage = f.Linkage
	vmap := map[Value]Value{}
	for i, a := range f.Args {
		nf.Args[i].SetName(a.Name())
		vmap[a] = nf.Args[i]
	}
	for _, b := range CloneBlocks(f, vmap) {
		nf.AddBlock(b)
	}
	return nf
}

// moduleCloner carries the shared remapping state of one CloneModule call:
// the type graph (named struct bodies are mutable, so the clone must not
// share them), module-level values, and already-cloned constants.
type moduleCloner struct {
	tmap map[Type]Type
	vmap map[Value]Value
	cmap map[Constant]Constant
	// inPlace keeps named structs and opaque types, retyping the fields of
	// the named structs in place (RetypeModule).
	inPlace bool
}

// typ maps a type into the clone: named structs and opaque types are
// copied, literal types above them rebuilt through their constructors, and
// types built from primitives only shared. A named struct's image is
// memoized before its fields are visited, so recursion terminates.
func (cl *moduleCloner) typ(t Type) Type {
	if t == nil {
		return nil
	}
	if nt, ok := cl.tmap[t]; ok {
		return nt
	}
	if !mentionsNominal(t) {
		return t
	}
	var nt Type
	switch tt := t.(type) {
	case *PointerType:
		nt = NewPointer(cl.typ(tt.Elem))
	case *ArrayType:
		nt = NewArray(cl.typ(tt.Elem), tt.Len)
	case *StructType:
		if tt.Name == "" {
			nt = NewStruct(cl.types(tt.Fields)...)
			break
		}
		ns := tt
		if !cl.inPlace {
			ns = &StructType{Name: tt.Name}
		}
		cl.tmap[t] = ns
		ns.Fields = cl.types(tt.Fields)
		return ns
	case *FunctionType:
		nt = FunctionTypeOf(cl.typ(tt.Ret), cl.types(tt.Params), tt.Variadic)
	case *OpaqueType:
		if nt = t; !cl.inPlace {
			nt = &OpaqueType{Name: tt.Name}
		}
	}
	cl.tmap[t], cl.tmap[nt] = nt, nt
	return nt
}

func (cl *moduleCloner) types(ts []Type) []Type {
	out := make([]Type, len(ts))
	for i, t := range ts {
		out[i] = cl.typ(t)
	}
	return out
}

// constant remaps a constant into the clone. Scalars over primitive types
// are immutable and shared; aggregates, constant expressions, and anything
// carrying a derived type are rebuilt (passes like fieldreorder mutate
// struct constants and their types in place).
func (cl *moduleCloner) constant(c Constant) Constant {
	if v, ok := cl.vmap[c]; ok {
		return v.(Constant)
	}
	if nc, ok := cl.cmap[c]; ok {
		return nc
	}
	var nc Constant
	switch cc := c.(type) {
	case *ConstantInt, *ConstantFloat, *ConstantBool:
		nc = c
	case *ConstantNull:
		nc = NewNull(cl.typ(cc.Type()).(*PointerType))
	case *ConstantUndef:
		nc = NewUndef(cl.typ(cc.Type()))
	case *ConstantZero:
		nc = NewZero(cl.typ(cc.Type()))
	case *ConstantArray:
		at := cc.Type().(*ArrayType)
		elems := make([]Constant, len(cc.Elems))
		for i, e := range cc.Elems {
			elems[i] = cl.constant(e)
		}
		nc = NewArrayConst(cl.typ(at.Elem), elems)
	case *ConstantStruct:
		fields := make([]Constant, len(cc.Fields))
		for i, f := range cc.Fields {
			fields[i] = cl.constant(f)
		}
		nc = NewStructConst(cl.typ(cc.Type()).(*StructType), fields)
	case *ConstantExpr:
		switch cc.Op {
		case OpCast:
			nc = NewConstCast(cl.constant(cc.Operand(0).(Constant)), cl.typ(cc.Type()))
		case OpGetElementPtr:
			ops := cc.Operands()
			base := cl.constant(ops[0].(Constant))
			idx := make([]Constant, len(ops)-1)
			for i, op := range ops[1:] {
				idx[i] = cl.constant(op.(Constant))
			}
			nc = NewConstGEP(base, idx...)
		default:
			nc = c
		}
	default:
		// Functions/globals of other modules, placeholders: share.
		nc = c
	}
	cl.cmap[c] = nc
	return nc
}

// CloneModule returns a complete, independent deep copy of src: functions,
// globals, initializers, named types, and the mutable parts of the type
// graph. The clone prints identically to src and shares no mutable state
// with it, so it can serve as a rollback snapshot while passes transform
// (and possibly corrupt) the original — or vice versa. The clone starts
// at src's stamps and version.
func CloneModule(src *Module) *Module {
	cl := &moduleCloner{
		tmap: map[Type]Type{},
		vmap: map[Value]Value{},
		cmap: map[Constant]Constant{},
	}
	dst := NewModule(src.Name)
	for _, name := range src.TypeNames() {
		t, _ := src.NamedType(name)
		dst.AddTypeName(name, cl.typ(t))
	}
	for _, f := range src.Funcs {
		nf := NewFunction(f.Name(), cl.typ(f.Sig).(*FunctionType))
		nf.Linkage = f.Linkage
		for i, a := range f.Args {
			nf.Args[i].SetName(a.Name())
		}
		dst.AddFunc(nf)
		cl.vmap[f] = nf
	}
	for _, g := range src.Globals {
		ng := NewGlobal(g.Name(), cl.typ(g.ValueType), nil)
		ng.IsConst = g.IsConst
		ng.Linkage = g.Linkage
		dst.AddGlobal(ng)
		cl.vmap[g] = ng
	}
	for i, g := range src.Globals {
		if g.Init != nil {
			dst.Globals[i].Init = cl.constant(g.Init)
		}
	}
	for i, f := range src.Funcs {
		if f.IsDeclaration() {
			continue
		}
		// One map serves every function: the values of one function never
		// appear in another's body.
		nf, vmap := dst.Funcs[i], cl.vmap
		for j, a := range f.Args {
			vmap[a] = nf.Args[j]
		}
		// Pre-map constant operands so aggregates, constant expressions,
		// and derived-typed scalars land in the clone's type graph.
		f.ForEachInst(func(inst Instruction) bool {
			for _, op := range inst.Operands() {
				if c, ok := op.(Constant); ok {
					if _, seen := vmap[c]; !seen {
						vmap[c] = cl.constant(c)
					}
				}
			}
			return true
		})
		for _, b := range cloneBlocksMapped(f, vmap, cl.typ) {
			nf.AddBlock(b)
		}
	}
	// The clone carries src's stamps, so its version equals src's until
	// one of them is edited.
	for i, f := range src.Funcs {
		dst.Funcs[i].cfgStamp, dst.Funcs[i].bodyStamp = f.cfgStamp, f.bodyStamp
	}
	dst.stamp = src.stamp
	return dst
}

// RetypeModule replaces, in place, every use in m of a type in remap by its
// image, and rebuilds the literal types above them through their
// constructors; m's own named structs keep their identity and have their
// fields retyped. The linker uses it to move a module onto another
// module's equal named structs before merging the two.
func RetypeModule(m *Module, remap map[Type]Type) {
	cl := &moduleCloner{tmap: maps.Clone(remap), inPlace: true}
	var retype func(v Value)
	retype = func(v Value) {
		v.base().typ = cl.typ(v.Type())
		switch c := v.(type) {
		case *ConstantArray:
			for _, e := range c.Elems {
				retype(e)
			}
		case *ConstantStruct:
			for _, f := range c.Fields {
				retype(f)
			}
		case *ConstantExpr:
			for _, op := range c.Operands() {
				retype(op)
			}
		case *AllocaInst:
			c.AllocType = cl.typ(c.AllocType)
		case *MallocInst:
			c.AllocType = cl.typ(c.AllocType)
		}
	}
	for name, t := range m.typeNames {
		m.typeNames[name] = cl.typ(t)
	}
	for _, g := range m.Globals {
		g.ValueType = cl.typ(g.ValueType)
		retype(g)
		if g.Init != nil {
			retype(g.Init)
		}
	}
	for _, f := range m.Funcs {
		f.Sig = cl.typ(f.Sig).(*FunctionType)
		retype(f)
		for _, a := range f.Args {
			retype(a)
		}
		f.ForEachInst(func(inst Instruction) bool {
			retype(inst)
			for _, op := range inst.Operands() {
				if c, ok := op.(Constant); ok {
					retype(c)
				}
			}
			return true
		})
		f.touch(false)
	}
	m.touch()
}
