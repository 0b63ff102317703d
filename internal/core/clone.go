package core

import "fmt"

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
// the type graph (struct bodies are mutable, so the clone must not share
// them), module-level values, and already-cloned constants.
type moduleCloner struct {
	tmap map[Type]Type
	vmap map[Value]Value
	cmap map[Constant]Constant
}

// typ deep-copies a derived type, sharing the primitive singletons.
// Recursive types terminate because the shell is memoized before its
// components are visited.
func (cl *moduleCloner) typ(t Type) Type {
	if t == nil {
		return nil
	}
	if nt, ok := cl.tmap[t]; ok {
		return nt
	}
	switch tt := t.(type) {
	case *PointerType:
		np := &PointerType{}
		cl.tmap[t] = np
		np.Elem = cl.typ(tt.Elem)
		return np
	case *ArrayType:
		na := &ArrayType{Len: tt.Len}
		cl.tmap[t] = na
		na.Elem = cl.typ(tt.Elem)
		return na
	case *StructType:
		ns := &StructType{Name: tt.Name}
		cl.tmap[t] = ns
		ns.Fields = make([]Type, len(tt.Fields))
		for i, f := range tt.Fields {
			ns.Fields[i] = cl.typ(f)
		}
		return ns
	case *FunctionType:
		nf := &FunctionType{Variadic: tt.Variadic}
		cl.tmap[t] = nf
		nf.Ret = cl.typ(tt.Ret)
		nf.Params = make([]Type, len(tt.Params))
		for i, p := range tt.Params {
			nf.Params[i] = cl.typ(p)
		}
		return nf
	case *OpaqueType:
		nt := &OpaqueType{Name: tt.Name}
		cl.tmap[t] = nt
		return nt
	default:
		cl.tmap[t] = t // primitive singleton
		return t
	}
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
		nf := dst.Funcs[i]
		vmap := make(map[Value]Value, len(cl.vmap)+len(f.Args))
		for k, v := range cl.vmap {
			vmap[k] = v
		}
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
