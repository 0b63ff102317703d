// Package linker combines IR modules into one whole-program module, the
// first stage of the link-time optimizer in Figure 4 of the paper:
// declarations are resolved against definitions, named types of one name
// and equal bodies unify, and clashing internal symbols are renamed. The
// result preserves the full representation so the interprocedural
// optimizer (and later the runtime and idle-time optimizers) can operate
// on the entire program.
package linker

import (
	"fmt"
	"maps"

	"repro/internal/core"
)

// Link merges the given modules into a new module with the given name.
// The input modules are consumed (their contents move to the result).
func Link(name string, modules ...*core.Module) (*core.Module, error) {
	dest := core.NewModule(name)
	for _, src := range modules {
		if err := linkInto(dest, src); err != nil {
			return nil, fmt.Errorf("linker: linking module %q: %w", src.Name, err)
		}
	}
	fixupInitializers(dest)
	return dest, nil
}

func linkInto(dest, src *core.Module) error {
	// Named types: where the destination already has a type of the same
	// name and an equal body, every use of the source's type is retyped to
	// the destination's before any value moves, so each name keeps one
	// object. A conflicting definition is registered under a fresh name.
	remap := map[core.Type]core.Type{}
	for _, tn := range src.TypeNames() {
		st, _ := src.NamedType(tn)
		if dt, ok := dest.NamedType(tn); ok {
			if try := maps.Clone(remap); core.Isomorphic(dt, st, try) {
				remap = try
			}
		}
	}
	if len(remap) > 0 {
		core.RetypeModule(src, remap)
	}
	for _, tn := range src.TypeNames() {
		st, _ := src.NamedType(tn)
		dt, taken := dest.NamedType(tn)
		switch {
		case dt == st:
			// Merged, or a type both modules build alike.
		case !taken:
			dest.AddTypeName(tn, st)
		default:
			fresh := tn
			for i := 1; ; i++ {
				fresh = fmt.Sprintf("%s.%d", tn, i)
				if _, taken := dest.NamedType(fresh); !taken {
					break
				}
			}
			if s, ok := st.(*core.StructType); ok && s.Name == tn {
				s.Name = fresh
			}
			dest.AddTypeName(fresh, st)
		}
	}

	// Globals.
	for _, g := range append([]*core.GlobalVariable(nil), src.Globals...) {
		if err := linkGlobal(dest, src, g); err != nil {
			return err
		}
	}
	// Functions.
	for _, f := range append([]*core.Function(nil), src.Funcs...) {
		if err := linkFunction(dest, src, f); err != nil {
			return err
		}
	}
	return nil
}

func linkGlobal(dest, src *core.Module, g *core.GlobalVariable) error {
	name := g.Name()
	if g.Linkage == core.InternalLinkage {
		// Internal symbols never collide with anything: rename if needed.
		src.RemoveGlobal(g)
		g.SetName(dest.UniqueSymbol(name))
		dest.AddGlobal(g)
		return nil
	}
	if df := dest.Func(name); df != nil {
		return fmt.Errorf("symbol %%%s is a global in one module and a function in another", name)
	}
	dg := dest.Global(name)
	if dg == nil {
		src.RemoveGlobal(g)
		dest.AddGlobal(g)
		return nil
	}
	if dg.ValueType != g.ValueType {
		return fmt.Errorf("global %%%s declared with type %s and %s", name, dg.ValueType, g.ValueType)
	}
	switch {
	case g.IsDeclaration():
		// Existing symbol (def or decl) satisfies the reference.
		core.ReplaceAllUses(g, dg)
		src.RemoveGlobal(g)
	case dg.IsDeclaration():
		// Promote the destination declaration to a definition.
		dg.Init = g.Init
		dg.IsConst = g.IsConst
		core.ReplaceAllUses(g, dg)
		src.RemoveGlobal(g)
	default:
		return fmt.Errorf("duplicate definition of global %%%s", name)
	}
	return nil
}

func linkFunction(dest, src *core.Module, f *core.Function) error {
	name := f.Name()
	if f.Linkage == core.InternalLinkage {
		src.RemoveFunc(f)
		f.SetName(dest.UniqueSymbol(name))
		dest.AddFunc(f)
		return nil
	}
	if dg := dest.Global(name); dg != nil {
		return fmt.Errorf("symbol %%%s is a function in one module and a global in another", name)
	}
	df := dest.Func(name)
	if df == nil {
		src.RemoveFunc(f)
		dest.AddFunc(f)
		return nil
	}
	if df.Sig != f.Sig {
		return fmt.Errorf("function %%%s declared with signature %s and %s", name, df.Sig, f.Sig)
	}
	switch {
	case f.IsDeclaration():
		core.ReplaceAllUses(f, df)
		src.RemoveFunc(f)
	case df.IsDeclaration():
		// Replace the declaration with the definition.
		core.ReplaceAllUses(df, f)
		dest.RemoveFunc(df)
		src.RemoveFunc(f)
		dest.AddFunc(f)
	default:
		return fmt.Errorf("duplicate definition of function %%%s", name)
	}
	return nil
}

// fixupInitializers rewrites references inside aggregate initializers
// (which do not participate in use lists) so they point at the linked
// module's symbols rather than at replaced declarations.
func fixupInitializers(m *core.Module) {
	var fix func(c core.Constant) core.Constant
	fix = func(c core.Constant) core.Constant {
		switch cc := c.(type) {
		case *core.Function:
			if cc.Parent() != m {
				if repl := m.Func(cc.Name()); repl != nil {
					return repl
				}
			}
		case *core.GlobalVariable:
			if cc.Parent() != m {
				if repl := m.Global(cc.Name()); repl != nil {
					return repl
				}
			}
		case *core.ConstantArray:
			for i, e := range cc.Elems {
				cc.Elems[i] = fix(e)
			}
		case *core.ConstantStruct:
			for i, f := range cc.Fields {
				cc.Fields[i] = fix(f)
			}
		case *core.ConstantExpr:
			for i := 0; i < cc.NumOperands(); i++ {
				if oc, ok := cc.Operand(i).(core.Constant); ok {
					if nc := fix(oc); nc != oc.(core.Constant) {
						cc.SetOperand(i, nc)
					}
				}
			}
		}
		return c
	}
	for _, g := range m.Globals {
		if g.Init != nil {
			g.Init = fix(g.Init)
		}
	}
}
