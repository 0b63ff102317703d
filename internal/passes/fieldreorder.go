package passes

import (
	"sort"

	"repro/internal/core"
	"repro/internal/dsa"
)

// FieldReorder is the "simple structure field reordering" of §3.3, and the
// transformation §4.1.1 uses to motivate reliable type information:
// "Reliable type information about programs can enable the optimizer to
// perform aggressive transformations that would be difficult otherwise,
// such as reordering two fields of a structure". For every named struct
// type whose objects DSA proves are accessed only at their declared type
// (no collapsed or unknown aliases), fields are permuted into descending
// alignment order, minimizing padding; every getelementptr (instruction
// and constant expression), and every struct constant, is rewritten to the
// new indices. Programs that pun struct layouts are left untouched — the
// analysis, not hope, is what makes this safe.
type FieldReorder struct {
	// Reordered counts struct types whose layout changed; BytesSaved sums
	// the padding eliminated per object.
	Reordered  int
	BytesSaved int
}

// NewFieldReorder returns the pass.
func NewFieldReorder() *FieldReorder { return &FieldReorder{} }

// Name returns the pass name.
func (*FieldReorder) Name() string { return "fieldreorder" }

// RunOnModule reorders eligible struct types; the count is types changed.
func (fr *FieldReorder) RunOnModule(m *core.Module) int {
	fr.Reordered, fr.BytesSaved = 0, 0
	res := dsa.Analyze(m)

	for _, name := range m.TypeNames() {
		t, _ := m.NamedType(name)
		st, ok := t.(*core.StructType)
		if !ok || st.Name == "" || len(st.Fields) < 2 {
			continue // a literal struct is shared by every module
		}
		perm := paddingMinimizingOrder(st)
		if isIdentity(perm) {
			continue
		}
		if !res.TypeReliable(st) {
			continue // something aliases this layout at another type
		}
		saved := core.SizeOf(st)
		fr.applyPermutation(m, st, perm)
		saved -= core.SizeOf(st)
		if saved > 0 {
			fr.BytesSaved += saved
		}
		fr.Reordered++
	}
	return fr.Reordered
}

// paddingMinimizingOrder returns perm where perm[oldIndex] = newIndex,
// sorting fields by descending alignment (stable, so equal-alignment
// fields keep their relative order).
func paddingMinimizingOrder(st *core.StructType) []int {
	idx := make([]int, len(st.Fields))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return core.AlignOf(st.Fields[idx[a]]) > core.AlignOf(st.Fields[idx[b]])
	})
	perm := make([]int, len(st.Fields))
	for newPos, oldPos := range idx {
		perm[oldPos] = newPos
	}
	return perm
}

func isIdentity(perm []int) bool {
	for i, p := range perm {
		if i != p {
			return false
		}
	}
	return true
}

// applyPermutation rewrites the type, all GEPs, and all struct constants.
func (fr *FieldReorder) applyPermutation(m *core.Module, st *core.StructType, perm []int) {
	// 1. The type itself.
	m.PermuteFields(st, perm)

	// 2. Every getelementptr whose path steps through st.
	for _, f := range m.Funcs {
		f.ForEachInst(func(inst core.Instruction) bool {
			if gep, ok := inst.(*core.GetElementPtrInst); ok {
				fr.rewriteGEP(gep.Base().Type(), gep.Indices(), st, perm,
					func(i int, c *core.ConstantInt) { gep.SetOperand(i+1, c) })
			}
			for _, op := range inst.Operands() {
				if ce, ok := op.(*core.ConstantExpr); ok && ce.Op == core.OpGetElementPtr {
					fr.rewriteGEP(ce.Operand(0).Type(), ce.Operands()[1:], st, perm,
						func(i int, c *core.ConstantInt) { ce.SetOperand(i+1, c) })
				}
			}
			return true
		})
	}
	for _, g := range m.Globals {
		if ce, ok := g.Init.(*core.ConstantExpr); ok && ce.Op == core.OpGetElementPtr {
			fr.rewriteGEP(ce.Operand(0).Type(), ce.Operands()[1:], st, perm,
				func(i int, c *core.ConstantInt) { ce.SetOperand(i+1, c) })
		}
	}

	// 3. Struct constants of this type, anywhere in initializers.
	var fix func(c core.Constant) core.Constant
	fix = func(c core.Constant) core.Constant {
		switch cc := c.(type) {
		case *core.ConstantStruct:
			for i, f := range cc.Fields {
				cc.Fields[i] = fix(f)
			}
			if cc.Type() == core.Type(st) {
				nf := make([]core.Constant, len(cc.Fields))
				for oldPos, newPos := range perm {
					nf[newPos] = cc.Fields[oldPos]
				}
				cc.Fields = nf
			}
		case *core.ConstantArray:
			for i, e := range cc.Elems {
				cc.Elems[i] = fix(e)
			}
		}
		return c
	}
	for _, g := range m.Globals {
		if g.Init != nil {
			g.SetInit(fix(g.Init))
		}
	}
}

// rewriteGEP walks one GEP's index path (before-permutation types have
// already been mutated in the struct, so walk using the *new* fields but
// detect steps into st by identity) and remaps indices into st.
//
// Implementation note: the struct's Fields were already permuted, so to
// interpret old indices we invert through perm — an old index i now lives
// at perm[i]; the continuation type is the same field type either way.
func (fr *FieldReorder) rewriteGEP(baseType core.Type, indices []core.Value,
	st *core.StructType, perm []int, set func(int, *core.ConstantInt)) {
	pt, ok := baseType.(*core.PointerType)
	if !ok {
		return
	}
	cur := core.Type(pt.Elem)
	for k, idx := range indices {
		if k == 0 {
			continue
		}
		switch ct := cur.(type) {
		case *core.StructType:
			ci, ok := idx.(*core.ConstantInt)
			if !ok {
				return
			}
			old := int(ci.SExt())
			if ct == st {
				if old < 0 || old >= len(perm) {
					return
				}
				newIdx := perm[old]
				if newIdx != old {
					set(k, core.NewInt(ci.Type(), int64(newIdx)))
				}
				cur = ct.Fields[newIdx]
			} else {
				if old < 0 || old >= len(ct.Fields) {
					return
				}
				cur = ct.Fields[old]
			}
		case *core.ArrayType:
			cur = ct.Elem
		default:
			return
		}
	}
}
