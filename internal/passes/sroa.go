package passes

import (
	"repro/internal/core"
)

// SROA is the scalar expansion pass (§3.2, "scalar expansion precedes
// [stack promotion] and expands local structures to scalars wherever
// possible, so that their fields can be mapped to SSA registers as well").
// An alloca of struct type whose address is used only by constant-index
// getelementptrs selecting a single field is replaced by one alloca per
// field; mem2reg can then promote each. Single-level arrays of first-class
// elements with constant indices are expanded the same way.
type SROA struct {
	// MaxArrayLen bounds array expansion (avoids exploding huge arrays).
	MaxArrayLen int
}

// NewSROA returns the pass with the default array bound.
func NewSROA() *SROA { return &SROA{MaxArrayLen: 16} }

// Name returns the pass name.
func (*SROA) Name() string { return "sroa" }

// RunOnFunction expands aggregates until no more can be expanded (an
// expansion of a struct of structs exposes new candidates).
func (s *SROA) RunOnFunction(f *core.Function) int {
	total := 0
	for {
		n := s.onePass(f)
		total += n
		if n == 0 {
			return total
		}
	}
}

func (s *SROA) onePass(f *core.Function) int {
	if len(f.Blocks) == 0 {
		return 0
	}
	changed := 0
	for _, inst := range append([]core.Instruction(nil), f.Entry().Instrs...) {
		a, ok := inst.(*core.AllocaInst)
		if !ok || a.Parent() == nil || a.NumElems() != nil {
			continue
		}
		switch t := a.AllocType.(type) {
		case *core.StructType:
			if s.expandStruct(f, a, t) {
				changed++
			}
		case *core.ArrayType:
			if t.Len <= s.MaxArrayLen && core.IsFirstClass(t.Elem) && s.expandArray(f, a, t) {
				changed++
			}
		}
	}
	return changed
}

// gepSelectsElement checks that g is "getelementptr a, 0, <const k>"
// possibly with further trailing indices, returning k and the remaining
// index list.
func gepSelectsElement(g *core.GetElementPtrInst) (int, []core.Value, bool) {
	idx := g.Indices()
	if len(idx) < 2 {
		return 0, nil, false
	}
	first, ok := idx[0].(*core.ConstantInt)
	if !ok || !first.IsZero() {
		return 0, nil, false
	}
	k, ok := idx[1].(*core.ConstantInt)
	if !ok {
		return 0, nil, false
	}
	return int(k.SExt()), idx[2:], true
}

// expandable reports whether every use of a is a GEP of the right shape
// whose result is itself used only by loads and stores (as the pointer).
// A GEP result that escapes — passed to a call, stored, compared, cast —
// could be used for pointer arithmetic across elements, which per-element
// allocas cannot honor.
func expandable(a *core.AllocaInst, nElems int) bool {
	for _, u := range a.Uses() {
		g, ok := u.User.(*core.GetElementPtrInst)
		if !ok {
			return false
		}
		k, _, ok := gepSelectsElement(g)
		if !ok || k < 0 || k >= nElems {
			return false
		}
		for _, gu := range g.Uses() {
			switch inst := gu.User.(type) {
			case *core.LoadInst:
				// ok
			case *core.StoreInst:
				if inst.Ptr() != core.Value(g) {
					return false // the address itself is stored away
				}
			default:
				return false
			}
		}
	}
	return true
}

// expandStruct splits a struct alloca into per-field allocas.
func (s *SROA) expandStruct(f *core.Function, a *core.AllocaInst, st *core.StructType) bool {
	if len(st.Fields) == 0 || !expandable(a, len(st.Fields)) {
		return false
	}
	elems := make([]*core.AllocaInst, len(st.Fields))
	pos := f.Entry().IndexOf(a)
	for i, ft := range st.Fields {
		elems[i] = core.NewAlloca(ft, nil)
		elems[i].SetName(a.Name() + ".f" + itoa(i))
		f.Entry().InsertAt(pos, elems[i])
		pos++
	}
	s.rewriteUses(a, func(k int) core.Value { return elems[k] })
	f.Entry().Erase(a)
	return true
}

// expandArray splits a small array alloca into per-element allocas.
func (s *SROA) expandArray(f *core.Function, a *core.AllocaInst, at *core.ArrayType) bool {
	if at.Len == 0 || !expandable(a, at.Len) {
		return false
	}
	elems := make([]*core.AllocaInst, at.Len)
	pos := f.Entry().IndexOf(a)
	for i := range elems {
		elems[i] = core.NewAlloca(at.Elem, nil)
		elems[i].SetName(a.Name() + ".e" + itoa(i))
		f.Entry().InsertAt(pos, elems[i])
		pos++
	}
	s.rewriteUses(a, func(k int) core.Value { return elems[k] })
	f.Entry().Erase(a)
	return true
}

// rewriteUses replaces each GEP on a with either the element pointer
// itself (no trailing indices) or a new GEP on the element pointer.
func (s *SROA) rewriteUses(a *core.AllocaInst, elem func(int) core.Value) {
	for _, u := range append([]core.Use(nil), a.Uses()...) {
		g := u.User.(*core.GetElementPtrInst)
		k, rest, _ := gepSelectsElement(g)
		base := elem(k)
		if len(rest) == 0 {
			core.ReplaceAllUses(g, base)
			g.Parent().Erase(g)
			continue
		}
		// Re-root the remaining path: getelementptr base, 0, rest...
		idx := append([]core.Value{core.NewInt(core.LongType, 0)}, rest...)
		ng := core.NewGEP(base, idx...)
		ng.SetName(g.Name())
		g.Parent().InsertBefore(ng, g)
		core.ReplaceAllUses(g, ng)
		g.Parent().Erase(g)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
