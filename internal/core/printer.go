package core

import (
	"fmt"
	"sort"
	"strings"
)

// String renders the module in the textual assembly syntax; the result can
// be parsed back by internal/asm with no information loss (the IR's
// equivalent text/binary/in-memory property, §2.5).
func (m *Module) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; ModuleID = '%s'\n", m.Name)
	if len(m.typeOrder) > 0 {
		b.WriteString("\n")
		for _, name := range m.typeOrder {
			t := m.typeNames[name]
			if st, ok := t.(*StructType); ok && st.Name == name {
				fmt.Fprintf(&b, "%%%s = type %s\n", name, st.LiteralString())
			} else if _, ok := t.(*OpaqueType); ok {
				fmt.Fprintf(&b, "%%%s = type opaque\n", name)
			} else {
				fmt.Fprintf(&b, "%%%s = type %s\n", name, t.String())
			}
		}
	}
	if len(m.Globals) > 0 {
		b.WriteString("\n")
		for _, g := range m.Globals {
			b.WriteString(globalString(g))
			b.WriteString("\n")
		}
	}
	for _, f := range m.Funcs {
		b.WriteString("\n")
		b.WriteString(f.String())
	}
	return b.String()
}

func globalString(g *GlobalVariable) string {
	kw := "global"
	if g.IsConst {
		kw = "constant"
	}
	link := ""
	if g.Linkage == InternalLinkage {
		link = "internal "
	}
	if g.Init == nil {
		return fmt.Sprintf("%%%s = external %s %s", g.Name(), kw, g.ValueType)
	}
	return fmt.Sprintf("%%%s = %s%s %s %s", g.Name(), link, kw, g.ValueType, valueRef(g.Init))
}

// String renders a single function (definition or declaration).
func (f *Function) String() string {
	var b strings.Builder
	p := newFuncPrinter(f)
	proto := p.prototype()
	if f.IsDeclaration() {
		return "declare " + proto + "\n"
	}
	link := ""
	if f.Linkage == InternalLinkage {
		link = "internal "
	}
	b.WriteString(link + proto + " {\n")
	for i, blk := range f.Blocks {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "%s:\n", p.blockLabel(blk))
		for _, inst := range blk.Instrs {
			b.WriteString("\t")
			b.WriteString(p.instString(inst))
			b.WriteString("\n")
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// funcPrinter assigns printable names (explicit or numeric slots) to every
// local value in a function.
type funcPrinter struct {
	f     *Function
	names map[Value]string
}

func newFuncPrinter(f *Function) *funcPrinter {
	p := &funcPrinter{f: f, names: map[Value]string{}}
	taken := map[string]bool{}
	slot := 0
	assign := func(v Value) {
		name := v.Name()
		if name != "" && !taken[name] {
			taken[name] = true
			p.names[v] = name
			return
		}
		if name != "" {
			// Uniquify a clashing explicit name.
			for i := 1; ; i++ {
				cand := fmt.Sprintf("%s.%d", name, i)
				if !taken[cand] {
					taken[cand] = true
					p.names[v] = cand
					return
				}
			}
		}
		for {
			cand := fmt.Sprintf("%d", slot)
			slot++
			if !taken[cand] {
				taken[cand] = true
				p.names[v] = cand
				return
			}
		}
	}
	for _, a := range f.Args {
		assign(a)
	}
	for _, blk := range f.Blocks {
		assign(blk)
		for _, inst := range blk.Instrs {
			if inst.Type() != VoidType {
				assign(inst)
			}
		}
	}
	return p
}

func (p *funcPrinter) prototype() string {
	var b strings.Builder
	b.WriteString(p.f.Sig.Ret.String())
	b.WriteString(" %")
	b.WriteString(p.f.Name())
	b.WriteString("(")
	for i, a := range p.f.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Type().String())
		if !p.f.IsDeclaration() {
			b.WriteString(" %")
			b.WriteString(p.names[a])
		}
	}
	if p.f.Sig.Variadic {
		if len(p.f.Args) > 0 {
			b.WriteString(", ")
		}
		b.WriteString("...")
	}
	b.WriteString(")")
	return b.String()
}

func (p *funcPrinter) blockLabel(b *BasicBlock) string { return p.names[b] }

// ref spells a value as an operand (without its type).
func (p *funcPrinter) ref(v Value) string {
	if v == nil {
		return "<null operand!>"
	}
	if name, ok := p.names[v]; ok {
		return "%" + name
	}
	switch v.(type) {
	case *GlobalVariable, *Function:
		return "%" + v.Name()
	}
	return valueRef(v)
}

// opnd spells "type ref".
func (p *funcPrinter) opnd(v Value) string {
	if v == nil {
		return "<null operand!>"
	}
	return v.Type().String() + " " + p.ref(v)
}

// calleeTypeString spells the callee's type for a call/invoke: just the
// return type for simple direct calls, or the full function-pointer type
// when the signature is variadic or otherwise not inferable.
func calleeTypeString(callee Value) string {
	ft := CalleeFunctionType(callee)
	if ft == nil {
		return callee.Type().String()
	}
	if ft.Variadic {
		return ft.String() + "*"
	}
	return ft.Ret.String()
}

func (p *funcPrinter) instString(inst Instruction) string {
	var b strings.Builder
	if inst.Type() != VoidType {
		fmt.Fprintf(&b, "%%%s = ", p.names[inst])
	}
	switch i := inst.(type) {
	case *RetInst:
		if i.Value() == nil {
			b.WriteString("ret void")
		} else {
			fmt.Fprintf(&b, "ret %s", p.opnd(i.Value()))
		}
	case *BranchInst:
		if i.IsConditional() {
			fmt.Fprintf(&b, "br %s, label %s, label %s",
				p.opnd(i.Cond()), p.ref(i.TrueDest()), p.ref(i.FalseDest()))
		} else {
			fmt.Fprintf(&b, "br label %s", p.ref(i.TrueDest()))
		}
	case *SwitchInst:
		fmt.Fprintf(&b, "switch %s, label %s [", p.opnd(i.Value()), p.ref(i.Default()))
		for n := 0; n < i.NumCases(); n++ {
			val, dest := i.Case(n)
			fmt.Fprintf(&b, "\n\t\t%s %s, label %s", val.Type(), val, p.ref(dest))
		}
		b.WriteString(" ]")
	case *InvokeInst:
		fmt.Fprintf(&b, "invoke %s %s(", calleeTypeString(i.Callee()), p.ref(i.Callee()))
		for n, a := range i.Args() {
			if n > 0 {
				b.WriteString(", ")
			}
			b.WriteString(p.opnd(a))
		}
		fmt.Fprintf(&b, ") to label %s unwind to label %s", p.ref(i.NormalDest()), p.ref(i.UnwindDest()))
	case *UnwindInst:
		b.WriteString("unwind")
	case *BinaryInst:
		fmt.Fprintf(&b, "%s %s, %s", i.Opcode(), p.opnd(i.LHS()), p.ref(i.RHS()))
	case *MallocInst:
		fmt.Fprintf(&b, "malloc %s", i.AllocType)
		if i.NumElems() != nil {
			fmt.Fprintf(&b, ", %s", p.opnd(i.NumElems()))
		}
	case *AllocaInst:
		fmt.Fprintf(&b, "alloca %s", i.AllocType)
		if i.NumElems() != nil {
			fmt.Fprintf(&b, ", %s", p.opnd(i.NumElems()))
		}
	case *FreeInst:
		fmt.Fprintf(&b, "free %s", p.opnd(i.Ptr()))
	case *LoadInst:
		fmt.Fprintf(&b, "load %s", p.opnd(i.Ptr()))
	case *StoreInst:
		fmt.Fprintf(&b, "store %s, %s", p.opnd(i.Val()), p.opnd(i.Ptr()))
	case *GetElementPtrInst:
		fmt.Fprintf(&b, "getelementptr %s", p.opnd(i.Base()))
		for _, idx := range i.Indices() {
			fmt.Fprintf(&b, ", %s", p.opnd(idx))
		}
	case *PhiInst:
		fmt.Fprintf(&b, "phi %s ", i.Type())
		for n := 0; n < i.NumIncoming(); n++ {
			v, blk := i.Incoming(n)
			if n > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "[ %s, %s ]", p.ref(v), p.ref(blk))
		}
	case *CastInst:
		fmt.Fprintf(&b, "cast %s to %s", p.opnd(i.Val()), i.Type())
	case *CallInst:
		fmt.Fprintf(&b, "call %s %s(", calleeTypeString(i.Callee()), p.ref(i.Callee()))
		for n, a := range i.Args() {
			if n > 0 {
				b.WriteString(", ")
			}
			b.WriteString(p.opnd(a))
		}
		b.WriteString(")")
	case *VAArgInst:
		fmt.Fprintf(&b, "vaarg %s, %s", p.opnd(i.List()), i.Type())
	default:
		fmt.Fprintf(&b, "<unknown instruction %s>", inst.Opcode())
	}
	return b.String()
}

// InstDebugString renders a single instruction for diagnostics, without the
// full-function slot numbering (unnamed operands print as %?).
func InstDebugString(inst Instruction) string {
	if inst.Parent() != nil && inst.Parent().Parent() != nil {
		p := newFuncPrinter(inst.Parent().Parent())
		return p.instString(inst)
	}
	var parts []string
	for _, op := range inst.Operands() {
		if op == nil {
			parts = append(parts, "<nil>")
		} else {
			parts = append(parts, op.Type().String()+" "+valueRef(op))
		}
	}
	return inst.Opcode().String() + " " + strings.Join(parts, ", ")
}

// FuncPrinter renders the instructions of one function as InstDebugString
// does, naming the function's values once on first use instead of once per
// call, so printing every instruction of f costs O(|f|) rather than
// O(|f|²). Only instructions of f may be printed, and f must not change
// while the printer is in use. Not safe for concurrent use.
type FuncPrinter struct {
	f *Function
	p *funcPrinter
}

// NewFuncPrinter returns a printer for f's instructions.
func NewFuncPrinter(f *Function) *FuncPrinter { return &FuncPrinter{f: f} }

// InstString equals InstDebugString(inst) for an instruction of f.
func (fp *FuncPrinter) InstString(inst Instruction) string {
	if fp.p == nil {
		fp.p = newFuncPrinter(fp.f)
	}
	return fp.p.instString(inst)
}

// SortedFuncNames returns the module's function names sorted, a convenience
// for deterministic reporting.
func (m *Module) SortedFuncNames() []string {
	names := make([]string, 0, len(m.Funcs))
	for _, f := range m.Funcs {
		names = append(names, f.Name())
	}
	sort.Strings(names)
	return names
}
