package core

import (
	"fmt"
	"slices"
	"strings"
)

// VerifyError aggregates all problems found in a module or function.
type VerifyError struct{ Problems []string }

// Error joins the problems into one message.
func (e *VerifyError) Error() string {
	return fmt.Sprintf("verifier: %d problem(s):\n  %s", len(e.Problems), strings.Join(e.Problems, "\n  "))
}

// Verify checks the module against the IR's structural, type, and SSA rules
// and returns a *VerifyError describing every violation, or nil. As the
// paper notes (§2.2), strict type rules make many optimizer bugs manifest
// as verifier failures rather than silent miscompiles.
func Verify(m *Module) error {
	v := &verifier{}
	for _, g := range m.Globals {
		v.verifyGlobal(g)
	}
	for _, f := range m.Funcs {
		v.verifyFunction(f)
	}
	if len(v.problems) > 0 {
		return &VerifyError{Problems: v.problems}
	}
	return nil
}

// VerifyFunction checks a single function.
func VerifyFunction(f *Function) error {
	v := &verifier{}
	v.verifyFunction(f)
	if len(v.problems) > 0 {
		return &VerifyError{Problems: v.problems}
	}
	return nil
}

type verifier struct {
	problems []string
	fn       *Function
}

func (v *verifier) errf(format string, args ...interface{}) {
	where := ""
	if v.fn != nil {
		where = "in %" + v.fn.Name() + ": "
	}
	v.problems = append(v.problems, where+fmt.Sprintf(format, args...))
}

func (v *verifier) verifyGlobal(g *GlobalVariable) {
	if g.Init != nil && g.Init.Type() != g.ValueType {
		v.errf("global %%%s initializer type %s does not match value type %s",
			g.Name(), g.Init.Type(), g.ValueType)
	}
}

func (v *verifier) verifyFunction(f *Function) {
	v.fn = f
	defer func() { v.fn = nil }()

	if len(f.Args) != len(f.Sig.Params) {
		v.errf("argument count %d does not match signature %s", len(f.Args), f.Sig)
		return
	}
	for i, a := range f.Args {
		if a.Type() != f.Sig.Params[i] {
			v.errf("argument %d has type %s, signature says %s", i, a.Type(), f.Sig.Params[i])
		}
	}
	if f.IsDeclaration() {
		return
	}

	idsOK := v.verifyIDs(f)
	if len(f.Entry().Preds()) > 0 {
		v.errf("entry block %%%s has predecessors", f.Entry().Name())
	}

	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			v.errf("block %%%s is empty", b.Name())
			continue
		}
		firstNonPhi := b.FirstNonPhi()
		for k, inst := range b.Instrs {
			isLast := k == len(b.Instrs)-1
			if inst.IsTerminator() != isLast {
				if isLast {
					v.errf("block %%%s does not end with a terminator", b.Name())
				} else {
					v.errf("terminator %s in the middle of block %%%s", inst.Opcode(), b.Name())
				}
			}
			if _, isPhi := inst.(*PhiInst); isPhi && k >= firstNonPhi {
				v.errf("phi after non-phi instruction in block %%%s", b.Name())
			}
			v.verifyInst(inst)
		}
	}

	v.verifyPhisMatchPreds(f)
	if idsOK {
		v.verifySSADominance(f)
	}
}

// verifyIDs checks the numbering contract of Function: every block and
// instruction has an ID in range and unique within f. A violation means
// some path inserted IR without going through the numbering mutators; the
// dominance check, which indexes by ID, is skipped then.
func (v *verifier) verifyIDs(f *Function) bool {
	ok := true
	blocks := make([]bool, f.NumBlockIDs())
	insts := make([]bool, f.NumInstIDs())
	for _, b := range f.Blocks {
		if id := b.ID(); id <= 0 || id >= len(blocks) {
			v.errf("block %%%s has ID %d outside [1, %d)", b.Name(), id, len(blocks))
			ok = false
		} else if blocks[id] {
			v.errf("block %%%s reuses ID %d", b.Name(), id)
			ok = false
		} else {
			blocks[id] = true
		}
		for _, inst := range b.Instrs {
			if id := inst.ID(); id <= 0 || id >= len(insts) {
				v.errf("%s in block %%%s has ID %d outside [1, %d)", inst.Opcode(), b.Name(), id, len(insts))
				ok = false
			} else if insts[id] {
				v.errf("%s in block %%%s reuses ID %d", inst.Opcode(), b.Name(), id)
				ok = false
			} else {
				insts[id] = true
			}
		}
	}
	return ok
}

func (v *verifier) verifyInst(inst Instruction) {
	// All operands present, blocks belong to the function, instruction
	// operands belong to some block of the same function.
	for i := 0; i < inst.NumOperands(); i++ {
		op := inst.Operand(i)
		if op == nil {
			v.errf("%s has nil operand %d", inst.Opcode(), i)
			return
		}
		if blk, ok := op.(*BasicBlock); ok && blk.Parent() != v.fn {
			v.errf("%s references block %%%s from another function", inst.Opcode(), blk.Name())
		}
		if oi, ok := op.(Instruction); ok {
			if oi.Parent() == nil || oi.Parent().Parent() != inst.Parent().Parent() {
				v.errf("%s uses instruction not inserted in this function", inst.Opcode())
			}
		}
	}

	switch i := inst.(type) {
	case *RetInst:
		ret := i.Parent().Parent().Sig.Ret
		if i.Value() == nil {
			if ret != VoidType {
				v.errf("ret void in function returning %s", ret)
			}
		} else if i.Value().Type() != ret {
			v.errf("ret %s in function returning %s", i.Value().Type(), ret)
		}
	case *BranchInst:
		if i.IsConditional() && i.Cond().Type() != BoolType {
			v.errf("br condition has type %s, want bool", i.Cond().Type())
		}
	case *SwitchInst:
		if !IsInteger(i.Value().Type()) {
			v.errf("switch on non-integer type %s", i.Value().Type())
		}
		for n := 0; n < i.NumCases(); n++ {
			val, _ := i.Case(n)
			if val.Type() != i.Value().Type() {
				v.errf("switch case %d type %s does not match value type %s", n, val.Type(), i.Value().Type())
			}
		}
	case *BinaryInst:
		v.verifyBinary(i)
	case *MallocInst:
		v.verifyAllocSize(i.Opcode(), i.NumElems())
		if !IsSized(i.AllocType) {
			v.errf("malloc of unsized type %s", i.AllocType)
		}
	case *AllocaInst:
		v.verifyAllocSize(i.Opcode(), i.NumElems())
		if !IsSized(i.AllocType) {
			v.errf("alloca of unsized type %s", i.AllocType)
		}
	case *FreeInst:
		pt, ok := i.Ptr().Type().(*PointerType)
		if !ok {
			v.errf("free of non-pointer type %s", i.Ptr().Type())
		} else if !IsSized(pt.Elem) {
			v.errf("free through %s: pointee %s has no allocation size", i.Ptr().Type(), pt.Elem)
		}
	case *LoadInst:
		pt, ok := i.Ptr().Type().(*PointerType)
		if !ok {
			v.errf("load from non-pointer type %s", i.Ptr().Type())
		} else if pt.Elem.Kind() == VoidKind {
			v.errf("load through void*-typed address: void values cannot be loaded")
		} else if pt.Elem != i.Type() {
			v.errf("load result type %s does not match pointee %s", i.Type(), pt.Elem)
		} else if !IsFirstClass(pt.Elem) {
			v.errf("load of non-first-class type %s", pt.Elem)
		}
	case *StoreInst:
		pt, ok := i.Ptr().Type().(*PointerType)
		if !ok {
			v.errf("store to non-pointer type %s", i.Ptr().Type())
		} else if pt.Elem.Kind() == VoidKind {
			v.errf("store through void*-typed address: void values cannot be stored")
		} else if pt.Elem != i.Val().Type() {
			v.errf("store of %s through %s", i.Val().Type(), i.Ptr().Type())
		} else if !IsFirstClass(i.Val().Type()) {
			v.errf("store of non-first-class type %s", i.Val().Type())
		}
	case *GetElementPtrInst:
		rt, err := GEPResultType(i.Base().Type(), i.Indices())
		if err != nil {
			v.errf("%v", err)
		} else if rt != i.Type() {
			v.errf("getelementptr result type %s, computed %s", i.Type(), rt)
		}
	case *PhiInst:
		if !IsFirstClass(i.Type()) {
			v.errf("phi of non-first-class type %s", i.Type())
		}
		for n := 0; n < i.NumIncoming(); n++ {
			val, _ := i.Incoming(n)
			if val.Type() != i.Type() {
				v.errf("phi incoming value %d has type %s, want %s", n, val.Type(), i.Type())
			}
		}
	case *CastInst:
		src, dst := i.Val().Type(), i.Type()
		if !castAllowed(src, dst) {
			v.errf("invalid cast from %s to %s", src, dst)
		}
	case *CallInst:
		v.verifyCallArgs(i.Callee(), i.Args(), i.Type())
	case *InvokeInst:
		v.verifyCallArgs(i.Callee(), i.Args(), i.Type())
	case *VAArgInst:
		if i.List().Type().Kind() != PointerKind {
			v.errf("vaarg list has non-pointer type %s", i.List().Type())
		}
	}
}

func (v *verifier) verifyAllocSize(op Opcode, n Value) {
	if n != nil && !IsInteger(n.Type()) {
		v.errf("%s element count has non-integer type %s", op, n.Type())
	}
}

func (v *verifier) verifyBinary(i *BinaryInst) {
	lt, rt := i.LHS().Type(), i.RHS().Type()
	switch i.Opcode() {
	case OpShl, OpShr:
		if !IsInteger(lt) {
			v.errf("%s of non-integer type %s", i.Opcode(), lt)
		}
		if rt.Kind() != UByteKind {
			v.errf("%s shift amount must be ubyte, got %s", i.Opcode(), rt)
		}
		return
	case OpAnd, OpOr, OpXor:
		if !IsInteger(lt) && lt.Kind() != BoolKind {
			v.errf("%s of non-integral type %s", i.Opcode(), lt)
		}
	case OpAdd, OpSub, OpMul, OpDiv, OpRem:
		if !IsArithmetic(lt) {
			v.errf("%s of non-arithmetic type %s", i.Opcode(), lt)
		}
	case OpSetEQ, OpSetNE, OpSetLT, OpSetGT, OpSetLE, OpSetGE:
		if !IsFirstClass(lt) {
			v.errf("%s of non-first-class type %s", i.Opcode(), lt)
		}
		if i.Type() != BoolType {
			v.errf("%s result must be bool", i.Opcode())
		}
	}
	if lt != rt {
		v.errf("%s operand types differ: %s vs %s", i.Opcode(), lt, rt)
	}
	if IsBinaryOp(i.Opcode()) && i.Type() != lt {
		v.errf("%s result type %s does not match operands %s", i.Opcode(), i.Type(), lt)
	}
}

func (v *verifier) verifyCallArgs(callee Value, args []Value, resultType Type) {
	ft := CalleeFunctionType(callee)
	if ft == nil {
		v.errf("call of non-function-pointer type %s", callee.Type())
		return
	}
	if resultType != ft.Ret {
		v.errf("call result type %s does not match callee return %s", resultType, ft.Ret)
	}
	if ft.Variadic {
		if len(args) < len(ft.Params) {
			v.errf("call has %d args, variadic callee needs at least %d", len(args), len(ft.Params))
			return
		}
	} else if len(args) != len(ft.Params) {
		v.errf("call has %d args, callee takes %d", len(args), len(ft.Params))
		return
	}
	for i := range ft.Params {
		if args[i].Type() != ft.Params[i] {
			v.errf("call argument %d has type %s, callee wants %s", i, args[i].Type(), ft.Params[i])
		}
	}
}

// castAllowed implements the cast rules: any first-class type can be cast
// to any other first-class type (bit conversions, truncations, extensions,
// and pointer reinterpretation are all spelled "cast").
func castAllowed(src, dst Type) bool {
	return IsFirstClass(src) && IsFirstClass(dst)
}

// verifyPhisMatchPreds checks each phi has exactly one entry per CFG
// predecessor. Problems are reported per phi: missing predecessors in
// predecessor order, then stray and duplicate entries in incoming order.
func (v *verifier) verifyPhisMatchPreds(f *Function) {
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			continue
		}
		if _, ok := b.Instrs[0].(*PhiInst); !ok {
			continue
		}
		preds := b.Preds()
		for _, phi := range b.Phis() {
			for _, p := range preds {
				if phi.incomingCount(p) == 0 {
					v.errf("phi %%%s in block %%%s missing entry for predecessor %%%s", phi.Name(), b.Name(), p.Name())
				}
			}
			for n := 0; n < phi.NumIncoming(); n++ {
				_, s := phi.Incoming(n)
				if phi.incomingIndex(s) != n {
					continue // reported at its first entry
				}
				if !slices.Contains(preds, s) {
					v.errf("phi %%%s in block %%%s has entry for non-predecessor %%%s", phi.Name(), b.Name(), s.Name())
				} else if phi.incomingCount(s) > 1 {
					v.errf("phi %%%s in block %%%s has duplicate entries for %%%s", phi.Name(), b.Name(), s.Name())
				}
			}
		}
	}
}

// verifySSADominance checks every use is dominated by its definition.
func (v *verifier) verifySSADominance(f *Function) {
	dom := NewDominators(f)
	pos := make([]int32, f.NumInstIDs()) // by instruction ID: index in its block
	for _, b := range f.Blocks {
		for k, inst := range b.Instrs {
			pos[inst.ID()] = int32(k)
		}
	}
	for _, b := range f.Blocks {
		if !dom.Reachable(b) {
			continue // SSA dominance is only meaningful in reachable code
		}
		for _, inst := range b.Instrs {
			if phi, ok := inst.(*PhiInst); ok {
				for n := 0; n < phi.NumIncoming(); n++ {
					val, pred := phi.Incoming(n)
					def, ok := val.(Instruction)
					if !ok {
						continue
					}
					// Value must dominate the end of the incoming block.
					db := def.Parent()
					if db == pred {
						continue
					}
					if !dom.Dominates(db, pred) {
						v.errf("phi %%%s incoming %%%s does not dominate predecessor %%%s",
							phi.Name(), val.Name(), pred.Name())
					}
				}
				continue
			}
			for _, op := range inst.Operands() {
				def, ok := op.(Instruction)
				if !ok {
					continue
				}
				db := def.Parent()
				if db == b {
					if pos[def.ID()] >= pos[inst.ID()] {
						v.errf("use of %%%s in block %%%s before its definition", def.Name(), b.Name())
					}
				} else if !dom.Dominates(db, b) {
					v.errf("definition of %%%s (block %%%s) does not dominate use in block %%%s",
						def.Name(), db.Name(), b.Name())
				}
			}
		}
	}
}
