package validate

// The equational engine proves pure-SSA rewrites correct without executing
// anything, against a small set of algebraic laws from the equational
// theory of SSA: constant folding, commutativity, associativity of the
// wraparound integer ring operations, arithmetic identities, and
// canonicalization of comparisons. It handles exactly the fragment the
// pure scalar passes (mem2reg, sroa, cse, instcombine's reassociation)
// rewrite: a single basic block of straight-line code over non-escaping
// stack cells, ending in a ret. Anything outside the fragment — control
// flow, calls, escaping memory, floats (whose addition does not
// associate), undef — makes it decline, falling through to the
// differential engine. Declining is always sound: the engine can only
// confirm equivalence, never a miscompile.

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
)

// equationallyEqual reports whether bf and af provably compute the same
// return value. Both functions must already have equal signatures.
func equationallyEqual(bf, af *core.Function) bool {
	sb, ok := summarize(bf)
	if !ok {
		return false
	}
	sa, ok := summarize(af)
	if !ok {
		return false
	}
	return sb == sa
}

// sym is a symbolic value: a constant, a parameter, or an operator applied
// to symbolic operands. Trees are compared through their canonical
// rendering, so normalize must produce one spelling per equivalence class.
type sym struct {
	op   core.Opcode // valid when kind == symOp
	kind symKind
	typ  core.Type
	val  uint64 // constant bits (symConst) or parameter index (symArg)
	args []*sym
}

type symKind int

const (
	symConst symKind = iota
	symArg
	symOp
)

// summarize builds the normalized symbolic return value of f, or declines
// (ok=false) when f is outside the pure straight-line fragment. Void
// functions in the fragment summarize to "void": with no calls, no escaping
// stores, and no control flow they have no observables at all.
func summarize(f *core.Function) (string, bool) {
	if len(f.Blocks) != 1 {
		return "", false
	}
	b := f.Blocks[0]
	ret, ok := b.Terminator().(*core.RetInst)
	if !ok {
		return "", false
	}

	env := map[core.Value]*sym{}   // SSA value -> symbolic value
	cells := map[core.Value]*sym{} // non-escaping alloca -> current content
	for _, inst := range b.Instrs {
		if inst == core.Instruction(ret) {
			break
		}
		switch i := inst.(type) {
		case *core.AllocaInst:
			if i.NumElems() != nil || !core.IsFirstClass(i.AllocType) || escapes(i) {
				return "", false
			}
			// The interpreter zeroes alloca memory, so a cell starts as the
			// zero constant of its type.
			cells[i] = &sym{kind: symConst, typ: i.AllocType, val: 0}
		case *core.LoadInst:
			cell, tracked := cells[i.Ptr()]
			if !tracked {
				return "", false
			}
			env[i] = cell
		case *core.StoreInst:
			if _, tracked := cells[i.Ptr()]; !tracked {
				return "", false
			}
			v, ok := symFor(env, i.Val())
			if !ok {
				return "", false
			}
			cells[i.Ptr()] = v
		case *core.BinaryInst:
			lhs, ok1 := symFor(env, i.LHS())
			rhs, ok2 := symFor(env, i.RHS())
			if !ok1 || !ok2 {
				return "", false
			}
			t := i.Type()
			if core.IsFloatingPoint(t) || core.IsFloatingPoint(i.LHS().Type()) {
				return "", false
			}
			// div/rem are not pure terms: they trap on a zero divisor, so
			// deleting or introducing one changes behavior even when the
			// result is unused. Only a provably nonzero constant divisor
			// keeps them inside the equational fragment.
			if op := i.Opcode(); op == core.OpDiv || op == core.OpRem {
				if rhs.kind != symConst || rhs.val == 0 {
					return "", false
				}
			}
			env[i] = normalize(&sym{kind: symOp, op: i.Opcode(), typ: t, args: []*sym{lhs, rhs}})
		case *core.CastInst:
			v, ok := symFor(env, i.Val())
			if !ok {
				return "", false
			}
			env[i] = normalize(&sym{kind: symOp, op: core.OpCast, typ: i.Type(), args: []*sym{v}})
		default:
			return "", false
		}
	}

	if ret.Value() == nil {
		return "void", true
	}
	v, ok := symFor(env, ret.Value())
	if !ok {
		return "", false
	}
	return render(v), true
}

// escapes reports whether an alloca's address is used as anything but the
// pointer operand of a load or store — the condition under which its cell
// contents stay private to the symbolic evaluation.
func escapes(a *core.AllocaInst) bool {
	for _, u := range a.Uses() {
		switch i := u.User.(type) {
		case *core.LoadInst:
			// ok: the load reads the cell
		case *core.StoreInst:
			if i.Ptr() != core.Value(a) {
				return true // the address itself is stored somewhere
			}
		default:
			return true
		}
	}
	return false
}

// symFor resolves an operand: an already-summarized instruction, a
// function parameter, or an integer/bool constant. Undef is opaque — the
// engine declines rather than pick a value for it.
func symFor(env map[core.Value]*sym, v core.Value) (*sym, bool) {
	if s, ok := env[v]; ok {
		return s, true
	}
	switch c := v.(type) {
	case *core.Argument:
		return &sym{kind: symArg, typ: c.Type(), val: uint64(c.Index())}, true
	case *core.ConstantInt:
		return &sym{kind: symConst, typ: c.Type(), val: c.Val}, true
	case *core.ConstantBool:
		var bits uint64
		if c.Val {
			bits = 1
		}
		return &sym{kind: symConst, typ: c.Type(), val: bits}, true
	}
	return nil, false
}

// allOnes is the all-ones bit pattern of t's width: the additive inverse
// of 1 in the wraparound ring, used to rewrite subtraction as addition.
func allOnes(t core.Type) uint64 {
	w := core.BitWidth(t)
	if w >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(w) - 1
}

func isConst(s *sym, v uint64) bool { return s.kind == symConst && s.val == v }

// normalize rewrites s to the canonical representative of its equivalence
// class. Children are assumed already normalized (summarize builds bottom-
// up). All integer laws here hold in two's-complement wraparound
// semantics, which is what EvalIntBinary implements.
func normalize(s *sym) *sym {
	if s.kind != symOp {
		return s
	}

	// Constant folding, including casts between foldable scalar kinds.
	if s.op == core.OpCast {
		a := s.args[0]
		if a.kind == symConst && core.IsInteger(a.typ) && (core.IsInteger(s.typ) || s.typ.Kind() == core.BoolKind) {
			if s.typ.Kind() == core.BoolKind {
				v := uint64(0)
				if a.val != 0 {
					v = 1
				}
				return &sym{kind: symConst, typ: s.typ, val: v}
			}
			return &sym{kind: symConst, typ: s.typ, val: core.EvalIntCast(a.typ, s.typ, a.val)}
		}
		if a.typ == s.typ {
			return a
		}
		return s
	}

	a, b := s.args[0], s.args[1]
	intLike := core.IsInteger(a.typ)
	if a.kind == symConst && b.kind == symConst && intLike {
		if core.IsComparisonOp(s.op) {
			if r, ok := core.EvalIntCompare(s.op, a.typ, a.val, b.val); ok {
				v := uint64(0)
				if r {
					v = 1
				}
				return &sym{kind: symConst, typ: s.typ, val: v}
			}
		} else if r, ok := core.EvalIntBinary(s.op, s.typ, a.val, b.val); ok {
			return &sym{kind: symConst, typ: s.typ, val: r}
		}
	}

	if !intLike {
		return s
	}

	switch s.op {
	case core.OpSub:
		// a - b  ≡  a + b*(-1)  under wraparound semantics.
		neg := normalize(&sym{kind: symOp, op: core.OpMul, typ: s.typ,
			args: []*sym{b, {kind: symConst, typ: s.typ, val: allOnes(s.typ)}}})
		return normalize(&sym{kind: symOp, op: core.OpAdd, typ: s.typ, args: []*sym{a, neg}})

	case core.OpAdd, core.OpMul, core.OpAnd, core.OpOr, core.OpXor:
		return normalizeACOp(s)

	case core.OpShl, core.OpShr:
		if isConst(b, 0) {
			return a
		}

	case core.OpSetGT:
		return normalize(&sym{kind: symOp, op: core.OpSetLT, typ: s.typ, args: []*sym{b, a}})
	case core.OpSetGE:
		return normalize(&sym{kind: symOp, op: core.OpSetLE, typ: s.typ, args: []*sym{b, a}})
	case core.OpSetEQ, core.OpSetNE:
		if render(a) > render(b) {
			return &sym{kind: symOp, op: s.op, typ: s.typ, args: []*sym{b, a}}
		}
	}
	return s
}

// normalizeACOp canonicalizes an associative-commutative integer
// operation: flatten nested applications, fold all constants into one,
// apply identity and absorbing elements, cancel xor pairs, and sort the
// remaining operands into one canonical order.
func normalizeACOp(s *sym) *sym {
	var flat []*sym
	var collect func(v *sym)
	collect = func(v *sym) {
		if v.kind == symOp && v.op == s.op && v.typ == s.typ {
			for _, c := range v.args {
				collect(c)
			}
			return
		}
		flat = append(flat, v)
	}
	collect(s)

	// Fold every constant operand into a single accumulated constant.
	var identity uint64
	switch s.op {
	case core.OpMul:
		identity = 1
	case core.OpAnd:
		identity = allOnes(s.typ)
	}
	acc := identity
	terms := flat[:0]
	for _, v := range flat {
		if v.kind == symConst {
			if r, ok := core.EvalIntBinary(s.op, s.typ, acc, v.val); ok {
				acc = r
				continue
			}
		}
		terms = append(terms, v)
	}

	// Absorbing elements collapse the whole expression.
	if (s.op == core.OpMul || s.op == core.OpAnd) && acc == 0 {
		return &sym{kind: symConst, typ: s.typ, val: 0}
	}
	if s.op == core.OpOr && acc == allOnes(s.typ) {
		return &sym{kind: symConst, typ: s.typ, val: acc}
	}

	// x ^ x cancels pairwise.
	if s.op == core.OpXor {
		counts := map[string][]*sym{}
		for _, v := range terms {
			counts[render(v)] = append(counts[render(v)], v)
		}
		keys := make([]string, 0, len(counts))
		for k := range counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		terms = terms[:0]
		for _, k := range keys {
			if len(counts[k])%2 == 1 {
				terms = append(terms, counts[k][0])
			}
		}
	}

	if acc != identity {
		terms = append(terms, &sym{kind: symConst, typ: s.typ, val: acc})
	}
	if len(terms) == 0 {
		return &sym{kind: symConst, typ: s.typ, val: identity}
	}
	if len(terms) == 1 {
		return terms[0]
	}
	sort.SliceStable(terms, func(i, j int) bool { return render(terms[i]) < render(terms[j]) })
	return &sym{kind: symOp, op: s.op, typ: s.typ, args: terms}
}

// render spells a symbolic value canonically; normalized trees are equal
// iff their renderings are.
func render(s *sym) string {
	switch s.kind {
	case symConst:
		return fmt.Sprintf("%s:%d", s.typ, s.val)
	case symArg:
		return fmt.Sprintf("%%arg%d", s.val)
	}
	parts := make([]string, 0, len(s.args)+2)
	parts = append(parts, s.op.String(), s.typ.String())
	for _, a := range s.args {
		parts = append(parts, render(a))
	}
	return "(" + strings.Join(parts, " ") + ")"
}
