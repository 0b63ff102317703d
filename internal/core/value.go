package core

import "sync"

// Value is anything that can be used as an operand: instructions, constants,
// function arguments, basic blocks (as branch targets), global variables,
// and functions. Every value has a type; SSA virtual registers are simply
// instructions whose type is first-class.
type Value interface {
	// Name returns the value's name without the leading sigil. Unnamed
	// values get printed with slot numbers by the printer.
	Name() string
	// SetName renames the value.
	SetName(string)
	// Type returns the value's type.
	Type() Type
	// Uses returns the list of (user, operand-index) pairs referencing
	// this value. The returned slice must not be mutated.
	Uses() []Use

	addUse(u Use)
	removeUse(u Use)
	numUses() int
	base() *valueBase
}

// Use records a single reference to a value: the using instruction (or
// other User) and the operand index within it.
type Use struct {
	User  User
	Index int
}

// User is a Value that references other values as operands.
type User interface {
	Value
	// Operands returns the operand list. The returned slice must not be
	// mutated directly; use SetOperand.
	Operands() []Value
	// Operand returns the i'th operand.
	Operand(i int) Value
	// NumOperands returns the operand count.
	NumOperands() int
	// SetOperand replaces the i'th operand, maintaining use lists.
	SetOperand(i int, v Value)
}

// valueBase supplies the common Value bookkeeping; concrete values embed it.
//
// Values that can be referenced from more than one function — constants,
// functions, global variables — are marked shared at construction. Their use
// lists are guarded by a mutex so function-at-a-time transforms may run
// concurrently (the parallel funcPassAdapter in internal/passes): erasing an
// instruction or rewriting a call site in one function edits the use list of
// its callee or of a constant that other functions reference too. Values that
// live inside a single function (instructions, arguments, blocks) stay
// lock-free; exactly one goroutine ever touches them.
//
// id is the number a block or instruction gets from its function (see
// Function.NumBlockIDs); other values leave it zero. It fills the padding
// after shared, so it costs no memory.
type valueBase struct {
	name   string
	typ    Type
	uses   []Use
	shared bool
	id     int32
	mu     sync.Mutex
}

func (v *valueBase) Name() string        { return v.name }
func (v *valueBase) SetName(name string) { v.name = name }
func (v *valueBase) Type() Type          { return v.typ }
func (v *valueBase) base() *valueBase    { return v }

// markShared flags the value as reachable from multiple functions; set once
// at construction, before the value can be visible to any other goroutine.
func (v *valueBase) markShared() { v.shared = true }

// Uses returns the use list. For shared values it is a snapshot copy taken
// under the lock, so callers may iterate while other functions' transforms
// add or remove uses concurrently.
func (v *valueBase) Uses() []Use {
	if !v.shared {
		return v.uses
	}
	v.mu.Lock()
	out := append([]Use(nil), v.uses...)
	v.mu.Unlock()
	return out
}

func (v *valueBase) addUse(u Use) {
	if v.shared {
		v.mu.Lock()
		v.uses = append(v.uses, u)
		v.mu.Unlock()
		return
	}
	v.uses = append(v.uses, u)
}

func (v *valueBase) removeUse(u Use) {
	if v.shared {
		v.mu.Lock()
		defer v.mu.Unlock()
	}
	for i, x := range v.uses {
		if x.User == u.User && x.Index == u.Index {
			last := len(v.uses) - 1
			v.uses[i] = v.uses[last]
			v.uses = v.uses[:last]
			return
		}
	}
}

// numUses reads the use count without copying the list.
func (v *valueBase) numUses() int {
	if !v.shared {
		return len(v.uses)
	}
	v.mu.Lock()
	n := len(v.uses)
	v.mu.Unlock()
	return n
}

// NumUses returns the number of uses of v.
func NumUses(v Value) int { return v.numUses() }

// HasUses reports whether v has at least one use.
func HasUses(v Value) bool { return v.numUses() > 0 }

// ReplaceAllUses rewrites every use of old to refer to new instead
// (LLVM's replaceAllUsesWith). The two values should have equal types.
func ReplaceAllUses(old, new Value) {
	if old == new {
		return
	}
	// Copy because SetOperand mutates the use list; most values have few
	// uses, so the copy usually stays on the stack.
	var buf [8]Use
	uses := append(buf[:0], old.Uses()...)
	for _, u := range uses {
		u.User.SetOperand(u.Index, new)
	}
}

// userBase supplies operand bookkeeping for Users. The embedding value must
// call initOperands (or appendOperand) so use lists stay consistent, and
// dropOperands before being discarded.
type userBase struct {
	valueBase
	ops []Value
}

func (u *userBase) Operands() []Value   { return u.ops }
func (u *userBase) Operand(i int) Value { return u.ops[i] }
func (u *userBase) NumOperands() int    { return len(u.ops) }

// setOperands installs the initial operand list for user 'self' (the
// concrete value embedding this base), registering uses.
func (u *userBase) setOperands(self User, ops []Value) {
	u.ops = make([]Value, len(ops))
	for i, v := range ops {
		u.ops[i] = v
		if v != nil {
			v.addUse(Use{User: self, Index: i})
		}
	}
}

// edited moves the stamps of the function holding self, when self is an
// instruction in one, after an edit of its operands; retarget reports
// that a *BasicBlock operand was among those written or removed, which
// on a terminator changes the CFG.
func edited(self User, retarget bool) {
	if inst, ok := self.(Instruction); ok {
		inst.Parent().touchParent(retarget && inst.IsTerminator())
	}
}

func isBlock(v Value) bool {
	_, ok := v.(*BasicBlock)
	return ok
}

// appendOperand adds one operand to the end of the list.
func (u *userBase) appendOperand(self User, v Value) {
	idx := len(u.ops)
	u.ops = append(u.ops, v)
	if v != nil {
		v.addUse(Use{User: self, Index: idx})
	}
	edited(self, isBlock(v))
}

// setOperandAt implements SetOperand for the concrete user 'self'.
func (u *userBase) setOperandAt(self User, i int, v Value) {
	old := u.ops[i]
	if old == v {
		return
	}
	if old != nil {
		old.removeUse(Use{User: self, Index: i})
	}
	u.ops[i] = v
	if v != nil {
		v.addUse(Use{User: self, Index: i})
	}
	edited(self, isBlock(old) || isBlock(v))
}

// dropOperandsFrom removes all operand uses; call before deleting the user.
func (u *userBase) dropOperandsFrom(self User) {
	for i, v := range u.ops {
		if v != nil {
			v.removeUse(Use{User: self, Index: i})
		}
	}
	u.ops = nil
}

// truncateOperands removes operands [n:] from the list (used by phi and
// switch editing), maintaining use lists.
func (u *userBase) truncateOperands(self User, n int) {
	retarget := false
	for i := n; i < len(u.ops); i++ {
		if u.ops[i] != nil {
			u.ops[i].removeUse(Use{User: self, Index: i})
			retarget = retarget || isBlock(u.ops[i])
		}
	}
	u.ops = u.ops[:n]
	edited(self, retarget)
}
