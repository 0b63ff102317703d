package core

import "slices"

// BasicBlock is a maximal straight-line sequence of instructions ending in
// exactly one terminator. Blocks are Values of label type so terminators
// can reference them as operands; a block's use list therefore identifies
// its predecessors (plus any blockaddress-like constant uses, which this IR
// does not have).
//
// A block attached to a function carries an ID, dense and unique within
// that function (see Function.NumBlockIDs); analyses index slices by it.
type BasicBlock struct {
	valueBase
	parent *Function
	Instrs []Instruction
}

// NewBlock creates a detached basic block with the given name.
func NewBlock(name string) *BasicBlock {
	b := &BasicBlock{}
	b.name = name
	b.typ = LabelType
	return b
}

// Parent returns the containing function, or nil for a detached block.
func (b *BasicBlock) Parent() *Function { return b.parent }

// ID returns the block's number within its function: dense, unique, and
// stable until the block joins another function. A block that has never
// been attached to a function has ID 0.
func (b *BasicBlock) ID() int { return int(b.id) }

// Append adds inst at the end of the block.
func (b *BasicBlock) Append(inst Instruction) {
	inst.setParent(b)
	if b.parent != nil {
		b.parent.numberInst(inst)
	}
	b.Instrs = append(b.Instrs, inst)
	b.touchParent(inst.IsTerminator())
}

// InsertAt inserts inst before position i.
func (b *BasicBlock) InsertAt(i int, inst Instruction) {
	inst.setParent(b)
	if b.parent != nil {
		b.parent.numberInst(inst)
	}
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[i+1:], b.Instrs[i:])
	b.Instrs[i] = inst
	b.touchParent(inst.IsTerminator())
}

// InsertBefore inserts inst immediately before mark (which must be in b).
func (b *BasicBlock) InsertBefore(inst, mark Instruction) {
	for i, x := range b.Instrs {
		if x == mark {
			b.InsertAt(i, inst)
			return
		}
	}
	panic("core.InsertBefore: mark not in block")
}

// IndexOf returns the position of inst in the block, or -1.
func (b *BasicBlock) IndexOf(inst Instruction) int {
	for i, x := range b.Instrs {
		if x == inst {
			return i
		}
	}
	return -1
}

// Remove unlinks inst from the block without dropping its operand uses,
// so it can be re-inserted elsewhere.
func (b *BasicBlock) Remove(inst Instruction) {
	i := b.IndexOf(inst)
	if i < 0 {
		panic("core.Remove: instruction not in block")
	}
	copy(b.Instrs[i:], b.Instrs[i+1:])
	b.Instrs = b.Instrs[:len(b.Instrs)-1]
	inst.setParent(nil)
	b.touchParent(inst.IsTerminator())
}

// Erase unlinks inst and drops its operand uses; the instruction must have
// no remaining users.
func (b *BasicBlock) Erase(inst Instruction) {
	b.Remove(inst)
	DropOperands(inst)
}

// DropOperands removes all operand uses of a user, detaching it from the
// use-def graph prior to deletion.
func DropOperands(u User) {
	for i := u.NumOperands() - 1; i >= 0; i-- {
		if u.Operand(i) != nil {
			u.SetOperand(i, nil)
		}
	}
}

// Terminator returns the block's terminator instruction, or nil if the
// block is not (yet) well-formed.
func (b *BasicBlock) Terminator() Instruction {
	if n := len(b.Instrs); n > 0 {
		if t := b.Instrs[n-1]; t.IsTerminator() {
			return t
		}
	}
	return nil
}

// NumSuccs returns the number of successors, counting a block reached by
// two edges twice (len(b.Succs()) without building the list).
func (b *BasicBlock) NumSuccs() int {
	if t := b.Terminator(); t != nil {
		return numSuccs(t)
	}
	return 0
}

// Succ returns the i'th successor in Succs order.
func (b *BasicBlock) Succ(i int) *BasicBlock { return succ(b.Terminator(), i) }

// numSuccs and succ read the successors of terminator t in the order
// Succs lists them.
func numSuccs(t Instruction) int {
	switch t.(type) {
	case *BranchInst:
		if t.NumOperands() == 3 {
			return 2
		}
		return 1
	case *SwitchInst:
		return t.NumOperands() / 2
	case *InvokeInst:
		return 2
	}
	return 0
}

func succ(t Instruction, i int) *BasicBlock {
	ops := t.Operands()
	switch t.(type) {
	case *BranchInst:
		if len(ops) == 3 {
			return ops[1+i].(*BasicBlock)
		}
		return ops[0].(*BasicBlock)
	case *SwitchInst:
		return ops[1+2*i].(*BasicBlock)
	}
	return ops[len(ops)-2+i].(*BasicBlock) // invoke
}

// Succs returns the successor blocks in terminator operand order.
func (b *BasicBlock) Succs() []*BasicBlock {
	t := b.Terminator()
	if t == nil || numSuccs(t) == 0 {
		return nil // ret, unwind
	}
	out := make([]*BasicBlock, numSuccs(t))
	for i := range out {
		out[i] = succ(t, i)
	}
	return out
}

// Preds returns the predecessor blocks (blocks whose terminators reference
// b), deduplicated, in a stable order.
func (b *BasicBlock) Preds() []*BasicBlock {
	var out []*BasicBlock
	for _, u := range b.uses {
		if p := predOf(u); p != nil && !slices.Contains(out, p) {
			out = append(out, p)
		}
	}
	return out
}

// predOf returns the block whose terminator makes the use u of a block,
// or nil when u is not a terminator's (a phi's incoming-block operand).
func predOf(u Use) *BasicBlock {
	if inst, ok := u.User.(Instruction); ok && inst.IsTerminator() {
		return inst.Parent()
	}
	return nil
}

// Phis returns the phi instructions at the head of the block.
func (b *BasicBlock) Phis() []*PhiInst {
	var out []*PhiInst
	for _, inst := range b.Instrs {
		p, ok := inst.(*PhiInst)
		if !ok {
			break
		}
		out = append(out, p)
	}
	return out
}

// FirstNonPhi returns the index of the first non-phi instruction.
func (b *BasicBlock) FirstNonPhi() int {
	for i, inst := range b.Instrs {
		if _, ok := inst.(*PhiInst); !ok {
			return i
		}
	}
	return len(b.Instrs)
}

// RemovePredecessor updates phis in b after pred stops being a predecessor
// (e.g. its branch was rewritten away).
func (b *BasicBlock) RemovePredecessor(pred *BasicBlock) {
	for _, phi := range b.Phis() {
		for n := phi.NumIncoming() - 1; n >= 0; n-- {
			if _, blk := phi.Incoming(n); blk == pred {
				phi.RemoveIncoming(n)
			}
		}
	}
}

// ReplaceSuccessor rewrites the block terminator's references of oldSucc to
// newSucc.
func (b *BasicBlock) ReplaceSuccessor(oldSucc, newSucc *BasicBlock) {
	t := b.Terminator()
	if t == nil {
		return
	}
	for i := 0; i < t.NumOperands(); i++ {
		if t.Operand(i) == Value(oldSucc) {
			t.SetOperand(i, newSucc)
		}
	}
}

// MoveTailTo moves instructions [i:] from b to the end of dest (used when
// splitting a block at a program point). Phi edges in b's old successors
// are the caller's responsibility.
func (b *BasicBlock) MoveTailTo(i int, dest *BasicBlock) {
	tail := b.Instrs[i:]
	for _, inst := range tail {
		inst.setParent(dest)
		if dest.parent != b.parent && dest.parent != nil {
			dest.parent.numberInst(inst)
		}
	}
	dest.Instrs = append(dest.Instrs, tail...)
	clear(tail)
	b.Instrs = b.Instrs[:i]
	b.touchParent(true)
	if dest.parent != b.parent {
		dest.touchParent(true)
	}
}
