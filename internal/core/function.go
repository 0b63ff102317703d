package core

import "slices"

// Linkage describes symbol visibility at link time. Internal symbols can be
// eliminated or transformed aggressively by the link-time optimizer because
// no other module can reference them.
type Linkage int

// Linkage kinds.
const (
	ExternalLinkage Linkage = iota
	InternalLinkage
)

// String returns the assembly keyword for the linkage ("" for external).
func (l Linkage) String() string {
	if l == InternalLinkage {
		return "internal"
	}
	return ""
}

// Argument is a formal parameter of a Function.
type Argument struct {
	valueBase
	parent *Function
	index  int
}

// Parent returns the function owning the argument.
func (a *Argument) Parent() *Function { return a.parent }

// Index returns the argument's position.
func (a *Argument) Index() int { return a.index }

// Function is a global function: a signature plus (for definitions) a list
// of basic blocks, the first of which is the entry block. A Function value
// has pointer-to-function type, so it can be used directly as a call or
// invoke callee and stored in memory like any other pointer.
//
// A function numbers its blocks and instructions (cmd/compile's Block.ID
// and Value.ID): every block in Blocks and every instruction in them has
// an ID in [1, NumBlockIDs) or [1, NumInstIDs), unique within the
// function, so analyses can keep per-block and per-instruction facts in
// slices. IDs are handed out only where the function is mutated — when a
// block joins it (AddBlock, InsertBlocksAfter, with all its instructions)
// and when an instruction is inserted into one of its blocks (Append,
// InsertAt, InsertBefore) — and never by an analysis, so reading a
// function, concurrently or not, writes nothing. The verifier checks the
// contract.
//
// The same mutation paths move the function's stamps (CFGStamp,
// BodyStamp), so a cached analysis can tell whether f changed since it
// was computed. Blocks and each block's Instrs are read-only outside this
// package: every edit goes through a method here.
type Function struct {
	valueBase
	parent  *Module
	Sig     *FunctionType
	Linkage Linkage
	Args    []*Argument
	Blocks  []*BasicBlock

	lastBlockID, lastInstID int32
	cfgStamp, bodyStamp     uint64
}

// NewFunction creates a detached function with the given name and
// signature; arguments are created unnamed.
func NewFunction(name string, sig *FunctionType) *Function {
	f := &Function{Sig: sig}
	f.name = name
	f.typ = NewPointer(sig)
	f.markShared()
	for i := range sig.Params {
		a := &Argument{parent: f, index: i}
		a.typ = sig.Params[i]
		f.Args = append(f.Args, a)
	}
	return f
}

// Parent returns the module containing the function, or nil.
func (f *Function) Parent() *Module { return f.parent }

// IsDeclaration reports whether the function has no body (an external
// declaration to be resolved at link time).
func (f *Function) IsDeclaration() bool { return len(f.Blocks) == 0 }

// Entry returns the entry basic block, or nil for declarations.
func (f *Function) Entry() *BasicBlock {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// NumBlockIDs bounds the block IDs of f: every block in f has an ID
// below it, so a slice of this length can be indexed by BasicBlock.ID.
func (f *Function) NumBlockIDs() int { return int(f.lastBlockID) + 1 }

// NumInstIDs bounds the instruction IDs of f the same way.
func (f *Function) NumInstIDs() int { return int(f.lastInstID) + 1 }

// CFGStamp counts the edits to f's control-flow graph: blocks joining,
// leaving, or reordered within f, and terminators inserted, removed or
// given a different successor. A dominator tree or loop nest computed at
// one stamp holds while the stamp is unchanged. Only the goroutine that
// edits f writes the stamp, so it is read the same way f's blocks are.
func (f *Function) CFGStamp() uint64 { return f.cfgStamp }

// BodyStamp counts every edit to f: each CFG edit, and each instruction
// inserted, removed, or given a different operand.
func (f *Function) BodyStamp() uint64 { return f.bodyStamp }

// touch moves f's body stamp, and its CFG stamp when cfg is set.
func (f *Function) touch(cfg bool) {
	if cfg {
		f.cfgStamp++
	}
	f.bodyStamp++
}

// touchParent moves the stamps of the function holding b, if any.
func (b *BasicBlock) touchParent(cfg bool) {
	if b != nil && b.parent != nil {
		b.parent.touch(cfg)
	}
}

// adopt makes f the parent of b and gives b and its instructions fresh
// IDs; a block keeps no number from a function it belonged to before.
func (f *Function) adopt(b *BasicBlock) {
	b.parent = f
	f.lastBlockID++
	b.id = f.lastBlockID
	for _, inst := range b.Instrs {
		f.numberInst(inst)
	}
}

// numberInst gives inst a fresh instruction ID of f.
func (f *Function) numberInst(inst Instruction) {
	f.lastInstID++
	inst.setID(f.lastInstID)
}

// AddBlock appends a block to the function.
func (f *Function) AddBlock(b *BasicBlock) {
	f.adopt(b)
	f.Blocks = append(f.Blocks, b)
	f.touch(true)
}

// InsertBlockAfter inserts nb immediately after mark.
func (f *Function) InsertBlockAfter(nb, mark *BasicBlock) { f.InsertBlocksAfter(mark, nb) }

// InsertBlocksAfter inserts bs, in order, immediately after mark with one
// shift of the block list, and makes f their parent.
func (f *Function) InsertBlocksAfter(mark *BasicBlock, bs ...*BasicBlock) {
	i := slices.Index(f.Blocks, mark)
	if i < 0 {
		panic("core.InsertBlocksAfter: mark not in function")
	}
	for _, b := range bs {
		f.adopt(b)
	}
	f.Blocks = slices.Insert(f.Blocks, i+1, bs...)
	f.touch(true)
}

// RemoveBlock unlinks b from the function. The caller is responsible for
// fixing any dangling references (phis, branches).
func (f *Function) RemoveBlock(b *BasicBlock) {
	for i, x := range f.Blocks {
		if x == b {
			copy(f.Blocks[i:], f.Blocks[i+1:])
			f.Blocks = f.Blocks[:len(f.Blocks)-1]
			b.parent = nil
			f.touch(true)
			return
		}
	}
}

// EraseBlock unlinks b and drops all operand uses of its instructions.
func (f *Function) EraseBlock(b *BasicBlock) {
	f.RemoveBlock(b)
	b.dropInstrs()
}

// dropInstrs drops every operand use of b's instructions and empties it.
func (b *BasicBlock) dropInstrs() {
	for _, inst := range b.Instrs {
		DropOperands(inst)
	}
	b.Instrs = nil
}

// TakeBlocks detaches every block of f, with its instructions, and
// returns them in order, leaving f a declaration. The blocks can then
// join another function (AddBlock, InsertBlocksAfter).
func (f *Function) TakeBlocks() []*BasicBlock {
	bs := f.Blocks
	for _, b := range bs {
		b.parent = nil
	}
	f.Blocks = nil
	f.touch(true)
	return bs
}

// DropBody drops every operand use of f's instructions and deletes its
// blocks, leaving f a declaration.
func (f *Function) DropBody() {
	for _, b := range f.TakeBlocks() {
		b.dropInstrs()
	}
}

// SortBlocks stably sorts the blocks after the entry block by cmp and
// reports whether their order changed.
func (f *Function) SortBlocks(cmp func(a, b *BasicBlock) int) bool {
	if len(f.Blocks) < 2 || slices.IsSortedFunc(f.Blocks[1:], cmp) {
		return false
	}
	slices.SortStableFunc(f.Blocks[1:], cmp)
	f.touch(true)
	return true
}

// SetLinkage changes f's linkage.
func (f *Function) SetLinkage(l Linkage) {
	f.Linkage = l
	f.parent.touch()
}

// NumInstructions returns the total instruction count across all blocks.
func (f *Function) NumInstructions() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// ForEachInst invokes fn on every instruction in block order; if fn returns
// false iteration stops.
func (f *Function) ForEachInst(fn func(Instruction) bool) {
	for _, b := range f.Blocks {
		for _, inst := range b.Instrs {
			if !fn(inst) {
				return
			}
		}
	}
}

// HasAddressTaken reports whether the function's address escapes: it is
// referenced by something other than the callee slot of a direct call or
// invoke. Functions whose address is taken can be called indirectly, so
// interprocedural transforms must be conservative about them.
func (f *Function) HasAddressTaken() bool {
	for _, u := range f.Uses() {
		switch inst := u.User.(type) {
		case *CallInst:
			if u.Index != 0 {
				return true
			}
			_ = inst
		case *InvokeInst:
			if u.Index != 0 {
				return true
			}
		default:
			return true
		}
	}
	return false
}

// Callers returns the direct call/invoke sites targeting f.
func (f *Function) Callers() []Instruction {
	var out []Instruction
	for _, u := range f.Uses() {
		switch inst := u.User.(type) {
		case *CallInst:
			if u.Index == 0 {
				out = append(out, inst)
			}
		case *InvokeInst:
			if u.Index == 0 {
				out = append(out, inst)
			}
		}
	}
	return out
}

// GlobalVariable is a module-level memory object. Per the paper's unified
// memory model (§2.3), the global's *symbol* denotes the address of the
// object, so the value's type is a pointer to ValueType.
type GlobalVariable struct {
	valueBase
	parent    *Module
	ValueType Type
	Init      Constant // nil for external declarations
	IsConst   bool
	Linkage   Linkage
}

// NewGlobal creates a detached global variable definition.
func NewGlobal(name string, valueType Type, init Constant) *GlobalVariable {
	g := &GlobalVariable{ValueType: valueType, Init: init}
	g.name = name
	g.typ = NewPointer(valueType)
	g.markShared()
	return g
}

// Parent returns the module containing the global, or nil.
func (g *GlobalVariable) Parent() *Module { return g.parent }

// SetLinkage changes g's linkage.
func (g *GlobalVariable) SetLinkage(l Linkage) {
	g.Linkage = l
	g.parent.touch()
}

// SetInit replaces g's initializer; nil makes g a declaration.
func (g *GlobalVariable) SetInit(c Constant) {
	g.Init = c
	g.parent.touch()
}

// IsDeclaration reports whether the global has no initializer.
func (g *GlobalVariable) IsDeclaration() bool { return g.Init == nil }

// Functions and global variables are constants: their value is a
// compile-time-known address, so they may appear in global initializers and
// constant expressions (like LLVM's GlobalValue).
func (f *Function) isConstant()       {}
func (g *GlobalVariable) isConstant() {}
