package passes

import (
	"math"
	"sync"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/dsa"
	"repro/internal/obs"
)

// CSE performs dominator-scoped common subexpression elimination over pure
// instructions (binary operators, comparisons, casts, getelementptrs): an
// instruction computing the same expression as one that dominates it is
// replaced by the earlier result. This is the "redundancy elimination" the
// paper highlights getelementptr exposing for address arithmetic (§2.2).
// With points-to information it additionally forwards block-local redundant
// loads: a load whose address must-aliases an earlier load or store in the
// block reuses that value, unless an intervening store, free, or call may
// have clobbered the object.
type CSE struct {
	rem *obs.Remarks
	// NoAlias disables points-to-based load forwarding (ablation baseline
	// for llvm-bench -alias).
	NoAlias bool
}

// NewCSE returns the pass.
func NewCSE() *CSE { return &CSE{} }

// Name returns the pass name.
func (*CSE) Name() string { return "cse" }

func (c *CSE) setRemarks(r *obs.Remarks) { c.rem = r }

// RunOnFunction walks the dominator tree with a scoped expression table.
func (c *CSE) RunOnFunction(f *core.Function) int {
	return c.runOnFunctionWith(f, nil)
}

func (c *CSE) runOnFunctionWith(f *core.Function, am *analysis.Manager) int {
	if len(f.Blocks) == 0 {
		return 0
	}
	dt := am.DomTree(f)
	var pt *dsa.Result
	if !c.NoAlias {
		pt = dsa.Of(am, f.Parent())
	}
	keys := cseKeysPool.Get().(*cseKeys)
	defer cseKeysPool.Put(keys)
	keys.reset()
	table, added, buf := keys.table, keys.added[:0], keys.buf[:0]
	// Block-local available memory values: address → value the cell
	// holds, pruned by alias queries at each potential clobber.
	avail := keys.avail[:0]
	changed := 0
	defer func() { keys.added, keys.buf, keys.avail = added[:0], buf[:0], avail[:0] }()

	var walk func(b *core.BasicBlock)
	walk = func(b *core.BasicBlock) {
		scope := len(added)
		avail = avail[:0]
		buf = append(buf[:0], b.Instrs...)
		for _, inst := range buf {
			if pt != nil {
				if done, ate := c.memCSE(f, b, inst, pt, &avail); ate {
					changed += done
					continue
				}
			}
			key, ok := keys.expr(inst)
			if !ok {
				continue
			}
			prev, hit := table[key]
			if !hit && key.commutes() {
				prev, hit = table[key.swapped()]
			}
			if hit {
				if c.rem.Enabled() {
					c.rem.Appliedf("cse",
						diag.Pos{Fn: f.Name(), Block: b.Name(), Inst: core.InstDebugString(inst)},
						"eliminated redundant computation, reusing dominating %%%s in block %%%s",
						prev.Name(), prev.Parent().Name())
				}
				core.ReplaceAllUses(inst, prev)
				b.Erase(inst)
				changed++
				continue
			}
			table[key] = inst
			added = append(added, key)
		}
		for _, child := range dt.Children(b) {
			walk(child)
		}
		for _, k := range added[scope:] {
			delete(table, k)
		}
		added = added[:scope]
	}
	walk(f.Entry())
	return changed
}

// exprKey identifies a pure expression structurally: two instructions with
// equal keys compute the same value. Operands are operandKeys; the index
// list of a getelementptr after its first index is an interned list ID.
type exprKey struct {
	op   core.Opcode
	typ  core.Type // a binary operator's operand type, a cast's result type
	a, b operandKey
	rest int32
}

func (k exprKey) commutes() bool { return core.IsCommutative(k.op) && k.a != k.b }

func (k exprKey) swapped() exprKey { k.a, k.b = k.b, k.a; return k }

// operandKey identifies an operand: int, float, bool and null constants by
// type and bits, every other value by identity.
type operandKey struct {
	v    core.Value
	kind uint8
	typ  core.Type
	bits uint64
}

const (
	opIdentity uint8 = iota // compared by v
	opInt
	opFloat
	opBool
	opNull
)

// cseKeys builds keys. It interns operand lists; types need no interning,
// as each has one object. Its tables, and the scoped expression table with
// its buffers, live for one function and are then pooled for the next.
type cseKeys struct {
	lists map[listLink]int32

	table map[exprKey]core.Instruction
	added []exprKey // the table's entries, innermost scope last
	buf   []core.Instruction
	avail []memAvail
}

var cseKeysPool = sync.Pool{New: func() any {
	return &cseKeys{lists: map[listLink]int32{}, table: map[exprKey]core.Instruction{}}
}}

func (k *cseKeys) reset() {
	clear(k.lists)
	clear(k.table)
}

// listLink is one step of an interned list: the list so far, then one more
// operand.
type listLink struct {
	prev int32
	op   operandKey
}

func (k *cseKeys) link(l listLink) int32 {
	id, ok := k.lists[l]
	if !ok {
		id = int32(len(k.lists)) + 1
		k.lists[l] = id
	}
	return id
}

func (k *cseKeys) operand(v core.Value) operandKey {
	switch c := v.(type) {
	case *core.ConstantInt:
		return operandKey{kind: opInt, typ: c.Type(), bits: c.Val}
	case *core.ConstantFloat:
		bits := math.Float64bits(c.Val)
		if math.IsNaN(c.Val) {
			bits = math.Float64bits(math.NaN()) // every NaN prints alike
		}
		return operandKey{kind: opFloat, typ: c.Type(), bits: bits}
	case *core.ConstantBool:
		if c.Val {
			return operandKey{kind: opBool, bits: 1}
		}
		return operandKey{kind: opBool}
	case *core.ConstantNull:
		return operandKey{kind: opNull, typ: c.Type()}
	}
	return operandKey{v: v}
}

// expr builds the key of a pure instruction; ok is false for instructions
// with memory effects or control flow.
func (k *cseKeys) expr(inst core.Instruction) (exprKey, bool) {
	switch i := inst.(type) {
	case *core.BinaryInst:
		return exprKey{op: i.Opcode(), typ: i.LHS().Type(), a: k.operand(i.LHS()), b: k.operand(i.RHS())}, true
	case *core.CastInst:
		return exprKey{op: core.OpCast, typ: i.Type(), a: k.operand(i.Val())}, true
	case *core.GetElementPtrInst:
		key := exprKey{op: core.OpGetElementPtr, a: k.operand(i.Base())}
		if ix := i.Indices(); len(ix) > 0 {
			key.b = k.operand(ix[0])
			for _, v := range ix[1:] {
				key.rest = k.link(listLink{prev: key.rest, op: k.operand(v)})
			}
		}
		return key, true
	}
	return exprKey{}, false
}

// memAvail records that the memory at ptr currently holds val (within the
// current block).
type memAvail struct {
	ptr core.Value
	val core.Value
}

// memCSE handles one instruction's effect on the block-local available-load
// table. It returns (eliminated, handled): handled is true when the
// instruction was a memory operation this table models (the caller skips
// expression CSE for it).
func (c *CSE) memCSE(f *core.Function, b *core.BasicBlock, inst core.Instruction,
	pt *dsa.Result, avail *[]memAvail) (int, bool) {
	// keep retains only entries that provably survive a write through ptr.
	keepNoAlias := func(ptr core.Value) {
		kept := (*avail)[:0]
		for _, e := range *avail {
			if pt.Alias(e.ptr, ptr) == dsa.NoAlias {
				kept = append(kept, e)
			}
		}
		*avail = kept
	}
	switch i := inst.(type) {
	case *core.LoadInst:
		for _, e := range *avail {
			if pt.Alias(i.Ptr(), e.ptr) == dsa.MustAlias && e.val.Type() == i.Type() {
				if c.rem.Enabled() {
					c.rem.Appliedf("cse",
						diag.Pos{Fn: f.Name(), Block: b.Name(), Inst: core.InstDebugString(inst)},
						"forwarded available value to redundant load (must-alias, no intervening clobber)")
				}
				core.ReplaceAllUses(inst, e.val)
				b.Erase(inst)
				return 1, true
			}
		}
		*avail = append(*avail, memAvail{ptr: i.Ptr(), val: i})
		return 0, true
	case *core.StoreInst:
		keepNoAlias(i.Ptr())
		*avail = append(*avail, memAvail{ptr: i.Ptr(), val: i.Val()})
		return 0, true
	case *core.FreeInst:
		keepNoAlias(i.Ptr())
		return 0, true
	case *core.CallInst:
		c.pruneForCall(i.Callee(), pt, avail)
		return 0, true
	case *core.InvokeInst:
		c.pruneForCall(i.Callee(), pt, avail)
		return 0, true
	}
	return 0, false
}

// pruneForCall drops available values the callee may overwrite, using the
// per-function effect summaries.
func (c *CSE) pruneForCall(callee core.Value, pt *dsa.Result, avail *[]memAvail) {
	kept := (*avail)[:0]
	for _, e := range *avail {
		if !pt.CallSiteMayMod(callee, pt.NodeFor(e.ptr)) {
			kept = append(kept, e)
		}
	}
	*avail = kept
}
