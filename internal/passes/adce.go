package passes

import (
	"repro/internal/core"
)

// ADCE is aggressive dead code elimination: instructions are assumed dead
// until proven live (the paper's footnote 9 describes the same assume-dead
// discipline for global-level DCE). Roots are instructions with side
// effects (stores, calls, invokes, free) and terminators; everything a live
// instruction uses becomes live; the rest is deleted.
type ADCE struct{}

// NewADCE returns the pass.
func NewADCE() *ADCE { return &ADCE{} }

// Name returns the pass name.
func (*ADCE) Name() string { return "adce" }

// hasSideEffects reports whether an instruction must be preserved
// regardless of whether its result is used.
func hasSideEffects(inst core.Instruction) bool {
	switch inst.(type) {
	case *core.StoreInst, *core.CallInst, *core.FreeInst, *core.VAArgInst:
		return true
	}
	// Terminators (including invoke and unwind) are control flow.
	return inst.IsTerminator()
}

// RunOnFunction deletes instructions not transitively required by a root.
func (a *ADCE) RunOnFunction(f *core.Function) int {
	live := newBitset(f.NumInstIDs()) // by instruction ID
	var work []core.Instruction

	markLive := func(inst core.Instruction) {
		if !live.has(inst.ID()) {
			live.add(inst.ID())
			work = append(work, inst)
		}
	}
	f.ForEachInst(func(inst core.Instruction) bool {
		if hasSideEffects(inst) {
			markLive(inst)
		}
		return true
	})
	for len(work) > 0 {
		inst := work[len(work)-1]
		work = work[:len(work)-1]
		for _, op := range inst.Operands() {
			if oi, ok := op.(core.Instruction); ok {
				markLive(oi)
			}
		}
	}

	// Delete dead instructions (reverse order within each block so uses
	// between dead instructions disappear before their definitions).
	deleted := 0
	for _, b := range f.Blocks {
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			inst := b.Instrs[i]
			if live.has(inst.ID()) {
				continue
			}
			// Dead instructions may still be used by other dead ones that
			// appear earlier (phis); break those edges first.
			if core.HasUses(inst) {
				core.ReplaceAllUses(inst, core.NewUndef(inst.Type()))
			}
			b.Erase(inst)
			deleted++
		}
	}
	return deleted
}

// bitset is a fixed-size set of small non-negative integers.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (s bitset) has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }
func (s bitset) add(i int)      { s[i/64] |= 1 << (i % 64) }
