package codegen

import (
	"slices"

	"repro/internal/core"
)

// Local (per-block) register allocation with LRU eviction. Every virtual
// register owns an 8-byte frame slot assigned lazily; values live in
// physical registers inside a block and are flushed to their slots at block
// boundaries and around calls (a caller-saved world). Fewer physical
// registers therefore cost extra spill loads and stores — the mechanism
// that differentiates the 8-register CISC target from the 32-register RISC
// target in code size.

// Allocate rewrites mf in place, replacing virtual register numbers with
// physical ones (0..K-1) and inserting spill code. It updates FrameSize.
func Allocate(mf *MFunction, numRegs int) {
	new(allocator).run(mf, numRegs)
}

// allocator holds the allocation state of one function. Per-vreg tables
// are slices indexed by the dense vreg number; run resets them for each
// function, keeping their capacity, so a reused allocator allocates only
// when a function is larger than any before it.
type allocator struct {
	mf       *MFunction
	k        int
	frameOff int
	slot     []int   // vreg -> frame offset (negative); 0 until assigned
	uses     []int32 // remaining use count per vreg
	local    []bool  // all uses in the defining block
	defBlock []int32 // vreg -> block of its last definition; -1 if none
	inReg    []int32 // vreg -> physical reg; -1 if not resident

	// Per-block state, indexed by physical register.
	regVal  []VReg // vreg held (NoReg if free)
	dirty   []bool
	lastUse []int64
	pinned  []bool // read by the current instruction: not evictable
	noPins  []bool // all false
	clock   int64

	out  []MInstr // allocated code of the whole function, block after block
	ends []int    // end of each block's run in out
}

// grow returns s with length n, reusing s's storage when it is large
// enough; the elements are left as they were.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// resize returns s with length n and every element set to v.
func resize[T any](s []T, n int, v T) []T {
	s = grow(s, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func (a *allocator) run(mf *MFunction, numRegs int) {
	n := mf.NumVRegs
	a.mf, a.k, a.frameOff, a.clock = mf, numRegs, 0, 0
	a.slot = resize(a.slot, n, 0)
	a.uses = resize(a.uses, n, 0)
	a.local = resize(a.local, n, false)
	a.defBlock = resize(a.defBlock, n, -1)
	a.inReg = resize(a.inReg, n, -1)
	a.regVal = resize(a.regVal, numRegs, NoReg)
	a.dirty = resize(a.dirty, numRegs, false)
	a.lastUse = resize(a.lastUse, numRegs, 0)
	a.pinned = resize(a.pinned, numRegs, false)
	a.noPins = resize(a.noPins, numRegs, false)

	// Use counts and block-locality: a dirty register holding a purely
	// block-local value (all uses in its defining block) with no remaining
	// uses never needs to be spilled. Values visible to other blocks must
	// always reach their slot (they may be re-read around the loop), and
	// so must a φ's vreg, which each incoming edge defines in its own
	// block: the next def is not where it is read.
	for bi, b := range mf.Blocks {
		for _, in := range b.Instrs {
			if definesDst(in.Op) && in.Dst != NoReg {
				d := a.defBlock[in.Dst]
				a.local[in.Dst] = d == -1 || (d == int32(bi) && a.local[in.Dst])
				a.defBlock[in.Dst] = int32(bi)
			}
		}
	}
	for bi, b := range mf.Blocks {
		for _, in := range b.Instrs {
			if usesSrc1(in.Op) && in.Src1 != NoReg && in.Src1 != framePtr {
				a.note(in.Src1, bi)
			}
			if usesSrc2(in.Op) && in.Src2 != NoReg {
				a.note(in.Src2, bi)
			}
		}
	}
	// Spill code grows a function by under half on the workload suite.
	n = 0
	for _, b := range mf.Blocks {
		n += len(b.Instrs)
	}
	a.out = slices.Grow(a.out[:0], n+n/2)
	a.ends = a.ends[:0]
	for _, b := range mf.Blocks {
		a.runBlock(b)
		a.ends = append(a.ends, len(a.out))
	}
	setRuns(mf.Blocks, a.out, a.ends)
	mf.FrameSize += a.frameOff
}

// note counts a use of v in block bi.
func (a *allocator) note(v VReg, bi int) {
	a.uses[v]++
	if a.defBlock[v] != int32(bi) {
		a.local[v] = false
	}
}

func (a *allocator) slotOf(v VReg) int {
	if off := a.slot[v]; off != 0 {
		return off
	}
	a.frameOff = align8(a.frameOff) + 8
	// Spill slots sit below the fixed frame allocated during lowering.
	off := -(a.mf.FrameSize + a.frameOff)
	a.slot[v] = off
	return off
}

func (a *allocator) resetBlock() {
	for p, v := range a.regVal {
		if v != NoReg {
			a.inReg[v] = -1
			a.regVal[p] = NoReg
		}
	}
	clear(a.dirty)
	clear(a.lastUse)
}

// touch refreshes the LRU stamp.
func (a *allocator) touch(phys int) {
	a.clock++
	a.lastUse[phys] = a.clock
}

// evict frees one physical register not in except, spilling if dirty.
func (a *allocator) evict(except []bool) int {
	best, bestT := -1, int64(1<<62)
	for p := 0; p < a.k; p++ {
		if except[p] {
			continue
		}
		if a.regVal[p] == NoReg {
			return p
		}
		if a.lastUse[p] < bestT {
			best, bestT = p, a.lastUse[p]
		}
	}
	a.spill(best)
	return best
}

func (a *allocator) spill(p int) {
	v := a.regVal[p]
	if v != NoReg {
		if a.dirty[p] && (a.uses[v] > 0 || !a.local[v]) {
			a.out = append(a.out, MInstr{Op: MStore, Src1: VReg(p), Src2: framePtr, Imm: int64(a.slotOf(v)), Size: 8})
		}
		a.inReg[v] = -1
		a.regVal[p] = NoReg
		a.dirty[p] = false
	}
}

// framePtr is a pseudo register operand meaning "the frame pointer"; the
// encoders special-case it.
const framePtr VReg = -2

// use brings a vreg into a physical register (loading from its slot if it
// is not resident) and returns the physical number.
func (a *allocator) use(v VReg, except []bool) int {
	if p := a.inReg[v]; p >= 0 {
		a.touch(int(p))
		return int(p)
	}
	p := a.evict(except)
	a.out = append(a.out, MInstr{Op: MLoad, Dst: VReg(p), Src1: framePtr, Imm: int64(a.slotOf(v)), Size: 8})
	a.regVal[p] = v
	a.inReg[v] = int32(p)
	a.dirty[p] = false
	a.touch(p)
	return p
}

// def allocates a physical register for a fresh definition.
func (a *allocator) def(v VReg, except []bool) int {
	if p := a.inReg[v]; p >= 0 {
		a.dirty[p] = true
		a.touch(int(p))
		return int(p)
	}
	p := a.evict(except)
	a.regVal[p] = v
	a.inReg[v] = int32(p)
	a.dirty[p] = true
	a.touch(p)
	return p
}

// flushAll spills every dirty register (block boundaries, calls).
func (a *allocator) flushAll() {
	for p := 0; p < a.k; p++ {
		a.spill(p)
	}
}

func isTerminatorM(op MOp) bool {
	switch op {
	case MJmp, MBr, MRet, MUnwind:
		return true
	}
	return false
}

// runBlock appends b's allocated instructions to out.
func (a *allocator) runBlock(b *MBlock) {
	a.resetBlock()
	for _, in := range b.Instrs {
		a.step(in)
		clear(a.pinned)
	}
	// Blocks that end without an explicit terminator (cannot happen for
	// verified IR) would still flush here.
}

// step allocates one instruction, appending it and its spill code to out.
func (a *allocator) step(in MInstr) {
	ni := in

	// Sources first.
	if in.Src1 != NoReg && in.Src1 != framePtr && usesSrc1(in.Op) {
		p := a.use(in.Src1, a.pinned)
		a.pinned[p] = true
		ni.Src1 = VReg(p)
		a.uses[in.Src1]--
	}
	if in.Src2 != NoReg && usesSrc2(in.Op) {
		p := a.use(in.Src2, a.pinned)
		a.pinned[p] = true
		ni.Src2 = VReg(p)
		a.uses[in.Src2]--
	}

	// Calls clobber everything: flush before, so live values survive
	// in their slots; the result is defined after.
	if in.Op == MCall || in.Op == MCallInd {
		a.flushAll()
		// Re-pin the indirect callee (flushed above): reload.
		if in.Op == MCallInd {
			p := a.use(in.Src1, a.noPins)
			ni.Src1 = VReg(p)
		}
	}

	// Terminators end the block: flush dirty registers first so other
	// blocks can reload from slots.
	if isTerminatorM(in.Op) {
		// Keep the branch condition / return value register pinned.
		keep := -1
		if ni.Src1 != NoReg && usesSrc1(in.Op) {
			keep = int(ni.Src1)
		}
		for p := 0; p < a.k; p++ {
			if p != keep {
				a.spill(p)
			}
		}
		a.out = append(a.out, ni)
		return
	}

	// Destination.
	if in.Dst != NoReg && definesDst(in.Op) {
		p := a.def(in.Dst, a.pinned)
		ni.Dst = VReg(p)
	}
	a.out = append(a.out, ni)
}

// --- Dense register assignment for the tier-2 execution engine ---
//
// assignExecRegs maps a function's SSA values onto a dense word frame for
// the flat tier-2 form (execlower.go), applying the same block-locality
// discipline Allocate uses above: a value whose uses all sit after its
// definition in the defining block is "local" and can share a scratch
// register that is recycled at its last use; everything visible across
// blocks (including every φ, whose writes happen on predecessor edges,
// and every φ-incoming, which is read on an edge after the source block's
// scratch pool has been recycled) gets a dedicated register. The layout
// is [args | dedicated | scratch] with the scratch high-water mark shared
// across blocks.

type execFrame struct {
	reg     map[core.Value]int32
	numArgs int32
	numVals int32 // args + dedicated + scratch watermark
}

func assignExecRegs(f *core.Function) *execFrame {
	fr := &execFrame{reg: map[core.Value]int32{}}
	next := int32(0)
	for _, a := range f.Args {
		fr.reg[a] = next
		next++
	}
	fr.numArgs = next

	// Classify each value-producing instruction. Demote to non-local on:
	// φ (edge-written), φ-incoming (edge-read), any use in another block,
	// or a use at/before the definition point (unverified SSA must read
	// a zeroed dedicated register, like the interpreter's absent-entry 0).
	defBlock := map[core.Value]int{}
	defPos := map[core.Value]int{}
	local := map[core.Value]bool{}
	lastUse := map[core.Value]int{}
	for bi, b := range f.Blocks {
		for ii, inst := range b.Instrs {
			if inst.Type() == core.VoidType {
				continue
			}
			defBlock[inst] = bi
			defPos[inst] = ii
			_, isPhi := inst.(*core.PhiInst)
			local[inst] = !isPhi
		}
	}
	for bi, b := range f.Blocks {
		for ii, inst := range b.Instrs {
			if phi, ok := inst.(*core.PhiInst); ok {
				for n := 0; n < phi.NumIncoming(); n++ {
					v, _ := phi.Incoming(n)
					if _, def := defBlock[v]; def {
						local[v] = false
					}
				}
				continue
			}
			for _, op := range inst.Operands() {
				if _, isBlock := op.(*core.BasicBlock); isBlock {
					continue
				}
				if _, def := defBlock[op]; !def {
					continue // arguments and constants
				}
				if defBlock[op] != bi || ii <= defPos[op] {
					local[op] = false
				} else if ii > lastUse[op] {
					lastUse[op] = ii
				}
			}
		}
	}

	// Dedicated registers for cross-block values, in layout order.
	for _, b := range f.Blocks {
		for _, inst := range b.Instrs {
			if inst.Type() == core.VoidType {
				continue
			}
			if !local[inst] {
				fr.reg[inst] = next
				next++
			}
		}
	}

	// Scratch pool: per block, recycle a local's register at its last use
	// (safe because every executor op reads its operands before writing
	// its destination). LIFO free list keeps the assignment deterministic.
	scratchBase := next
	high := scratchBase
	for _, b := range f.Blocks {
		var free []int32
		nextScratch := scratchBase
		released := map[core.Value]bool{}
		for ii, inst := range b.Instrs {
			if _, isPhi := inst.(*core.PhiInst); isPhi {
				continue
			}
			for _, op := range inst.Operands() {
				if local[op] && lastUse[op] == ii && !released[op] {
					released[op] = true
					free = append(free, fr.reg[op])
				}
			}
			if inst.Type() != core.VoidType && local[inst] {
				var r int32
				if n := len(free); n > 0 {
					r = free[n-1]
					free = free[:n-1]
				} else {
					r = nextScratch
					nextScratch++
				}
				fr.reg[inst] = r
			}
		}
		if nextScratch > high {
			high = nextScratch
		}
	}
	fr.numVals = high
	return fr
}

func usesSrc1(op MOp) bool {
	switch op {
	case MMov, MALU, MCmp, MLoad, MStore, MArg, MCallInd, MRet, MBr, MAllocaOp:
		return true
	}
	return false
}

func usesSrc2(op MOp) bool {
	switch op {
	case MALU, MCmp, MStore:
		return true
	}
	return false
}

func definesDst(op MOp) bool {
	switch op {
	case MImm, MMov, MALU, MCmp, MLoad, MLea, MFrame, MCall, MCallInd, MAllocaOp, MArgIn:
		return true
	}
	return false
}
