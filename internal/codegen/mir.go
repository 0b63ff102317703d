// Package codegen translates IR modules to native code images for two
// synthetic targets that stand in for the paper's X86 and SPARC back-ends
// (Figure 5): CISC-86, a variable-length two-address machine with 8
// registers and memory operands, and RISC-V9, a fixed 32-bit-word
// load/store machine with 32 registers whose large constants take
// multi-instruction sequences. Lowering, phi elimination, and local
// register allocation are shared; only the binary encoders differ, so size
// comparisons reflect the instruction-set mechanics the paper measures.
//
// Phi elimination is the edge plan the tier-2 execution lowering uses too
// (edgeCopies, seqCopies): each CFG edge's phis are one parallel copy,
// sequentialized with a temp vreg that breaks swaps and placed on the
// edge. A block ending in an unconditional branch runs the copies before
// its jump; an edge out of a block with several successors that copies
// anything branches to a split block, appended after the function's
// blocks, that runs them and jumps on.
package codegen

import "fmt"

// VReg is a virtual register number (assigned densely from 0 during
// lowering, so per-function tables index by it); after register
// allocation operands carry physical register numbers.
type VReg int32

// NoReg marks an absent operand.
const NoReg VReg = -1

// MOp enumerates machine-IR operations.
type MOp uint8

// Machine-IR opcodes.
const (
	MNop      MOp = iota
	MImm          // dst <- Imm
	MMov          // dst <- src1
	MALU          // dst <- src1 op src2 (ALUOp; float if Float)
	MCmp          // dst <- (src1 cond src2) ? 1 : 0
	MLoad         // dst <- [src1 + Imm] (Size bytes)
	MStore        // [src2 + Imm] <- src1 (Size bytes)
	MLea          // dst <- address of Sym
	MFrame        // dst <- frame pointer + Imm (spill slots, allocas)
	MArg          // pass src1 as argument #Imm
	MCall         // direct call Sym; dst <- result (if any)
	MCallInd      // indirect call through src1
	MRet          // return src1 (or nothing if src1 == NoReg)
	MJmp          // jump Target
	MBr           // branch on src1: true -> Target, false -> Target2
	MEHPush       // install unwind handler Target (invoke prologue)
	MEHPop        // remove unwind handler (normal path of invoke)
	MUnwind       // unwind the stack
	MAllocaOp     // dst <- allocate src1 bytes in frame (dynamic)
)

// ALUOp distinguishes MALU operations.
type ALUOp uint8

// ALU operations (shift right has separate arithmetic/logical forms).
const (
	AAdd ALUOp = iota
	ASub
	AMul
	ADiv
	ARem
	AAnd
	AOr
	AXor
	AShl
	AShrA // arithmetic
	AShrL // logical
)

// Cond is a comparison condition.
type Cond uint8

// Comparison conditions; unsigned forms are separate so encoders can pick
// the correct condition codes.
const (
	CEq Cond = iota
	CNe
	CLt
	CGt
	CLe
	CGe
	CULt
	CUGt
	CULe
	CUGe
)

// MInstr is one machine instruction (before or after register allocation).
// Fields are ordered widest first so the struct packs into 56 bytes.
type MInstr struct {
	Imm     int64
	Sym     string
	Dst     VReg
	Src1    VReg
	Src2    VReg
	Size    int32 // memory access size in bytes
	Target  int32 // block index
	Target2 int32
	Op      MOp
	ALU     ALUOp
	Cond    Cond
	Float   bool
}

func (i MInstr) String() string {
	return fmt.Sprintf("{%d dst=%d s1=%d s2=%d imm=%d sym=%q t=%d}", i.Op, i.Dst, i.Src1, i.Src2, i.Imm, i.Sym, i.Target)
}

// MBlock is a machine basic block.
type MBlock struct {
	Instrs []MInstr
}

// MFunction is a lowered function.
type MFunction struct {
	Name      string
	Blocks    []*MBlock
	NumVRegs  int
	FrameSize int // bytes of fixed frame (allocas + spill slots)
}

// Target is a binary encoder for one machine. The encoding methods append
// to dst and return the extended slice, so a whole image is written into
// one growing buffer.
type Target interface {
	Name() string
	// NumRegs is the number of allocatable registers.
	NumRegs() int
	// Encode appends the instruction's machine-code bytes. Operands hold
	// physical register numbers after allocation.
	Encode(dst []byte, i MInstr) []byte
	// Prologue and Epilogue append the entry and exit sequences for a
	// function with the given frame size.
	Prologue(dst []byte, frameSize int) []byte
	Epilogue(dst []byte) []byte
}
