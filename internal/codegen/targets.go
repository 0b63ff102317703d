package codegen

// The two binary encoders. Byte patterns are synthetic but the *lengths*
// follow the real machines' encoding rules, which is what the Figure 5
// size comparison exercises:
//
//   CISC-86 — variable-length: 1-byte stack ops, 2-byte reg-reg ALU,
//   1/4-byte immediates and displacements chosen by value, 2/5-byte
//   branches, memory operands. 8 allocatable registers.
//
//   RISC-V9 — every instruction is exactly 4 bytes; immediates beyond 13
//   bits need a sethi+or pair, 64-bit constants up to 6 instructions;
//   branches and calls carry a delay slot. 32 allocatable registers.

// Cisc86 is the x86-flavoured target.
type Cisc86 struct{}

// Name returns "CISC-86".
func (Cisc86) Name() string { return "CISC-86" }

// NumRegs returns 8.
func (Cisc86) NumRegs() int { return 8 }

func fitsInt8(v int64) bool  { return v >= -128 && v <= 127 }
func fitsInt32(v int64) bool { return v >= -(1<<31) && v < 1<<31 }

// emitBytes appends n fabricated bytes led by an identifying opcode byte.
func emitBytes(dst []byte, op byte, n int) []byte {
	dst = append(dst, op)
	for i := 1; i < n; i++ {
		dst = append(dst, byte(i*37))
	}
	return dst
}

// Encode implements Target.
func (Cisc86) Encode(dst []byte, i MInstr) []byte {
	switch i.Op {
	case MNop:
		return emitBytes(dst, 0x90, 1)
	case MImm:
		switch {
		case i.Imm == 0:
			return emitBytes(dst, 0x31, 2) // xor r,r
		case fitsInt8(i.Imm):
			return emitBytes(dst, 0x6A, 3)
		case fitsInt32(i.Imm):
			return emitBytes(dst, 0xB8, 5)
		default:
			return emitBytes(dst, 0x48, 10) // movabs
		}
	case MMov:
		if i.Float {
			return emitBytes(dst, 0xF2, 4) // cvt/movsd
		}
		return emitBytes(dst, 0x89, 2)
	case MALU:
		switch {
		case i.Float:
			return emitBytes(dst, 0xF3, 4) // SSE op
		case i.ALU == ADiv || i.ALU == ARem:
			return emitBytes(dst, 0xF7, 3) // cdq+idiv flavour
		case i.ALU == AMul:
			return emitBytes(dst, 0x0F, 3) // imul r,r
		default:
			return emitBytes(dst, 0x01, 2)
		}
	case MCmp:
		if i.Float {
			return emitBytes(dst, 0x2E, 4+3) // ucomisd + setcc
		}
		return emitBytes(dst, 0x39, 2+3) // cmp r,r + setcc
	case MLoad:
		if disp := i.Imm; disp == 0 {
			return emitBytes(dst, 0x8B, 2)
		} else if fitsInt8(disp) {
			return emitBytes(dst, 0x8B, 3)
		}
		return emitBytes(dst, 0x8B, 6)
	case MStore:
		if disp := i.Imm; disp == 0 {
			return emitBytes(dst, 0x88, 2)
		} else if fitsInt8(disp) {
			return emitBytes(dst, 0x88, 3)
		}
		return emitBytes(dst, 0x88, 6)
	case MLea:
		return emitBytes(dst, 0x8D, 5) // lea r, [sym]
	case MFrame:
		if fitsInt8(i.Imm) {
			return emitBytes(dst, 0x8D, 3) // lea r, [bp+disp8]
		}
		return emitBytes(dst, 0x8D, 6)
	case MArg:
		return emitBytes(dst, 0x50, 1) // push r
	case MArgIn:
		if fitsInt8(8 * (i.Imm + 2)) {
			return emitBytes(dst, 0x8B, 3) // mov r, [bp+disp8]
		}
		return emitBytes(dst, 0x8B, 6)
	case MCall:
		return emitBytes(dst, 0xE8, 5) // call rel32
	case MCallInd:
		return emitBytes(dst, 0xFF, 2)
	case MRet:
		return emitBytes(dst, 0xC3, 1)
	case MJmp:
		return emitBytes(dst, 0xEB, 2) // rel8 (small functions dominate)
	case MBr:
		if i.Target2 < 0 {
			return emitBytes(dst, 0x74, 3) // test+jcc fallthrough form
		}
		return emitBytes(dst, 0x74, 3+2) // test+jcc, jmp
	case MEHPush:
		return emitBytes(dst, 0x68, 5+1) // push handler, push
	case MEHPop:
		return emitBytes(dst, 0x58, 2)
	case MUnwind:
		return emitBytes(dst, 0xE8, 5) // call __unwind
	case MAllocaOp:
		return emitBytes(dst, 0x29, 2+2) // sub sp, r; mov r, sp
	}
	return emitBytes(dst, 0x90, 1)
}

// Prologue implements Target (push bp; mov bp,sp; sub sp,frame).
func (Cisc86) Prologue(dst []byte, frameSize int) []byte {
	if frameSize == 0 {
		return emitBytes(dst, 0x55, 1+2)
	}
	if fitsInt8(int64(frameSize)) {
		return emitBytes(dst, 0x55, 1+2+3)
	}
	return emitBytes(dst, 0x55, 1+2+6)
}

// Epilogue implements Target (leave; ret).
func (Cisc86) Epilogue(dst []byte) []byte { return emitBytes(dst, 0xC9, 2) }

// RiscV9 is the SPARC-flavoured target.
type RiscV9 struct{}

// Name returns "RISC-V9".
func (RiscV9) Name() string { return "RISC-V9" }

// NumRegs returns 32.
func (RiscV9) NumRegs() int { return 32 }

// words appends n 4-byte instructions.
func words(dst []byte, op byte, n int) []byte {
	for i := 0; i < n; i++ {
		dst = append(dst, op, byte(i), 0, 0)
	}
	return dst
}

func fits13(v int64) bool { return v >= -4096 && v <= 4095 }

// immWords counts the instructions to materialize an integer constant:
// 1 (13-bit), 2 (sethi+or, 32-bit), or 6 (full 64-bit pattern).
func immWords(v int64) int {
	switch {
	case fits13(v):
		return 1
	case fitsInt32(v):
		return 2
	default:
		return 6
	}
}

// Encode implements Target.
func (RiscV9) Encode(dst []byte, i MInstr) []byte {
	switch i.Op {
	case MNop:
		return words(dst, 0x01, 1)
	case MImm:
		return words(dst, 0x10, immWords(i.Imm))
	case MMov:
		return words(dst, 0x11, 1)
	case MALU:
		if i.ALU == ADiv || i.ALU == ARem {
			return words(dst, 0x12, 2) // wr %y + div
		}
		return words(dst, 0x12, 1)
	case MCmp:
		return words(dst, 0x13, 2) // subcc + conditional move
	case MLoad:
		if fits13(i.Imm) {
			return words(dst, 0x14, 1)
		}
		return words(dst, 0x14, 3) // sethi+or+ld
	case MStore:
		if fits13(i.Imm) {
			return words(dst, 0x15, 1)
		}
		return words(dst, 0x15, 3)
	case MLea:
		return words(dst, 0x16, 2) // sethi+or
	case MFrame:
		if fits13(i.Imm) {
			return words(dst, 0x17, 1)
		}
		return words(dst, 0x17, 3)
	case MArg:
		return words(dst, 0x18, 1) // mov to %oN
	case MArgIn:
		return words(dst, 0x19, 1) // mov from %iN
	case MCall:
		return words(dst, 0x1A, 2) // call + delay slot
	case MCallInd:
		return words(dst, 0x1B, 2) // jmpl + delay slot
	case MRet:
		return words(dst, 0x1C, 2) // ret + restore
	case MJmp:
		return words(dst, 0x1D, 2) // ba + delay slot
	case MBr:
		if i.Target2 < 0 {
			return words(dst, 0x1E, 2)
		}
		return words(dst, 0x1E, 3) // bcc + delay, ba
	case MEHPush:
		return words(dst, 0x1F, 3)
	case MEHPop:
		return words(dst, 0x20, 1)
	case MUnwind:
		return words(dst, 0x21, 2)
	case MAllocaOp:
		return words(dst, 0x22, 2)
	}
	return words(dst, 0x01, 1)
}

// Prologue implements Target ("save %sp, -frame, %sp", possibly with a
// sethi pair for large frames).
func (RiscV9) Prologue(dst []byte, frameSize int) []byte {
	if fits13(int64(frameSize)) {
		return words(dst, 0x30, 1)
	}
	return words(dst, 0x30, 3)
}

// Epilogue implements Target (folded into ret+restore; nothing extra).
func (RiscV9) Epilogue(dst []byte) []byte { return dst }
