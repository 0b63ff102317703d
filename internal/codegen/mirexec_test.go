package codegen_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/codegen"
	"repro/internal/interp"
)

// mirFrameTop is the address just above the executor's frame; the frame
// is the FrameSize bytes below it.
const mirFrameTop = 1 << 32

// runMIR executes mf, before or after register allocation, on the integer
// fragment of machine IR: arguments, immediates, moves, 64-bit ALU and
// compares, branches (a switch chain's Target2 = -1 falls through to the
// next instruction), returns, and loads and stores within the frame (spill
// slots and stack cells). Anything else, a step count past maxSteps, or an
// access outside the frame is an error.
func runMIR(mf *codegen.MFunction, args []uint64, maxSteps int) (uint64, error) {
	regs := make([]uint64, max(mf.NumVRegs, 64))
	frame := make([]byte, mf.FrameSize)
	reg := func(r codegen.VReg) uint64 {
		if r == codegen.FramePtr {
			return mirFrameTop
		}
		return regs[r]
	}
	// cell is the frame bytes of a size-byte access at addr.
	cell := func(addr uint64, size int32) ([]byte, error) {
		off := addr - (mirFrameTop - uint64(len(frame)))
		if off >= uint64(len(frame)) || uint64(size) > uint64(len(frame))-off {
			return nil, fmt.Errorf("%d-byte access at frame top %+d outside the %d-byte frame", size, int64(addr-mirFrameTop), len(frame))
		}
		return frame[off : off+uint64(size)], nil
	}
	blk, pc := 0, 0
	for step := 0; step < maxSteps; step++ {
		code := mf.Blocks[blk].Instrs
		if pc >= len(code) {
			return 0, fmt.Errorf("block %d ends without a terminator", blk)
		}
		in := code[pc]
		pc++
		switch in.Op {
		case codegen.MArgIn:
			regs[in.Dst] = args[in.Imm]
		case codegen.MImm:
			regs[in.Dst] = uint64(in.Imm)
		case codegen.MMov:
			regs[in.Dst] = reg(in.Src1)
		case codegen.MFrame:
			regs[in.Dst] = mirFrameTop + uint64(in.Imm)
		case codegen.MALU:
			v, err := mirALU(in, reg(in.Src1), reg(in.Src2))
			if err != nil {
				return 0, err
			}
			regs[in.Dst] = v
		case codegen.MCmp:
			if mirCond(in.Cond, reg(in.Src1), reg(in.Src2)) {
				regs[in.Dst] = 1
			} else {
				regs[in.Dst] = 0
			}
		case codegen.MLoad:
			b, err := cell(reg(in.Src1)+uint64(in.Imm), in.Size)
			if err != nil {
				return 0, err
			}
			var word [8]byte
			copy(word[:], b)
			regs[in.Dst] = binary.LittleEndian.Uint64(word[:])
		case codegen.MStore:
			b, err := cell(reg(in.Src2)+uint64(in.Imm), in.Size)
			if err != nil {
				return 0, err
			}
			var word [8]byte
			binary.LittleEndian.PutUint64(word[:], reg(in.Src1))
			copy(b, word[:])
		case codegen.MJmp:
			blk, pc = int(in.Target), 0
		case codegen.MBr:
			if reg(in.Src1) != 0 {
				blk, pc = int(in.Target), 0
			} else if in.Target2 >= 0 {
				blk, pc = int(in.Target2), 0
			}
		case codegen.MRet:
			if in.Src1 == codegen.NoReg {
				return 0, nil
			}
			return reg(in.Src1), nil
		default:
			return 0, fmt.Errorf("op %d is outside the executor's fragment", in.Op)
		}
	}
	return 0, fmt.Errorf("no return within %d steps", maxSteps)
}

// mirALU is one integer MALU operation on 64-bit operands; division and
// remainder are signed, as the long-typed shapes need.
func mirALU(in codegen.MInstr, a, b uint64) (uint64, error) {
	if in.Float {
		return 0, fmt.Errorf("float ALU is outside the executor's fragment")
	}
	switch in.ALU {
	case codegen.AAdd:
		return a + b, nil
	case codegen.ASub:
		return a - b, nil
	case codegen.AMul:
		return a * b, nil
	case codegen.ADiv, codegen.ARem:
		if b == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		if in.ALU == codegen.ADiv {
			return uint64(int64(a) / int64(b)), nil
		}
		return uint64(int64(a) % int64(b)), nil
	case codegen.AAnd:
		return a & b, nil
	case codegen.AOr:
		return a | b, nil
	case codegen.AXor:
		return a ^ b, nil
	case codegen.AShl:
		return a << (b & 63), nil
	case codegen.AShrA:
		return uint64(int64(a) >> (b & 63)), nil
	case codegen.AShrL:
		return a >> (b & 63), nil
	}
	return 0, fmt.Errorf("ALU op %d is outside the executor's fragment", in.ALU)
}

func mirCond(c codegen.Cond, a, b uint64) bool {
	switch c {
	case codegen.CEq:
		return a == b
	case codegen.CNe:
		return a != b
	case codegen.CLt:
		return int64(a) < int64(b)
	case codegen.CGt:
		return int64(a) > int64(b)
	case codegen.CLe:
		return int64(a) <= int64(b)
	case codegen.CGe:
		return int64(a) >= int64(b)
	case codegen.CULt:
		return a < b
	case codegen.CUGt:
		return a > b
	case codegen.CULe:
		return a <= b
	}
	return a >= b
}

// TestMIRMatchesTierZero runs each edge shape's machine IR before register
// allocation and after allocation with 4, 8 and 32 registers, and holds
// its result to tier 0's on the same argument. A wrong φ elimination shows
// here as a wrong value or a loop that never exits.
func TestMIRMatchesTierZero(t *testing.T) {
	m := parseShapes(t)
	for _, name := range []string{"swap", "rotated", "chain", "shift", "switchswap", "lonely", "cell"} {
		f := m.Func(name)
		for _, n := range []uint64{1, 2, 7} {
			mc, err := interp.NewMachine(m, nil)
			if err != nil {
				t.Fatal(err)
			}
			mc.SetTier(interp.TierInterp)
			want, err := mc.RunFunction(f, n)
			if err != nil {
				t.Fatalf("%s(%d) at tier 0: %v", name, n, err)
			}
			for _, k := range []int{0, 4, 8, 32} {
				mf := codegen.LowerFunction(f)
				what := "before allocation"
				if k > 0 {
					codegen.Allocate(mf, k)
					what = fmt.Sprintf("with %d registers", k)
				}
				got, err := runMIR(mf, []uint64{n}, 10000)
				if err != nil || got != want {
					t.Errorf("%s(%d) %s: MIR returns %d (%v), tier 0 returns %d", name, n, what, int64(got), err, int64(want))
				}
			}
		}
	}
}
