package codegen

import (
	"testing"
	"unsafe"

	"repro/internal/asm"
	"repro/internal/bytecode"
	"repro/internal/core"
)

func parse(t *testing.T, src string) *core.Module {
	t.Helper()
	m, err := asm.ParseModule("t", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := core.Verify(m); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return m
}

const loopSrc = `
int %sum(int %n) {
entry:
	br label %loop
loop:
	%i = phi int [ 0, %entry ], [ %i2, %loop ]
	%s = phi int [ 0, %entry ], [ %s2, %loop ]
	%s2 = add int %s, %i
	%i2 = add int %i, 1
	%c = setlt int %i2, %n
	br bool %c, label %loop, label %exit
exit:
	ret int %s2
}
`

func TestLowering(t *testing.T) {
	m := parse(t, loopSrc)
	mf := LowerFunction(m.Func("sum"))
	// entry, loop and exit, then the split back edge: the loop ends in a
	// conditional branch, so the copies into its phis get a block of
	// their own.
	if len(mf.Blocks) != 4 {
		t.Fatalf("block count = %d", len(mf.Blocks))
	}
	var movs, alus int
	for _, b := range mf.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case MMov:
				movs++
			case MALU:
				alus++
			}
		}
	}
	if alus != 2 {
		t.Errorf("ALU ops = %d, want 2 adds", alus)
	}
	if movs < 4 {
		t.Errorf("phi copies = %d, want >= 4 (2 phis x 2 preds)", movs)
	}
}

func TestMInstrSize(t *testing.T) {
	if got := unsafe.Sizeof(MInstr{}); got != 56 {
		t.Fatalf("MInstr is %d bytes, want 56", got)
	}
}

func TestRegallocKeepsOperandsInRange(t *testing.T) {
	m := parse(t, loopSrc)
	for _, k := range []int{4, 8, 32} {
		mf := LowerFunction(m.Func("sum"))
		Allocate(mf, k)
		for _, b := range mf.Blocks {
			for _, in := range b.Instrs {
				check := func(r VReg, what string) {
					if r == NoReg || r == framePtr {
						return
					}
					if int(r) < 0 || int(r) >= k {
						t.Fatalf("k=%d: %s register %d out of range in %v", k, what, r, in)
					}
				}
				if definesDst(in.Op) && in.Dst != NoReg {
					check(in.Dst, "dst")
				}
				if usesSrc1(in.Op) {
					check(in.Src1, "src1")
				}
				if usesSrc2(in.Op) {
					check(in.Src2, "src2")
				}
			}
		}
	}
}

func TestFewerRegistersMoreSpills(t *testing.T) {
	// A function with many simultaneously-live values: with 4 registers
	// there must be more memory traffic than with 32.
	src := `
int %busy(int %a, int %b, int %c, int %d, int %e, int %f) {
entry:
	%t1 = add int %a, %b
	%t2 = add int %c, %d
	%t3 = add int %e, %f
	%t4 = mul int %t1, %t2
	%t5 = mul int %t3, %t1
	%t6 = add int %t4, %t5
	%t7 = mul int %t6, %t2
	%t8 = add int %t7, %t3
	ret int %t8
}
`
	busy, loop := parse(t, src).Func("busy"), parse(t, loopSrc).Func("sum")
	// traffic counts reloads (loads from a frame slot) and spill stores
	// (stores to a frame slot) separately.
	traffic := func(f *core.Function, k int) (reloads, stores int) {
		mf := LowerFunction(f)
		Allocate(mf, k)
		for _, b := range mf.Blocks {
			for _, in := range b.Instrs {
				switch {
				case in.Op == MLoad && in.Src1 == framePtr:
					reloads++
				case in.Op == MStore && in.Src2 == framePtr:
					stores++
				}
			}
		}
		return reloads, stores
	}
	// Exact counts pin the allocator's spill decisions, not just their
	// direction. The loop's phis and loop-carried values cross blocks, so
	// they reach their slots whatever k is: the split back edge reloads
	// %i2 and %s2 and stores %i and %s.
	for _, c := range []struct {
		f               *core.Function
		k               int
		reloads, stores int
	}{
		{busy, 4, 10, 9}, {busy, 8, 0, 0}, {busy, 32, 0, 0},
		{loop, 4, 6, 7}, {loop, 8, 6, 7}, {loop, 32, 6, 7},
	} {
		r, s := traffic(c.f, c.k)
		t.Logf("%s k=%d: %d reloads, %d spill stores", c.f.Name(), c.k, r, s)
		if r != c.reloads || s != c.stores {
			t.Errorf("%s k=%d: %d reloads, %d spill stores; want %d, %d", c.f.Name(), c.k, r, s, c.reloads, c.stores)
		}
	}
	r4, s4 := traffic(busy, 4)
	r32, s32 := traffic(busy, 32)
	if r4+s4 <= r32+s32 {
		t.Fatalf("memory traffic: k=4 -> %d, k=32 -> %d; expected more with fewer registers", r4+s4, r32+s32)
	}
}

func TestEncodersProduceBytes(t *testing.T) {
	m := parse(t, loopSrc)
	for _, tgt := range []Target{Cisc86{}, RiscV9{}} {
		code := CompileFunction(m.Func("sum"), tgt)
		if len(code) == 0 {
			t.Fatalf("%s produced no code", tgt.Name())
		}
		if tgt.Name() == "RISC-V9" && len(code)%4 != 0 {
			t.Fatalf("RISC code not word-aligned: %d bytes", len(code))
		}
	}
}

func TestFigure5SizeOrdering(t *testing.T) {
	// The Figure 5 claim: LLVM bytecode is comparable to CISC code and
	// roughly 25% smaller than RISC code. Check the ordering and rough
	// ratios on a mid-sized program.
	src := `
%rec = type { int, double, [8 x sbyte], %rec* }

internal int %hash(sbyte* %s, int %len) {
entry:
	br label %loop
loop:
	%i = phi int [ 0, %entry ], [ %i2, %body ]
	%h = phi int [ 5381, %entry ], [ %h3, %body ]
	%c = setlt int %i, %len
	br bool %c, label %body, label %done
body:
	%il = cast int %i to long
	%p = getelementptr sbyte* %s, long %il
	%ch = load sbyte* %p
	%chi = cast sbyte %ch to int
	%h2 = mul int %h, 33
	%h3 = add int %h2, %chi
	%i2 = add int %i, 1
	br label %loop
done:
	ret int %h
}

internal %rec* %build(int %n) {
entry:
	%r = malloc %rec
	%f0 = getelementptr %rec* %r, long 0, ubyte 0
	store int %n, int* %f0
	%f1 = getelementptr %rec* %r, long 0, ubyte 1
	store double 3.25, double* %f1
	%f3 = getelementptr %rec* %r, long 0, ubyte 3
	store %rec* null, %rec** %f3
	ret %rec* %r
}

int %main() {
entry:
	%r = call %rec* %build(int 7)
	%f0 = getelementptr %rec* %r, long 0, ubyte 0
	%v = load int* %f0
	%buf = getelementptr %rec* %r, long 0, ubyte 2, long 0
	%h = call int %hash(sbyte* %buf, int 8)
	%s = add int %v, %h
	free %rec* %r
	ret int %s
}
`
	m := parse(t, src)
	enc, err := bytecode.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	bc := len(enc)
	x86 := CompileModule(m, Cisc86{}).Size()
	sparc := CompileModule(m, RiscV9{}).Size()

	if sparc <= x86 {
		t.Errorf("RISC image (%d) should exceed CISC image (%d)", sparc, x86)
	}
	if bc >= sparc {
		t.Errorf("bytecode (%d) should be smaller than RISC (%d)", bc, sparc)
	}
	// Bytecode comparable to CISC: within a factor of two either way.
	if bc > 2*x86 || x86 > 2*bc {
		t.Errorf("bytecode (%d) not comparable to CISC (%d)", bc, x86)
	}
	t.Logf("sizes: LLVM=%d CISC-86=%d RISC-V9=%d", bc, x86, sparc)
}

func TestCompileModuleImage(t *testing.T) {
	m := parse(t, `
%g = global int 7
%tab = constant [2 x int] [ int 1, int 2 ]
declare void %external()

void %main() {
entry:
	call void %external()
	ret void
}
`)
	im := CompileModule(m, Cisc86{})
	if len(im.Data) != 12 {
		t.Errorf("data size = %d, want 12", len(im.Data))
	}
	if im.Data[0] != 7 || im.Data[4] != 1 || im.Data[8] != 2 {
		t.Errorf("data bytes wrong: %v", im.Data[:12])
	}
	if im.FuncSizes["main"] == 0 {
		t.Error("main has no code")
	}
	if im.Size() <= len(im.Code)+len(im.Data) {
		t.Error("image overhead missing")
	}
	if len(im.Bytes()) != imageHeaderSize+len(im.Code)+len(im.Data) {
		t.Error("Bytes() length mismatch")
	}
}

func TestInvokeUnwindLowering(t *testing.T) {
	m := parse(t, `
declare void %may()

void %main() {
entry:
	invoke void %may() to label %ok unwind to label %ex
ok:
	ret void
ex:
	unwind
}
`)
	mf := LowerFunction(m.Func("main"))
	var push, pop, uw int
	for _, b := range mf.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case MEHPush:
				push++
			case MEHPop:
				pop++
			case MUnwind:
				uw++
			}
		}
	}
	if push != 1 || pop != 1 || uw != 1 {
		t.Fatalf("EH lowering: push=%d pop=%d unwind=%d", push, pop, uw)
	}
}

func TestSwitchLowering(t *testing.T) {
	m := parse(t, `
int %main(int %x) {
entry:
	switch int %x, label %d [
		int 1, label %a
		int 2, label %b ]
a:
	ret int 1
b:
	ret int 2
d:
	ret int 3
}
`)
	mf := LowerFunction(m.Func("main"))
	cmps := 0
	for _, in := range mf.Blocks[0].Instrs {
		if in.Op == MCmp {
			cmps++
		}
	}
	if cmps != 2 {
		t.Fatalf("switch chain has %d compares, want 2", cmps)
	}
}
