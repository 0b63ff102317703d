package interp

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
)

// sandboxMachine parses src and returns a machine, failing the test on any
// front-end error.
func sandboxMachine(t *testing.T, src string) *Machine {
	t.Helper()
	m, err := asm.ParseModule("sandbox", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mc, err := NewMachine(m, nil)
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	return mc
}

// checkReusable asserts the machine still executes correctly after a trap.
func checkReusable(t *testing.T, mc *Machine, fn string, want uint64) {
	t.Helper()
	v, err := mc.RunFunction(mc.Mod.Func(fn), 0)
	if err != nil {
		t.Fatalf("machine not reusable after trap: %v", err)
	}
	if v != want {
		t.Fatalf("machine reusable but wrong result: got %d, want %d", v, want)
	}
}

const spinSrc = `
int %main() {
entry:
	br label %loop
loop:
	br label %loop
}

int %ok(int %x) {
entry:
	%r = add int %x, 7
	ret int %r
}
`

func TestHeapLimitMalloc(t *testing.T) {
	mc := sandboxMachine(t, `
int %main() {
entry:
	%p = malloc [100000 x int]
	free [100000 x int]* %p
	ret int 0
}

int %ok(int %x) {
entry:
	%r = add int %x, 7
	ret int %r
}
`)
	mc.MaxHeapBytes = 4096
	_, err := mc.RunFunction(mc.Mod.Func("main"))
	if !errors.Is(err, ErrHeapLimit) {
		t.Fatalf("want ErrHeapLimit, got %v", err)
	}
	var trap *Trap
	if !errors.As(err, &trap) {
		t.Fatalf("want *Trap, got %T: %v", err, err)
	}
	if trap.Fn != "main" || trap.Inst == "" {
		t.Fatalf("trap position missing: %+v", trap)
	}
	checkReusable(t, mc, "ok", 7)
}

func TestHeapLimitVariableCount(t *testing.T) {
	mc := sandboxMachine(t, `
int %main() {
entry:
	%n = cast int -1 to uint
	%p = malloc int, uint %n
	%v = load int* %p
	ret int %v
}

int %ok(int %x) {
entry:
	%r = add int %x, 7
	ret int %r
}
`)
	// 2^32-1 elements * 4 bytes exceeds the default 1 GiB arena cap; the
	// multiplication itself must also be overflow-checked.
	_, err := mc.RunFunction(mc.Mod.Func("main"))
	if !errors.Is(err, ErrHeapLimit) {
		t.Fatalf("want ErrHeapLimit, got %v", err)
	}
	checkReusable(t, mc, "ok", 7)
}

func TestHeapLimitGlobals(t *testing.T) {
	m, err := asm.ParseModule("sandbox", `
%huge = global [400000000 x int] zeroinitializer
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	// 400M ints = 1.6 GB of global data: must be rejected at machine
	// construction, not by a multi-gigabyte allocation.
	if _, err := NewMachine(m, nil); !errors.Is(err, ErrHeapLimit) {
		t.Fatalf("want ErrHeapLimit from NewMachine, got %v", err)
	}
}

func TestMaxStepsTrapIsTyped(t *testing.T) {
	mc := sandboxMachine(t, spinSrc)
	mc.MaxSteps = 500
	_, err := mc.RunFunction(mc.Mod.Func("main"))
	if !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("want ErrMaxSteps, got %v", err)
	}
	var trap *Trap
	if !errors.As(err, &trap) || trap.Fn != "main" || trap.Block != "loop" {
		t.Fatalf("bad trap position: %v", err)
	}
	mc.Steps = 0
	checkReusable(t, mc, "ok", 7)
}

func TestMaxDepthTrap(t *testing.T) {
	mc := sandboxMachine(t, `
int %main() {
entry:
	%r = call int %main()
	ret int %r
}

int %ok(int %x) {
entry:
	%r = add int %x, 7
	ret int %r
}
`)
	mc.MaxDepth = 64
	_, err := mc.RunFunction(mc.Mod.Func("main"))
	if !errors.Is(err, ErrStackOverflow) {
		t.Fatalf("want ErrStackOverflow, got %v", err)
	}
	checkReusable(t, mc, "ok", 7)
}

func TestContextCancelledBeforeRun(t *testing.T) {
	mc := sandboxMachine(t, spinSrc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := mc.RunContext(ctx, mc.Mod.Func("main"))
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	checkReusable(t, mc, "ok", 7)
}

func TestContextCancelledMidRun(t *testing.T) {
	mc := sandboxMachine(t, spinSrc)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := mc.RunContext(ctx, mc.Mod.Func("main"))
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation took implausibly long")
	}
	var trap *Trap
	if !errors.As(err, &trap) || trap.Fn != "main" {
		t.Fatalf("cancellation should still carry position: %v", err)
	}
	mc.Steps = 0
	checkReusable(t, mc, "ok", 7)
}

func TestContextDeadline(t *testing.T) {
	mc := sandboxMachine(t, spinSrc)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := mc.RunContext(ctx, mc.Mod.Func("main"))
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("want ErrCancelled on deadline, got %v", err)
	}
}

func TestContextCancelledMidRunJIT(t *testing.T) {
	mc := sandboxMachine(t, spinSrc)
	mc.EnableJIT()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := mc.RunContext(ctx, mc.Mod.Func("main"))
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("want ErrCancelled under JIT, got %v", err)
	}
	var trap *Trap
	if !errors.As(err, &trap) || trap.Fn != "main" {
		t.Fatalf("JIT trap should carry the function name: %v", err)
	}
	mc.Steps = 0
	checkReusable(t, mc, "ok", 7)
}

func TestHeapLimitJIT(t *testing.T) {
	mc := sandboxMachine(t, `
int %main() {
entry:
	%n = cast int -1 to uint
	%p = malloc int, uint %n
	%v = load int* %p
	ret int %v
}

int %ok(int %x) {
entry:
	%r = add int %x, 7
	ret int %r
}
`)
	mc.EnableJIT()
	_, err := mc.RunFunction(mc.Mod.Func("main"))
	if !errors.Is(err, ErrHeapLimit) {
		t.Fatalf("want ErrHeapLimit under JIT, got %v", err)
	}
	checkReusable(t, mc, "ok", 7)
}

func TestDoubleFreeTrapPosition(t *testing.T) {
	mc := sandboxMachine(t, `
int %main() {
entry:
	%p = malloc int
	free int* %p
	free int* %p
	ret int 0
}

int %ok(int %x) {
entry:
	%r = add int %x, 7
	ret int %r
}
`)
	_, err := mc.RunFunction(mc.Mod.Func("main"))
	if !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("want ErrDoubleFree, got %v", err)
	}
	var trap *Trap
	if !errors.As(err, &trap) || trap.Fn != "main" || trap.Inst == "" {
		t.Fatalf("double free should report its instruction: %v", err)
	}
	checkReusable(t, mc, "ok", 7)
}

func TestWraparoundPointerTrap(t *testing.T) {
	mc := sandboxMachine(t, `
int %main() {
entry:
	%addr = cast long -8 to int*
	%v = load int* %addr
	ret int %v
}

int %ok(int %x) {
entry:
	%r = add int %x, 7
	ret int %r
}
`)
	// An address near 2^64 makes addr+size wrap around; the bounds check
	// must not be fooled by the overflow.
	_, err := mc.RunFunction(mc.Mod.Func("main"))
	if !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("want ErrOutOfBounds for wraparound pointer, got %v", err)
	}
	checkReusable(t, mc, "ok", 7)
}

func TestTrapErrorMessageIncludesPosition(t *testing.T) {
	mc := sandboxMachine(t, `
int %main() {
entry:
	%v = load int* null
	ret int %v
}
`)
	_, err := mc.RunFunction(mc.Mod.Func("main"))
	if err == nil {
		t.Fatal("want trap")
	}
	msg := err.Error()
	for _, want := range []string{"main", "entry", "load"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("trap message %q missing %q", msg, want)
		}
	}
}

const deepAllocaSrc = `
%depth = global long 0

int %dive(int %d) {
entry:
	%buf = alloca [1024 x int]
	%n = load long* %depth
	%n1 = add long %n, 1
	store long %n1, long* %depth
	%slot = getelementptr [1024 x int]* %buf, long 0, long 0
	store int %d, int* %slot
	%d1 = add int %d, 1
	%r = call int %dive(int %d1)
	ret int %r
}

int %main() {
entry:
	%r = call int %dive(int 0)
	ret int %r
}

int %ok(int %x) {
entry:
	%p = alloca int
	store int %x, int* %p
	%v = load int* %p
	%r = add int %v, 7
	ret int %r
}
`

// TestStackArenaGrowsOnDemand: the arena is backed as the program touches
// it, and the limit it grows to is the 4 MiB it used to be allocated at —
// the overflow trap fires in the same activation at every tier.
func TestStackArenaGrowsOnDemand(t *testing.T) {
	for _, p := range []TierPolicy{TierInterp, TierBaseline, TierOpt, TierAuto} {
		mc := sandboxMachine(t, deepAllocaSrc)
		mc.SetTier(p)
		if len(mc.stack) != 0 {
			t.Fatalf("tier %s: a new machine already holds %d bytes of stack", p, len(mc.stack))
		}
		checkReusable(t, mc, "ok", 7)
		if len(mc.stack) > minStack {
			t.Fatalf("tier %s: one int on the stack backed %d bytes", p, len(mc.stack))
		}

		_, err := mc.RunFunction(mc.Mod.Func("main"))
		if !errors.Is(err, ErrStackOverflow) {
			t.Fatalf("tier %s: want ErrStackOverflow, got %v", p, err)
		}
		// Frames are 4 KiB and the arena starts 8 bytes in, so the last
		// frame that does not fit is number stackSize/4096.
		depth, rerr := mc.ReadWord(mc.GlobalAddr(mc.Mod.Global("depth")))
		if rerr != nil || depth != stackSize/4096-1 {
			t.Fatalf("tier %s: overflowed after %d frames (%v), want %d", p, depth, rerr, stackSize/4096-1)
		}
		if len(mc.stack) != stackSize {
			t.Fatalf("tier %s: arena is %d bytes at the limit, want %d", p, len(mc.stack), stackSize)
		}
		checkReusable(t, mc, "ok", 7)
	}
}

// TestStackArenaWildAccess: what a program may observe of the arena does
// not depend on how much of it is backed. Any address inside the 4 MiB
// reads zero until written, addresses past it trap, and memcpy survives a
// growth between resolving its two operands.
func TestStackArenaWildAccess(t *testing.T) {
	const src = `
declare sbyte* %memcpy(sbyte*, sbyte*, uint)

long %peek(long %idx) {
entry:
	%p = alloca long
	%q = getelementptr long* %p, long %idx
	%v = load long* %q
	ret long %v
}

long %copy(long %idx) {
entry:
	%d = alloca long
	store long 7, long* %d
	%s = getelementptr long* %d, long %idx
	%db = cast long* %d to sbyte*
	%sb = cast long* %s to sbyte*
	%r = call sbyte* %memcpy(sbyte* %db, sbyte* %sb, uint 8)
	%v = load long* %d
	ret long %v
}
`
	for _, p := range []TierPolicy{TierInterp, TierBaseline, TierOpt} {
		mc := sandboxMachine(t, src)
		mc.SetTier(p)
		if v, err := mc.RunFunction(mc.Mod.Func("peek"), 1<<17); err != nil || v != 0 {
			t.Fatalf("tier %s: read 1 MiB past the frame: %d, %v; want 0", p, v, err)
		}
		if _, err := mc.RunFunction(mc.Mod.Func("peek"), 1<<20); !errors.Is(err, ErrOutOfBounds) {
			t.Fatalf("tier %s: read 8 MiB past the frame: %v, want ErrOutOfBounds", p, err)
		}
		if v, err := mc.RunFunction(mc.Mod.Func("copy"), 1<<18); err != nil || v != 0 {
			t.Fatalf("tier %s: memcpy from untouched stack left %d, %v; want 0", p, v, err)
		}
	}
}
