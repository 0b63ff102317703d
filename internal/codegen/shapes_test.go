package codegen_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
)

// edgeShapes holds the CFG edges φ elimination must get right, all in
// long so that 64-bit machine arithmetic computes what the IR does. Each
// function takes its argument n as a loop bound.
//
//   - %swap: a loop whose back edge swaps %a and %b, and whose exit reads
//     %a and %i: a copy placed before the conditional branch would show
//     the exit the next iteration's %i (a lost copy), and sequential
//     copies would make %a and %b equal (a lost swap).
//   - %rotated: a bottom-tested loop whose exit reads the φ %s, not its
//     next value.
//   - %chain and %shift: the φ chains through a join and the latch reads
//     of the cross-tier edge test (interp's edgeSrc), in long.
//   - %switchswap: a switch whose case edge (to the inner loop) and
//     default edge (to the outer loop) each carry a swap.
//   - %lonely: a φ (%x) read only in the block that ends with the copy
//     into it, so its new value must still reach wherever the next
//     iteration reads it.
//   - %cell: a stack cell (an alloca) read and written in a loop beside
//     values that cross blocks, so the frame holds the cell and the
//     spill slots both.
//   - %invokes: an invoke whose normal edge carries a swap and the call's
//     result, and whose unwind edge carries a copy of its own.
const edgeShapes = `
long %swap(long %n) {
entry:
	br label %loop
loop:
	%i = phi long [ 0, %entry ], [ %i1, %loop ]
	%a = phi long [ 1, %entry ], [ %b, %loop ]
	%b = phi long [ 2, %entry ], [ %a, %loop ]
	%i1 = add long %i, 1
	%c = setlt long %i1, %n
	br bool %c, label %loop, label %exit
exit:
	%a100 = mul long %a, 100
	%r = add long %a100, %i
	ret long %r
}

long %rotated(long %n) {
entry:
	br label %body
body:
	%i = phi long [ 0, %entry ], [ %i1, %body ]
	%s = phi long [ 0, %entry ], [ %s1, %body ]
	%s1 = add long %s, %i
	%i1 = add long %i, 1
	%c = setlt long %i1, %n
	br bool %c, label %body, label %exit
exit:
	%r = mul long %s, 1000
	%r1 = add long %r, %s1
	ret long %r1
}

long %chain(long %n) {
entry:
	br label %loop
loop:
	%i = phi long [ 0, %entry ], [ %i1, %join ]
	%s = phi long [ 1, %entry ], [ %sj, %join ]
	%w = phi long [ 0, %entry ], [ %wj, %join ]
	%more = setlt long %i, %n
	br bool %more, label %body, label %done
body:
	%i1 = add long %i, 1
	%odd = and long %i, 1
	%isodd = setne long %odd, 0
	br bool %isodd, label %arm, label %join
arm:
	%t = add long %s, %n
	%s3 = mul long %s, 3
	%w1 = add long %w, %s3
	br label %join
join:
	%sj = phi long [ %t, %arm ], [ %s, %body ]
	%wj = phi long [ %w1, %arm ], [ %w, %body ]
	br label %loop
done:
	%r = add long %s, %w
	ret long %r
}

long %shift(long %n) {
entry:
	br label %loop
loop:
	%k = phi long [ 0, %entry ], [ %k1, %latch ]
	%p = phi long [ 1, %entry ], [ %v, %latch ]
	%q = phi long [ 0, %entry ], [ %p, %latch ]
	%u = phi long [ 2, %entry ], [ %u5, %latch ]
	%s = phi long [ 0, %entry ], [ %s1, %latch ]
	%more = setlt long %k, %n
	br bool %more, label %latch, label %done
latch:
	%k1 = add long %k, 1
	%v = mul long %p, 3
	%u5 = mul long %u, 5
	%s1 = add long %s, %u
	br label %loop
done:
	%r = sub long %p, %q
	%r1 = add long %r, %s
	ret long %r1
}

long %switchswap(long %n) {
entry:
	br label %outer
outer:
	%i = phi long [ 0, %entry ], [ %i2, %pre ]
	%a = phi long [ 1, %entry ], [ %b, %pre ]
	%b = phi long [ 2, %entry ], [ %a, %pre ]
	%s = phi long [ 0, %entry ], [ %s1, %pre ]
	%more = setlt long %i, %n
	br bool %more, label %inner, label %exit
inner:
	%j = phi long [ %i, %outer ], [ %i2, %pre ]
	%x = phi long [ %a, %outer ], [ %y, %pre ]
	%y = phi long [ %b, %outer ], [ %x, %pre ]
	%t = phi long [ %s, %outer ], [ %s1, %pre ]
	br label %pre
pre:
	%i2 = add long %j, 1
	%x3 = mul long %x, 3
	%t1 = add long %t, %x3
	%s1 = sub long %t1, %y
	%m = rem long %i2, 3
	switch long %m, label %outer [
		long 0, label %inner ]
exit:
	%a7 = mul long %a, 7
	%r = add long %a7, %b
	%r1 = mul long %r, 1000
	%r2 = add long %r1, %s
	ret long %r2
}

long %lonely(long %n) {
entry:
	br label %head
head:
	%x = phi long [ 0, %entry ], [ %y, %body ]
	%w = phi long [ 0, %entry ], [ %y, %body ]
	%c = setlt long %w, %n
	br bool %c, label %body, label %exit
body:
	%y = add long %x, 1
	br label %head
exit:
	ret long %w
}

long %cell(long %n) {
entry:
	%p = alloca long
	store long 5, long* %p
	br label %loop
loop:
	%i = phi long [ 0, %entry ], [ %i1, %loop ]
	%a = phi long [ 1, %entry ], [ %b, %loop ]
	%b = phi long [ 2, %entry ], [ %a, %loop ]
	%v = load long* %p
	%v1 = mul long %v, %a
	%v2 = add long %v1, %b
	store long %v2, long* %p
	%i1 = add long %i, 1
	%c = setlt long %i1, %n
	br bool %c, label %loop, label %exit
exit:
	%r = load long* %p
	ret long %r
}

long %guard(long %x) {
entry:
	%big = setgt long %x, 40
	br bool %big, label %boom, label %ok
boom:
	unwind
ok:
	%r = add long %x, 3
	ret long %r
}

long %invokes(long %n) {
entry:
	br label %head
head:
	%i = phi long [ 0, %entry ], [ %i1, %call ], [ %i1, %caught ]
	%a = phi long [ 1, %entry ], [ %b, %call ], [ %w, %caught ]
	%b = phi long [ 2, %entry ], [ %a, %call ], [ %a, %caught ]
	%z = phi long [ 0, %entry ], [ %r, %call ], [ 0, %caught ]
	%more = setlt long %i, %n
	br bool %more, label %call, label %exit
call:
	%i1 = add long %i, 1
	%g = mul long %i1, 9
	%r = invoke long %guard(long %g) to label %head unwind to label %caught
caught:
	%w = phi long [ %g, %call ]
	br label %head
exit:
	%ab = mul long %a, 100
	%abz = add long %ab, %b
	%res = add long %abz, %z
	ret long %res
}
`

// parseShapes parses and verifies edgeShapes.
func parseShapes(tb testing.TB) *core.Module {
	tb.Helper()
	m, err := asm.ParseModule("shapes", edgeShapes)
	if err != nil {
		tb.Fatal(err)
	}
	if err := core.Verify(m); err != nil {
		tb.Fatal(err)
	}
	return m
}
