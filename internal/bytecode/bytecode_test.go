package bytecode

import (
	"bytes"
	"compress/flate"
	"errors"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/wire"
)

// roundTrip encodes m, decodes the bytes, and checks the decoded module
// verifies and prints identically to the original.
// mustEnc encodes m, failing the test on error.
func mustEnc(t testing.TB, m *core.Module) []byte {
	t.Helper()
	data, err := Encode(m)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return data
}

// mustEncStripped is mustEnc without local symbol names.
func mustEncStripped(t testing.TB, m *core.Module) []byte {
	t.Helper()
	data, err := EncodeStripped(m)
	if err != nil {
		t.Fatalf("encode stripped: %v", err)
	}
	return data
}

func roundTrip(t *testing.T, m *core.Module) *core.Module {
	t.Helper()
	data := mustEnc(t, m)
	m2, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := core.Verify(m2); err != nil {
		t.Fatalf("decoded module invalid: %v", err)
	}
	want, got := m.String(), m2.String()
	if want != got {
		t.Fatalf("round trip mismatch:\n--- original ---\n%s\n--- decoded ---\n%s", want, got)
	}
	return m2
}

func parseSrc(t *testing.T, src string) *core.Module {
	t.Helper()
	m, err := asm.ParseModule("bctest", src)
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

func TestRoundTripLoop(t *testing.T) {
	roundTrip(t, parseSrc(t, loopSrc))
}

func TestRoundTripFullFeatures(t *testing.T) {
	src := `
%pair = type { int, float }
%list = type { int, %list* }
%counter = global int 0
%table = internal constant [3 x int] [ int 1, int 2, int 3 ]
%str = internal constant [6 x sbyte] c"hello\00"
%strp = global sbyte* getelementptr ([6 x sbyte]* %str, long 0, long 0)
%pval = global %pair { int 4, float 2.5 }
%ext = external global double

declare int %printf(sbyte*, ...)
declare void %mayThrow()

internal int %helper(int %x, float %y) {
entry:
	%c = cast float %y to int
	%z = add int %x, %c
	ret int %z
}

int %main() {
entry:
	%l = malloc %list
	%hd = getelementptr %list* %l, long 0, ubyte 0
	store int 10, int* %hd
	%buf = alloca [16 x sbyte]
	%s = getelementptr [6 x sbyte]* %str, long 0, long 0
	%r = call int (sbyte*, ...)* %printf(sbyte* %s, int 42)
	%h = call int %helper(int %r, float 1.5)
	invoke void %mayThrow() to label %ok unwind to label %ex
ok:
	switch int %h, label %done [
		int 0, label %zero ]
zero:
	free %list* %l
	br label %done
done:
	%p = phi int [ %h, %ok ], [ 0, %zero ]
	ret int %p
ex:
	unwind
}
`
	m := parseSrc(t, src)
	roundTrip(t, m)
}

func TestRoundTripVarArgsAndVAArg(t *testing.T) {
	roundTrip(t, parseSrc(t, `
int %va(int %n, ...) {
entry:
	%ap = alloca sbyte*
	%v = vaarg sbyte** %ap, int
	%w = add int %v, %n
	ret int %w
}
`))
}

func TestRoundTripShifts(t *testing.T) {
	roundTrip(t, parseSrc(t, `
ulong %sh(ulong %x) {
entry:
	%a = shl ulong %x, ubyte 3
	%b = shr ulong %a, ubyte 1
	ret ulong %b
}
`))
}

func TestRoundTripRecursiveTypes(t *testing.T) {
	roundTrip(t, parseSrc(t, `
%list = type { int, %list* }

%list* %next(%list* %l) {
entry:
	%p = getelementptr %list* %l, long 0, ubyte 1
	%n = load %list** %p
	ret %list* %n
}
`))
}

func TestCompactEncodingDensity(t *testing.T) {
	// The straight-line arithmetic in this function should encode almost
	// entirely in single 32-bit words: the per-instruction cost must stay
	// close to 4 bytes (the paper's "most instructions require a single
	// 32-bit word", §4.1.3).
	src := `
int %math(int %a, int %b) {
entry:
	%t0 = add int %a, %b
	%t1 = sub int %t0, %a
	%t2 = mul int %t1, %b
	%t3 = div int %t2, %a
	%t4 = rem int %t3, %b
	%t5 = and int %t4, %a
	%t6 = or int %t5, %b
	%t7 = xor int %t6, %a
	%t8 = add int %t7, %t0
	%t9 = add int %t8, %t1
	%t10 = add int %t9, %t2
	%t11 = add int %t10, %t3
	ret int %t11
}
`
	m := parseSrc(t, src)
	stripped := mustEncStripped(t, m)
	full := mustEnc(t, m)
	if len(full) <= len(stripped) {
		t.Errorf("symbol table should add size: full=%d stripped=%d", len(full), len(stripped))
	}
	// 13 instructions; allow generous fixed overhead for header/types.
	perInst := float64(len(stripped)-40) / 13
	if perInst > 6.0 {
		t.Errorf("per-instruction size %.1f bytes; compact form not effective (total %d)", perInst, len(stripped))
	}
	roundTrip(t, m)
}

func TestStrippedRoundTripSemantics(t *testing.T) {
	m := parseSrc(t, loopSrc)
	data := mustEncStripped(t, m)
	m2, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(m2); err != nil {
		t.Fatalf("stripped module invalid: %v", err)
	}
	f := m2.Func("sum")
	if f == nil || f.NumInstructions() != 8 || len(f.Blocks) != 3 {
		t.Fatal("stripped module structure wrong")
	}
	// Local names are gone.
	if f.Blocks[1].Phis()[0].Name() != "" {
		t.Error("stripped module retains local names")
	}
}

func TestDecodeErrors(t *testing.T) {
	m := parseSrc(t, loopSrc)
	data := mustEnc(t, m)

	if _, err := Decode([]byte("XXXX")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Decode(data[:4]); err == nil {
		t.Error("truncated header accepted")
	}
	// Truncations anywhere must error, never panic.
	for cut := 5; cut < len(data); cut += 7 {
		if _, err := Decode(data[:cut]); err == nil {
			// Some prefixes may decode if trailing data is optional; the
			// full module must still be recoverable from the whole image.
			if _, err2 := Decode(data); err2 != nil {
				t.Fatalf("full image broken: %v", err2)
			}
		}
	}
	// Corrupt the version byte.
	bad := append([]byte(nil), data...)
	bad[4] = 99
	if _, err := Decode(bad); err == nil {
		t.Error("bad version accepted")
	}
}

func TestBytecodeCompressibility(t *testing.T) {
	// §4.1.3: general-purpose compression roughly halves bytecode size,
	// indicating headroom in the encoding. Use a repetitive module, as
	// real programs are.
	var src bytes.Buffer
	src.WriteString("int %f0(int %x) {\nentry:\n\t%y = add int %x, 1\n\tret int %y\n}\n")
	for i := 1; i < 40; i++ {
		src.WriteString("int %f")
		src.WriteByte(byte('0' + i/10))
		src.WriteByte(byte('0' + i%10))
		src.WriteString("(int %x) {\nentry:\n\t%a = add int %x, 2\n\t%b = mul int %a, 3\n\t%c = sub int %b, 4\n\tret int %c\n}\n")
	}
	m := parseSrc(t, src.String())
	data := mustEnc(t, m)
	var comp bytes.Buffer
	zw, _ := flate.NewWriter(&comp, flate.BestCompression)
	zw.Write(data)
	zw.Close()
	ratio := float64(comp.Len()) / float64(len(data))
	if ratio > 0.8 {
		t.Errorf("compression ratio %.2f; expected substantial redundancy (paper reports ~0.5)", ratio)
	}
}

func TestSizeComparableToText(t *testing.T) {
	// Bytecode should be substantially smaller than the textual form.
	m := parseSrc(t, loopSrc)
	text := len(m.String())
	bc := len(mustEncStripped(t, m))
	if bc >= text {
		t.Errorf("bytecode (%d) not smaller than text (%d)", bc, text)
	}
}

// TestDecodeRejectsOverflowingVarint: a ten-byte varint whose last byte
// carries more than the 64th bit does not fit in 64 bits. The image with
// the largest magnitude constant decodes; the same image with that
// varint's last byte raised to 0x7f is refused.
func TestDecodeRejectsOverflowingVarint(t *testing.T) {
	data := mustEnc(t, parseSrc(t, "%g = global long -9223372036854775808\n"))
	if _, err := Decode(data); err != nil {
		t.Fatal(err)
	}
	maxEnc := append(bytes.Repeat([]byte{0xff}, 9), 0x01)
	i := bytes.Index(data, maxEnc)
	if i < 0 {
		t.Fatalf("no ten-byte varint in % x", data)
	}
	bad := bytes.Clone(data)
	bad[i+9] = 0x7f
	if m, err := Decode(bad); m != nil || !errors.Is(err, wire.ErrOverflow) {
		t.Fatalf("Decode = %v, %v; want ErrOverflow", m, err)
	}
}

// TestDecodeRejectsDuplicateSymbols: an image whose string table names two
// module symbols alike is refused as an ordinary decode error at an
// offset, not through Decode's recover of core's duplicate-symbol panic.
// Each image is a valid module with its last symbol renamed from %ab to
// %aa in place (same length, so nothing else moves).
func TestDecodeRejectsDuplicateSymbols(t *testing.T) {
	for _, tc := range []struct{ name, src, want string }{
		{"functions", "declare void %aa()\ndeclare void %ab()\n", "duplicate function symbol %aa"},
		{"globals", "%aa = global int 0\n%ab = global int 1\n", "duplicate global symbol %aa"},
		{"global-after-function", "declare void %aa()\n%ab = global int 1\n", "duplicate global symbol %aa"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := mustEnc(t, parseSrc(t, tc.src))
			if _, err := Decode(data); err != nil {
				t.Fatal(err)
			}
			i := bytes.Index(data, []byte("ab"))
			if i < 0 {
				t.Fatalf("no %%ab in % x", data)
			}
			bad := bytes.Clone(data)
			bad[i+1] = 'a'
			m, err := Decode(bad)
			if m != nil || err == nil {
				t.Fatalf("Decode = %v, %v; want a duplicate-symbol error", m, err)
			}
			if strings.Contains(err.Error(), "invalid input") {
				t.Fatalf("refused through the recover: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "offset ") {
				t.Fatalf("error %q; want a positioned %q", err, tc.want)
			}
		})
	}
}
