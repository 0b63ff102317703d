package dsa

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// valueNamed finds the instruction named name in f (as a value, for alias
// queries).
func valueNamed(t *testing.T, f *core.Function, name string) core.Value {
	t.Helper()
	for _, b := range f.Blocks {
		for _, inst := range b.Instrs {
			if inst.Name() == name {
				return inst
			}
		}
	}
	t.Fatalf("no instruction named %%%s in %s", name, f.Name())
	return nil
}

func TestAliasDistinctAllocations(t *testing.T) {
	m, r := analyzeMod(t, `
internal void %f() {
entry:
	%a = alloca int
	%b = alloca int
	%h = malloc int
	store int 1, int* %a
	store int 2, int* %b
	store int 3, int* %h
	ret void
}
`)
	f := m.Func("f")
	a, b, h := valueNamed(t, f, "a"), valueNamed(t, f, "b"), valueNamed(t, f, "h")
	if got := r.Alias(a, b); got != NoAlias {
		t.Errorf("Alias(a,b) = %v, want no (distinct allocas)", got)
	}
	if got := r.Alias(a, h); got != NoAlias {
		t.Errorf("Alias(a,h) = %v, want no (stack vs fresh heap)", got)
	}
	if got := r.Alias(a, a); got != MustAlias {
		t.Errorf("Alias(a,a) = %v, want must", got)
	}
}

func TestAliasFieldDisambiguation(t *testing.T) {
	m, r := analyzeMod(t, `
%pair = type { int, int }

internal int %f() {
entry:
	%p = alloca %pair
	%x = getelementptr %pair* %p, long 0, ubyte 0
	%y = getelementptr %pair* %p, long 0, ubyte 1
	%x2 = getelementptr %pair* %p, long 0, ubyte 0
	store int 1, int* %x
	store int 2, int* %y
	%v = load int* %x2
	ret int %v
}
`)
	f := m.Func("f")
	p := valueNamed(t, f, "p")
	x, y, x2 := valueNamed(t, f, "x"), valueNamed(t, f, "y"), valueNamed(t, f, "x2")
	if got := r.Alias(x, y); got != NoAlias {
		t.Errorf("Alias(x,y) = %v, want no (disjoint fields of one object)", got)
	}
	if got := r.Alias(x, x2); got != MustAlias {
		t.Errorf("Alias(x,x2) = %v, want must (identical access paths)", got)
	}
	if got := r.Alias(x, p); got != MayAlias {
		t.Errorf("Alias(x,p) = %v, want may (containment)", got)
	}
}

func TestAliasVariableIndexIsMay(t *testing.T) {
	m, r := analyzeMod(t, `
internal int %f(long %i) {
entry:
	%a = alloca [8 x int]
	%p = getelementptr [8 x int]* %a, long 0, long %i
	%q = getelementptr [8 x int]* %a, long 0, long 3
	store int 1, int* %p
	%v = load int* %q
	ret int %v
}
`)
	f := m.Func("f")
	p, q := valueNamed(t, f, "p"), valueNamed(t, f, "q")
	if got := r.Alias(p, q); got != MayAlias {
		t.Errorf("Alias(p,q) = %v, want may (variable index)", got)
	}
}

// Satellite regression: a pointer laundered through an integer must stay
// may-alias with its source — a provenance-losing cast collapses to
// unknown, never to a false no-alias.
func TestAliasPtrIntRoundTripStaysMay(t *testing.T) {
	m, r := analyzeMod(t, `
internal int %f() {
entry:
	%a = alloca int
	%i = cast int* %a to long
	%p = cast long %i to int*
	store int 1, int* %p
	%v = load int* %a
	ret int %v
}
`)
	f := m.Func("f")
	a, p := valueNamed(t, f, "a"), valueNamed(t, f, "p")
	if got := r.Alias(p, a); got == NoAlias {
		t.Fatalf("Alias(p,a) = no: ptr→int→ptr round-trip lost the object")
	}
	n := r.NodeFor(p)
	if n == nil || !n.Unknown {
		t.Error("int→ptr materialization must be marked Unknown")
	}
}

func TestAliasLoadFromEscapedMemoryIsMay(t *testing.T) {
	// %g has external linkage: other code may store any pointer into it,
	// so a pointer loaded out of it may target anything — even a global
	// the loaded value never visibly flowed to.
	m, r := analyzeMod(t, `
%g = global int* null
%h = global int 7

internal int %f() {
entry:
	%p = load int** %g
	%v = load int* %p
	ret int %v
}
`)
	f := m.Func("f")
	p := valueNamed(t, f, "p")
	if got := r.Alias(p, m.Global("h")); got != MayAlias {
		t.Errorf("Alias(p,h) = %v, want may (p loaded from escaped memory)", got)
	}
}

func TestAliasNull(t *testing.T) {
	m, r := analyzeMod(t, `
%g = global int 0

internal void %f() {
entry:
	store int 1, int* %g
	ret void
}
`)
	null := core.NewNull(core.NewPointer(core.IntType))
	if got := r.Alias(null, m.Global("g")); got != NoAlias {
		t.Errorf("Alias(null,g) = %v, want no", got)
	}
}

func TestCallEffectsPrecision(t *testing.T) {
	m, r := analyzeMod(t, `
%g = global int 0
%h = global int 0

internal void %setg() {
entry:
	store int 1, int* %g
	ret void
}

internal void %caller() {
entry:
	%a = alloca int
	call void %setg()
	store int 2, int* %a
	ret void
}
`)
	setg, caller := m.Func("setg"), m.Func("caller")
	g, h := r.NodeFor(m.Global("g")), r.NodeFor(m.Global("h"))
	if !r.CallMayMod(setg, g) {
		t.Error("setg writes g; CallMayMod must say so")
	}
	if r.CallMayMod(setg, h) {
		t.Error("setg never touches h")
	}
	if !r.CallMayMod(caller, g) {
		t.Error("caller's transitive write to g lost")
	}
	a := r.NodeFor(valueNamed(t, caller, "a"))
	if r.CallMayMod(setg, a) {
		t.Error("setg cannot reach caller's frame")
	}
	if r.CallMayRef(setg, g) {
		t.Error("setg only writes g, never reads it")
	}
}

func TestFunctionSummaries(t *testing.T) {
	m, r := analyzeMod(t, `
%cache = internal global int* null

internal int* %mk() {
entry:
	%p = malloc int
	ret int* %p
}

internal void %writeArg(int* %p) {
entry:
	store int 1, int* %p
	ret void
}

internal void %stash(int* %p) {
entry:
	store int* %p, int** %cache
	ret void
}
`)
	_ = m
	if s := r.Summary("mk"); s == nil || !s.ReturnsFresh {
		t.Errorf("mk must summarize ReturnsFresh, got %+v", s)
	}
	if s := r.Summary("writeArg"); s == nil || !s.ArgMod[0] || s.ArgRef[0] || s.ArgEscapes[0] {
		t.Errorf("writeArg: want mod-only non-escaping arg, got %+v", s)
	}
	if s := r.Summary("stash"); s == nil || !s.ArgEscapes[0] {
		t.Errorf("stash stores its arg into a global; ArgEscapes lost: %+v", s)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	src := `
%pair = type { int, int }
%g = global int 0

internal int %f(int* %q) {
entry:
	%p = alloca %pair
	%x = getelementptr %pair* %p, long 0, ubyte 0
	%y = getelementptr %pair* %p, long 0, ubyte 1
	store int 1, int* %x
	store int 2, int* %y
	store int 3, int* %q
	%v = load int* %x
	ret int %v
}

internal int* %mk() {
entry:
	%h = malloc int
	ret int* %h
}
`
	m, r := analyzeMod(t, src)
	enc := r.Encode(m)
	if !bytes.Equal(enc, r.Encode(m)) {
		t.Fatal("encoding is not deterministic")
	}
	dec, err := Decode(enc, m)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !dec.Restored() {
		t.Error("decoded result must report Restored")
	}
	f := m.Func("f")
	pairs := [][2]core.Value{
		{valueNamed(t, f, "x"), valueNamed(t, f, "y")},
		{valueNamed(t, f, "x"), valueNamed(t, f, "p")},
		{valueNamed(t, f, "p"), m.Global("g")},
	}
	for _, pq := range pairs {
		if got, want := dec.Alias(pq[0], pq[1]), r.Alias(pq[0], pq[1]); got != want {
			t.Errorf("alias answer changed across round-trip: %v vs %v", got, want)
		}
	}
	if !reflect.DeepEqual(dec.summaries, r.summaries) {
		t.Errorf("summaries changed across round-trip:\n%+v\nvs\n%+v", dec.summaries, r.summaries)
	}
	if dec.Typed() != r.Typed() || dec.Untyped() != r.Untyped() {
		t.Error("typed/untyped counts changed across round-trip")
	}
	if dec.TypeReliable(core.IntType) {
		t.Error("restored results must never authorize layout changes")
	}

	// A mutated module must reject the stale encoding.
	m2, _ := analyzeMod(t, src+`
internal void %extra() {
entry:
	%a = alloca int
	store int 9, int* %a
	ret void
}
`)
	if _, err := Decode(enc, m2); err == nil {
		t.Fatal("decoding against a different module must fail")
	}
	if _, err := Decode(enc[:len(enc)/2], m); err == nil {
		t.Fatal("truncated encoding must fail")
	}
}

// TestDecodeRejectsHostileHeader: a class count no input could hold and a
// count that overflows 64 bits are errors, never a panic or an allocation
// sized by the blob.
func TestDecodeRejectsHostileHeader(t *testing.T) {
	m, _ := analyzeMod(t, "declare void %x()\n")
	count := func(n uint64) []byte {
		var w wire.Writer
		w.Raw([]byte(encodeMagic))
		w.Uvarint(n)
		return w.Bytes()
	}
	for name, blob := range map[string][]byte{
		"count 2^50":  count(1 << 50),
		"count 2^46":  count(1 << 46),
		"overflowing": append([]byte(encodeMagic), append(bytes.Repeat([]byte{0xff}, 9), 0x7f)...),
	} {
		if r, err := Decode(blob, m); r != nil || err == nil {
			t.Errorf("%s: Decode = %v, %v; want an error", name, r, err)
		}
	}
}
