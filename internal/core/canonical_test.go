package core_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/linker"
	"repro/internal/passes"
)

// TestConcurrentConstructionIsCanonical builds the same types from 8
// goroutines at once, over a fresh named struct and over primitives only:
// every goroutine must get the same objects. CI runs it under -race with
// -cpu 1,8.
func TestConcurrentConstructionIsCanonical(t *testing.T) {
	for round := 0; round < 50; round++ {
		s := &core.StructType{Name: "s", Fields: []core.Type{core.IntType}}
		build := func() []core.Type {
			p := core.NewPointer(s)
			return []core.Type{
				p,
				core.NewArray(s, 3),
				core.NewStruct(core.IntType, p),
				core.FunctionTypeOf(core.VoidType, []core.Type{p, core.LongType}, true),
				core.NewPointer(core.NewArray(core.ShortType, round+1)),
				core.NewFunctionType(core.LongType, core.NewPointer(core.DoubleType)),
				core.NewStruct(core.FloatType, core.NewArray(core.IntType, round)),
			}
		}
		const n = 8
		got := make([][]core.Type, n)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				got[g] = build()
			}(g)
		}
		close(start)
		wg.Wait()
		want := build()
		for g := range got {
			for i := range want {
				if got[g][i] != want[i] {
					t.Fatalf("round %d: goroutine %d built a second %s", round, g, want[i])
				}
			}
		}
	}
}

// reachableTypes returns every type a module mentions: named types,
// global and function types, initializers, instruction and operand types,
// allocated types, and their components.
func reachableTypes(m *core.Module) []core.Type {
	seen := map[core.Type]bool{}
	var out []core.Type
	var visit func(t core.Type)
	visit = func(t core.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		out = append(out, t)
		switch tt := t.(type) {
		case *core.PointerType:
			visit(tt.Elem)
		case *core.ArrayType:
			visit(tt.Elem)
		case *core.StructType:
			for _, f := range tt.Fields {
				visit(f)
			}
		case *core.FunctionType:
			visit(tt.Ret)
			for _, p := range tt.Params {
				visit(p)
			}
		}
	}
	var constant func(c core.Constant)
	constant = func(c core.Constant) {
		visit(c.Type())
		switch cc := c.(type) {
		case *core.ConstantArray:
			for _, e := range cc.Elems {
				constant(e)
			}
		case *core.ConstantStruct:
			for _, f := range cc.Fields {
				constant(f)
			}
		case *core.ConstantExpr:
			for _, op := range cc.Operands() {
				visit(op.Type())
			}
		}
	}
	for _, name := range m.TypeNames() {
		t, _ := m.NamedType(name)
		visit(t)
	}
	for _, g := range m.Globals {
		visit(g.Type())
		visit(g.ValueType)
		if g.Init != nil {
			constant(g.Init)
		}
	}
	for _, f := range m.Funcs {
		visit(f.Type())
		visit(f.Sig)
		f.ForEachInst(func(inst core.Instruction) bool {
			visit(inst.Type())
			for _, op := range inst.Operands() {
				if c, ok := op.(core.Constant); ok {
					constant(c)
				} else if op != nil {
					visit(op.Type())
				}
			}
			switch i := inst.(type) {
			case *core.AllocaInst:
				visit(i.AllocType)
			case *core.MallocInst:
				visit(i.AllocType)
			}
			return true
		})
	}
	return out
}

// rebuilt returns the type t's constructor gives for t's components.
func rebuilt(t core.Type) core.Type {
	switch tt := t.(type) {
	case *core.PointerType:
		return core.NewPointer(tt.Elem)
	case *core.ArrayType:
		return core.NewArray(tt.Elem, tt.Len)
	case *core.StructType:
		if tt.Name == "" {
			return core.NewStruct(tt.Fields...)
		}
	case *core.FunctionType:
		return core.FunctionTypeOf(tt.Ret, tt.Params, tt.Variadic)
	}
	return t
}

// checkCanonical fails unless every literal type m reaches is the one its
// constructor returns, and every name is borne by one named struct.
func checkCanonical(t *testing.T, what string, m *core.Module) {
	t.Helper()
	names := map[string]core.Type{}
	for _, ty := range reachableTypes(m) {
		if r := rebuilt(ty); r != ty {
			t.Errorf("%s: %s is not the canonical object", what, ty)
		}
		if st, ok := ty.(*core.StructType); ok && st.Name != "" {
			if other, dup := names[st.Name]; dup && other != ty {
				t.Errorf("%s: two struct objects are named %%%s", what, st.Name)
			}
			names[st.Name] = ty
		}
	}
}

// TestReachableTypesAreCanonical checks every way a module is made: the
// front end and the linker (raw suite programs), the LTO pipeline, the
// assembly parser, the bytecode decoder and CloneModule.
func TestReachableTypesAreCanonical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the whole corpus")
	}
	mods, err := corpus.Golden("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, gm := range mods {
		checkCanonical(t, gm.Name, gm.M)
		parsed, err := asm.ParseModule(gm.Name, gm.M.String())
		if err != nil {
			t.Fatalf("%s: %v", gm.Name, err)
		}
		checkCanonical(t, gm.Name+" parsed", parsed)
		data, err := bytecode.Encode(gm.M)
		if err != nil {
			t.Fatalf("%s: %v", gm.Name, err)
		}
		decoded, err := bytecode.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", gm.Name, err)
		}
		checkCanonical(t, gm.Name+" decoded", decoded)
		checkCanonical(t, gm.Name+" cloned", core.CloneModule(gm.M))
	}
}

// TestLinkMergesEqualNamedStructs links two units that define one struct
// each under the same name with the same body: the result has one object
// for the name, the source's uses retyped to it, and field reordering then
// rewrites every access, so the linked module's text parses back into a
// module that verifies.
func TestLinkMergesEqualNamedStructs(t *testing.T) {
	unit := func(name, body string) *core.Module {
		m, err := asm.ParseModule(name, `
%S = type { sbyte, long, sbyte }

long %get_`+name+`(%S* %p) {
entry:
	%a = getelementptr %S* %p, long 0, ubyte 1
	%v = load long* %a
	ret long %v
}
`+body)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a := unit("a", `
declare long %get_b(%S*)

int %main() {
entry:
	%p = malloc %S
	%f = getelementptr %S* %p, long 0, ubyte 1
	store long 5, long* %f
	%x = call long %get_a(%S* %p)
	%y = call long %get_b(%S* %p)
	%s = add long %x, %y
	%r = cast long %s to int
	ret int %r
}
`)
	b := unit("b", "")
	linked, err := linker.Link("l", a, b)
	if err != nil {
		t.Fatal(err)
	}
	checkCanonical(t, "linked", linked)
	if n := len(linked.TypeNames()); n != 1 {
		t.Fatalf("linked module registers %d type names, want 1", n)
	}
	passes.NewInternalize().RunOnModule(linked)
	if _, err := passes.NewPassManager().AddLinkTimePipeline().Run(linked); err != nil {
		t.Fatal(err)
	}
	checkCanonical(t, "linked and optimized", linked)
	back, err := asm.ParseModule("l", linked.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(back); err != nil {
		t.Fatalf("re-parsed linked module does not verify: %v\n%s", err, linked)
	}
}

// lifetimeSource defines a named struct that is not recursive, so its
// field list is reachable only through the struct itself.
const lifetimeSource = `
%pair = type { int, long }

declare void %use(%pair*, [2 x %pair]*, { %pair*, int })

int %main() {
entry:
	%p = alloca %pair
	%a = alloca [2 x %pair]
	%f = getelementptr %pair* %p, long 0, ubyte 0
	store int 1, int* %f
	%v = load int* %f
	ret int %v
}
`

// TestDecodedTypesDieWithTheirModule decodes one image many times: the
// table of types built from primitives only must not grow, the live heap
// must not grow with the number of decodes, and the field list of a
// dropped module's named struct must be collected. (A finalizer on the
// struct itself would never run: the struct and the pointer to it that it
// caches form a cycle, and a finalizer keeps alive whatever its object
// reaches.)
func TestDecodedTypesDieWithTheirModule(t *testing.T) {
	m, err := asm.ParseModule("life", lifetimeSource)
	if err != nil {
		t.Fatal(err)
	}
	data, err := bytecode.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	decode := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := bytecode.Decode(data); err != nil {
				t.Fatal(err)
			}
		}
	}
	decode(1)
	literal := core.LiteralTypeCount()
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	decode(200)
	before := heap()
	decode(2000)
	after := heap()
	if n := core.LiteralTypeCount(); n != literal {
		t.Errorf("2200 decodes grew the primitive-only type table from %d to %d", literal, n)
	}
	// 2000 retained modules would hold several megabytes.
	if after > before+1<<20 {
		t.Errorf("live heap grew from %d to %d bytes over 2000 decodes", before, after)
	}

	collected := make(chan struct{})
	func() {
		dm, err := bytecode.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		pt, _ := dm.NamedType("pair")
		runtime.SetFinalizer(&pt.(*core.StructType).Fields[0], func(*core.Type) { close(collected) })
	}()
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("a dropped module's named struct was never collected")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
