package bytecode

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

// Property tests: randomly generated constants and functions must survive
// the bytecode round trip with identical printed form.

// randConstant builds a random constant tree of bounded depth.
func randConstant(r *rand.Rand, depth int) core.Constant {
	if depth <= 0 {
		switch r.Intn(5) {
		case 0:
			return core.NewInt(core.IntType, r.Int63())
		case 1:
			return core.NewInt(core.UByteType, int64(r.Intn(256)))
		case 2:
			return core.NewFloat(core.DoubleType, r.NormFloat64())
		case 3:
			return core.NewBool(r.Intn(2) == 0)
		default:
			return core.NewNull(core.NewPointer(core.IntType))
		}
	}
	switch r.Intn(3) {
	case 0:
		n := 1 + r.Intn(4)
		elems := make([]core.Constant, n)
		var et core.Type
		for i := range elems {
			if i == 0 {
				elems[i] = randConstant(r, depth-1)
				et = elems[i].Type()
			} else {
				// Arrays are homogeneous: regenerate until type matches.
				for {
					c := randConstant(r, depth-1)
					if c.Type() == et {
						elems[i] = c
						break
					}
				}
			}
		}
		return core.NewArrayConst(et, elems)
	case 1:
		n := 1 + r.Intn(4)
		fields := make([]core.Constant, n)
		types := make([]core.Type, n)
		for i := range fields {
			fields[i] = randConstant(r, depth-1)
			types[i] = fields[i].Type()
		}
		return core.NewStructConst(core.NewStruct(types...), fields)
	default:
		return randConstant(r, 0)
	}
}

func TestPropConstantRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := core.NewModule("prop")
		for i := 0; i < 5; i++ {
			c := randConstant(r, 2)
			g := core.NewGlobal(m.UniqueSymbol("g"), c.Type(), c)
			m.AddGlobal(g)
		}
		data, err := Encode(m)
		if err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		m2, err := Decode(data)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		return m.String() == m2.String()
	}
	cfg := &quick.Config{MaxCount: 200, Values: func(vs []reflect.Value, r *rand.Rand) {
		vs[0] = reflect.ValueOf(r.Int63())
	}}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// randFunction builds a random straight-line-plus-diamond function.
func randFunction(r *rand.Rand, m *core.Module, name string) *core.Function {
	f := core.NewFunction(name, core.NewFunctionType(core.IntType, core.IntType, core.IntType))
	m.AddFunc(f)
	entry := core.NewBlock("entry")
	thenB := core.NewBlock("t")
	elseB := core.NewBlock("e")
	join := core.NewBlock("j")
	f.AddBlock(entry)
	f.AddBlock(thenB)
	f.AddBlock(elseB)
	f.AddBlock(join)

	b := core.NewBuilder()
	b.SetInsertPoint(entry)
	vals := []core.Value{f.Args[0], f.Args[1]}
	binOps := []core.Opcode{core.OpAdd, core.OpSub, core.OpMul, core.OpAnd, core.OpOr, core.OpXor}
	for i := 0; i < 2+r.Intn(8); i++ {
		op := binOps[r.Intn(len(binOps))]
		x := vals[r.Intn(len(vals))]
		y := vals[r.Intn(len(vals))]
		if r.Intn(3) == 0 {
			y = core.NewInt(core.IntType, int64(r.Intn(100)))
		}
		vals = append(vals, b.CreateBinary(op, x, y, ""))
	}
	cond := b.CreateSetLT(vals[len(vals)-1], core.NewInt(core.IntType, 50), "")
	b.CreateCondBr(cond, thenB, elseB)

	b.SetInsertPoint(thenB)
	tv := b.CreateAdd(vals[r.Intn(len(vals))], core.NewInt(core.IntType, 1), "")
	b.CreateBr(join)
	b.SetInsertPoint(elseB)
	ev := b.CreateMul(vals[r.Intn(len(vals))], core.NewInt(core.IntType, 2), "")
	b.CreateBr(join)

	b.SetInsertPoint(join)
	phi := b.CreatePhi(core.IntType, "")
	phi.AddIncoming(tv, thenB)
	phi.AddIncoming(ev, elseB)
	b.CreateRet(phi)
	return f
}

func TestPropFunctionRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := core.NewModule("prop")
		for i := 0; i < 1+r.Intn(4); i++ {
			randFunction(r, m, m.UniqueSymbol("f"))
		}
		if err := core.Verify(m); err != nil {
			t.Logf("generated invalid module: %v", err)
			return false
		}
		data, err := Encode(m)
		if err != nil {
			t.Logf("encode: %v", err)
			return false
		}
		m2, err := Decode(data)
		if err != nil {
			t.Logf("decode: %v", err)
			return false
		}
		if err := core.Verify(m2); err != nil {
			t.Logf("decoded invalid: %v", err)
			return false
		}
		return m.String() == m2.String()
	}
	cfg := &quick.Config{MaxCount: 150, Values: func(vs []reflect.Value, r *rand.Rand) {
		vs[0] = reflect.ValueOf(r.Int63())
	}}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPropDecodeNeverPanics: arbitrary mutations of a valid image must
// produce errors, never panics or corrupted successes that fail
// verification silently.
func TestPropDecodeNeverPanics(t *testing.T) {
	base := func() []byte {
		m := core.NewModule("t")
		randFunction(rand.New(rand.NewSource(42)), m, "f")
		data, err := Encode(m)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		return data
	}()
	f := func(pos uint16, val byte) bool {
		data := append([]byte(nil), base...)
		data[int(pos)%len(data)] ^= val | 1
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("decode panicked: %v", p)
			}
		}()
		m, err := Decode(data)
		if err != nil {
			return true // rejected: fine
		}
		// Accepted: the module must at least be structurally printable.
		_ = m.String()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
