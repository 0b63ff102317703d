package codegen

import (
	"slices"
	"sort"

	"repro/internal/core"
)

// Image is a generated executable: header, symbol table, code, and data,
// mirroring what the paper measures as on-disk executable size (Figure 5).
type Image struct {
	Target    string
	Code      []byte
	Data      []byte
	FuncSizes map[string]int
	symBytes  int
}

// imageHeaderSize approximates the fixed object-format overhead.
const imageHeaderSize = 64

// Size returns the total image size in bytes.
func (im *Image) Size() int {
	return imageHeaderSize + im.symBytes + len(im.Code) + len(im.Data)
}

// Bytes returns a flattened byte image (header zeroes + code + data); the
// symbol table is accounted in Size but carried implicitly.
func (im *Image) Bytes() []byte {
	out := make([]byte, 0, im.Size())
	out = append(out, make([]byte, imageHeaderSize)...)
	out = append(out, im.Code...)
	out = append(out, im.Data...)
	return out
}

// CompileFunction lowers, register-allocates, and encodes one function.
func CompileFunction(f *core.Function, t Target) []byte {
	return (&compiler{t: t}).compile(nil, f)
}

// compiler is the scratch state of one CompileModule call: a lowerer and
// an allocator that are reset for each function rather than rebuilt.
type compiler struct {
	t  Target
	lo lowerer
	ra allocator
}

// codeBytesPerInstr sizes the image buffer before a function is encoded,
// so it grows once per function: both targets average 2.7 to 6 bytes per
// allocated instruction on the workload suite.
const codeBytesPerInstr = 8

// compile appends f's prologue, allocated body and epilogue to dst.
func (c *compiler) compile(dst []byte, f *core.Function) []byte {
	mf := c.lo.lower(f)
	c.ra.run(mf, c.t.NumRegs())
	dst = slices.Grow(dst, codeBytesPerInstr*(len(c.ra.out)+1))
	dst = c.t.Prologue(dst, mf.FrameSize)
	for _, b := range mf.Blocks {
		for _, in := range b.Instrs {
			dst = c.t.Encode(dst, in)
		}
	}
	return c.t.Epilogue(dst)
}

// CompileModule produces a whole-program image for the target.
func CompileModule(m *core.Module, t Target) *Image {
	im := &Image{Target: t.Name(), FuncSizes: make(map[string]int, len(m.Funcs))}
	// Deterministic order.
	funcs := append([]*core.Function(nil), m.Funcs...)
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].Name() < funcs[j].Name() })
	c := &compiler{t: t}
	for _, f := range funcs {
		if f.IsDeclaration() {
			im.symBytes += len(f.Name()) + 13 // undefined-symbol entry
			continue
		}
		start := len(im.Code)
		im.Code = c.compile(im.Code, f)
		im.FuncSizes[f.Name()] = len(im.Code) - start
		im.symBytes += len(f.Name()) + 13
	}
	for _, g := range m.Globals {
		im.symBytes += len(g.Name()) + 13
		if g.IsDeclaration() {
			continue
		}
		// Zero-initialized objects live in .bss and occupy no file bytes,
		// as in a real object format.
		if isAllZero(g.Init) {
			continue
		}
		start := len(im.Data)
		im.Data = append(im.Data, make([]byte, core.SizeOf(g.ValueType))...)
		fillConstant(im.Data[start:], g.Init, g.ValueType)
	}
	return im
}

// isAllZero reports whether a constant is entirely zero bits.
func isAllZero(c core.Constant) bool {
	switch cc := c.(type) {
	case nil:
		return true
	case *core.ConstantZero, *core.ConstantUndef, *core.ConstantNull:
		return true
	case *core.ConstantInt:
		return cc.Val == 0
	case *core.ConstantFloat:
		return cc.Val == 0
	case *core.ConstantBool:
		return !cc.Val
	case *core.ConstantArray:
		for _, e := range cc.Elems {
			if !isAllZero(e) {
				return false
			}
		}
		return true
	case *core.ConstantStruct:
		for _, f := range cc.Fields {
			if !isAllZero(f) {
				return false
			}
		}
		return true
	}
	return false
}

// fillConstant serializes a constant into buf (best-effort; relocated
// pointers render as zero words, as in a real object file before fixups).
func fillConstant(buf []byte, c core.Constant, t core.Type) {
	if c == nil {
		return
	}
	switch cc := c.(type) {
	case *core.ConstantInt:
		putLE(buf, cc.Val, core.SizeOf(t))
	case *core.ConstantFloat:
		putLE(buf, uint64(int64(cc.Val)), core.SizeOf(t))
	case *core.ConstantBool:
		if cc.Val {
			buf[0] = 1
		}
	case *core.ConstantArray:
		at := t.(*core.ArrayType)
		esz := core.SizeOf(at.Elem)
		for i, e := range cc.Elems {
			fillConstant(buf[i*esz:], e, at.Elem)
		}
	case *core.ConstantStruct:
		st := t.(*core.StructType)
		for i, f := range cc.Fields {
			off := core.FieldOffset(st, i)
			fillConstant(buf[off:], f, st.Fields[i])
		}
	}
}

func putLE(buf []byte, v uint64, n int) {
	for i := 0; i < n && i < len(buf); i++ {
		buf[i] = byte(v >> (8 * uint(i)))
	}
}
