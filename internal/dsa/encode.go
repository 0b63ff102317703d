// Binary persistence for points-to results. Summaries are stored in the
// lifelong store keyed by module hash, so a repeat compilation of the same
// module decodes the analysis instead of recomputing it. The format is
// deliberately positional: values are identified by a deterministic module
// walk (globals, then per function its arguments and instructions in body
// order), so the encoding is only meaningful against the exact module it
// was computed from — which the content-addressed store guarantees.
package dsa

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/wire"
)

// encodeMagic versions the format; bump on any layout change.
const encodeMagic = "LLPT1"

// walkValues enumerates the module's node-bearing values in the canonical
// order both Encode and Decode use.
func walkValues(m *core.Module) []core.Value {
	var vals []core.Value
	for _, g := range m.Globals {
		vals = append(vals, g)
	}
	for _, f := range m.Funcs {
		for _, arg := range f.Args {
			vals = append(vals, arg)
		}
		f.ForEachInst(func(inst core.Instruction) bool {
			vals = append(vals, inst)
			return true
		})
	}
	return vals
}

// Node flag bits in the encoding.
const (
	flagCollapsed = 1 << iota
	flagUnknown
	flagEscaped
	flagHeap
	flagStack
	flagGlobal
	flagTainted
)

// Effects/summary flag bits.
const (
	effModAll = 1 << iota
	effRefAll
	effModEscaped
	effRefEscaped
	effReturnsFresh
)

// Encode serializes the frozen result for m. The output is deterministic:
// the same module and result encode byte-identically.
func (r *Result) Encode(m *core.Module) []byte {
	vals := walkValues(m)
	// Assign class ids: value classes in walk order, then pointee closure.
	ids := map[*Node]int{}
	var classes []*Node
	add := func(n *Node) {
		if n == nil {
			return
		}
		if _, ok := ids[n]; !ok {
			ids[n] = len(classes)
			classes = append(classes, n)
		}
	}
	for _, v := range vals {
		if n := r.nodes[v]; n != nil {
			add(n.find())
		}
	}
	for i := 0; i < len(classes); i++ { // grows during iteration
		if p := classes[i].pointee; p != nil {
			add(p.find())
		}
	}

	var e wire.Writer
	e.Raw([]byte(encodeMagic))
	e.Uvarint(uint64(len(classes)))
	for _, n := range classes {
		var flags byte
		if n.Collapsed {
			flags |= flagCollapsed
		}
		if n.Unknown {
			flags |= flagUnknown
		}
		if n.Escaped {
			flags |= flagEscaped
		}
		if n.Heap {
			flags |= flagHeap
		}
		if n.Stack {
			flags |= flagStack
		}
		if n.Global {
			flags |= flagGlobal
		}
		if r.tainted[n] {
			flags |= flagTainted
		}
		e.Byte(flags)
		if n.pointee != nil {
			e.Uvarint(uint64(ids[n.pointee.find()] + 1))
		} else {
			e.Uvarint(0)
		}
		e.Uvarint(uint64(len(n.Sites)))
		for _, s := range n.Sites {
			e.Byte(byte(s.Kind))
			e.Str(s.Fn)
			e.Str(s.Name)
		}
	}

	e.Uvarint(uint64(len(vals)))
	for _, v := range vals {
		if n := r.nodes[v]; n != nil {
			e.Uvarint(uint64(ids[n.find()] + 1))
		} else {
			e.Uvarint(0)
		}
	}

	for _, f := range m.Funcs {
		fe := r.effects[f.Name()]
		s := r.summaries[f.Name()]
		var flags byte
		if fe != nil {
			if fe.ModAll {
				flags |= effModAll
			}
			if fe.RefAll {
				flags |= effRefAll
			}
			if fe.ModEscaped {
				flags |= effModEscaped
			}
			if fe.RefEscaped {
				flags |= effRefEscaped
			}
		} else {
			flags |= effModAll | effRefAll
		}
		if s != nil && s.ReturnsFresh {
			flags |= effReturnsFresh
		}
		e.Byte(flags)
		writeSet := func(set map[*Node]bool) {
			var idList []int
			if fe != nil {
				idList = sortedNodeIDs(set, ids)
			}
			e.Uvarint(uint64(len(idList)))
			for _, id := range idList {
				e.Uvarint(uint64(id))
			}
		}
		if fe != nil {
			writeSet(fe.Mod)
			writeSet(fe.Ref)
		} else {
			e.Uvarint(0)
			e.Uvarint(0)
		}
		e.Uvarint(uint64(len(f.Args)))
		for i := range f.Args {
			var bits byte
			if s != nil && i < len(s.ArgEscapes) {
				if s.ArgEscapes[i] {
					bits |= 1
				}
				if s.ArgMod[i] {
					bits |= 2
				}
				if s.ArgRef[i] {
					bits |= 4
				}
			} else {
				bits = 7
			}
			e.Byte(bits)
		}
	}

	e.Uvarint(uint64(r.TypedLoads))
	e.Uvarint(uint64(r.UntypedLoads))
	e.Uvarint(uint64(r.TypedStores))
	e.Uvarint(uint64(r.UntypedStores))
	for _, f := range m.Funcs {
		c := r.PerFunction[f.Name()]
		if c == nil {
			c = &Counts{}
		}
		e.Uvarint(uint64(c.TypedAccesses))
		e.Uvarint(uint64(c.UntypedAccesses))
	}
	return e.Bytes()
}

// Decode reconstructs a result from an encoding produced for exactly this
// module (same hash). Restored results answer alias, effect, and summary
// queries but carry no type information. A malformed or foreign encoding
// is an error carrying the byte offset where decoding stopped.
func Decode(data []byte, m *core.Module) (*Result, error) {
	r := wire.NewReader(data)
	fail := func() (*Result, error) {
		return nil, fmt.Errorf("dsa: offset %d: %w", r.Offset(), r.Err())
	}
	r.Expect(encodeMagic)
	// Each class is a flag byte, a pointee id and a site count.
	classes := make([]*Node, r.Count(3))
	for i := range classes {
		classes[i] = &Node{}
	}
	class := func(id uint64) *Node {
		if r.Err() == nil && id < uint64(len(classes)) {
			return classes[id]
		}
		r.Failf("class id %d out of range", id)
		return nil
	}
	res := &Result{
		PerFunction: map[string]*Counts{},
		nodes:       map[core.Value]*Node{},
		tainted:     map[*Node]bool{},
		effects:     map[string]*FuncEffects{},
		summaries:   map[string]*FuncSummary{},
		restored:    true,
	}
	for _, n := range classes {
		flags := r.Byte()
		n.Collapsed = flags&flagCollapsed != 0
		n.Unknown = flags&flagUnknown != 0
		n.Escaped = flags&flagEscaped != 0
		n.Heap = flags&flagHeap != 0
		n.Stack = flags&flagStack != 0
		n.Global = flags&flagGlobal != 0
		if flags&flagTainted != 0 {
			res.tainted[n] = true
		}
		if ptID := r.Uvarint(); ptID > 0 {
			n.pointee = class(ptID - 1)
		}
		// Each site is a kind byte and two strings.
		for k := r.Count(3); k > 0; k-- {
			n.Sites = append(n.Sites, Site{Kind: SiteKind(r.Byte()), Fn: r.Str(), Name: r.Str()})
		}
		if r.Err() != nil {
			return fail()
		}
	}

	vals := walkValues(m)
	if n := r.Uvarint(); r.Err() == nil && n != uint64(len(vals)) {
		r.Failf("encoding is for a different module (%d values, module has %d)", n, len(vals))
	}
	for _, v := range vals {
		if id := r.Uvarint(); id > 0 {
			res.nodes[v] = class(id - 1)
		}
	}
	if r.Err() != nil {
		return fail()
	}

	readSet := func() map[*Node]bool {
		set := map[*Node]bool{}
		for k := r.Count(1); k > 0; k-- {
			if n := class(r.Uvarint()); n != nil {
				set[n] = true
			}
		}
		return set
	}
	for _, f := range m.Funcs {
		flags := r.Byte()
		fe := &FuncEffects{
			Mod:        readSet(),
			Ref:        readSet(),
			ModAll:     flags&effModAll != 0,
			RefAll:     flags&effRefAll != 0,
			ModEscaped: flags&effModEscaped != 0,
			RefEscaped: flags&effRefEscaped != 0,
		}
		if n := r.Uvarint(); r.Err() == nil && n != uint64(len(f.Args)) {
			r.Failf("arg count mismatch for %s", f.Name())
		}
		if r.Err() != nil {
			return fail()
		}
		s := &FuncSummary{
			ArgEscapes:   make([]bool, len(f.Args)),
			ArgMod:       make([]bool, len(f.Args)),
			ArgRef:       make([]bool, len(f.Args)),
			ReturnsFresh: flags&effReturnsFresh != 0,
		}
		for i := range f.Args {
			bits := r.Byte()
			s.ArgEscapes[i] = bits&1 != 0
			s.ArgMod[i] = bits&2 != 0
			s.ArgRef[i] = bits&4 != 0
		}
		if r.Err() != nil {
			return fail()
		}
		res.effects[f.Name()] = fe
		res.summaries[f.Name()] = s
	}

	for _, dst := range []*int{&res.TypedLoads, &res.UntypedLoads, &res.TypedStores, &res.UntypedStores} {
		*dst = int(r.Uvarint())
	}
	for _, f := range m.Funcs {
		tv, uv := r.Uvarint(), r.Uvarint()
		if !f.IsDeclaration() {
			res.PerFunction[f.Name()] = &Counts{TypedAccesses: int(tv), UntypedAccesses: int(uv)}
		}
	}
	if r.Err() != nil {
		return fail()
	}
	return res, nil
}
