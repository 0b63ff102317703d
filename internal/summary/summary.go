// Package summary implements the interprocedural summaries of §3.3: "At
// compile-time, interprocedural summaries can be computed for each function
// in the program and attached to the bytecode. The link-time
// interprocedural optimizer can then process these interprocedural
// summaries as input instead of having to compute results from scratch.
// This technique can dramatically speed up incremental compilation when a
// small number of translation units are modified."
//
// A FunctionSummary captures what the link-time analyses need from a
// function body: its direct callees, whether it can unwind or escape to
// unknown code, its Mod/Ref global sets, and its size. Summaries serialize
// to a compact binary sidecar; Solve recomputes the whole-program
// may-unwind and Mod/Ref fixed points from summaries alone — without the
// bodies — and tests verify the result matches the from-scratch analyses.
package summary

import (
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/wire"
)

// FunctionSummary is the per-function abstraction attached to bytecode.
type FunctionSummary struct {
	Name string
	// IsDeclaration marks externals (everything unknown).
	IsDeclaration bool
	// Internal mirrors linkage (affects link-time assumptions).
	Internal bool
	// NumInstructions sizes the body (inlining decisions).
	NumInstructions int
	// Callees are direct call/invoke targets by name.
	Callees []string
	// HasUnwind: the body contains an unwind instruction.
	HasUnwind bool
	// CallsIndirect: contains an indirect call (unknown callee).
	CallsIndirect bool
	// UncaughtCallees lists direct callees invoked as plain calls (their
	// unwinds propagate); invoked-with-handler callees are excluded, as
	// the invoke catches the unwind.
	UncaughtCallees []string
	// Mod/Ref sets over named globals, plus unknown-memory bits.
	ModGlobals []string
	RefGlobals []string
	ModAny     bool
	RefAny     bool
}

// Compute builds summaries for every function in a module (the compile-time
// half of the technique; runs per translation unit).
func Compute(m *core.Module) []FunctionSummary {
	var out []FunctionSummary
	for _, f := range m.Funcs {
		s := FunctionSummary{
			Name:            f.Name(),
			IsDeclaration:   f.IsDeclaration(),
			Internal:        f.Linkage == core.InternalLinkage,
			NumInstructions: f.NumInstructions(),
		}
		seen := map[string]bool{}
		seenUncaught := map[string]bool{}
		f.ForEachInst(func(inst core.Instruction) bool {
			switch i := inst.(type) {
			case *core.UnwindInst:
				s.HasUnwind = true
			case *core.CallInst:
				if t := i.CalledFunction(); t != nil {
					if !seen[t.Name()] {
						seen[t.Name()] = true
						s.Callees = append(s.Callees, t.Name())
					}
					if !seenUncaught[t.Name()] {
						seenUncaught[t.Name()] = true
						s.UncaughtCallees = append(s.UncaughtCallees, t.Name())
					}
				} else {
					s.CallsIndirect = true
				}
			case *core.InvokeInst:
				if t, ok := i.Callee().(*core.Function); ok {
					if !seen[t.Name()] {
						seen[t.Name()] = true
						s.Callees = append(s.Callees, t.Name())
					}
				} else {
					s.CallsIndirect = true
				}
			}
			return true
		})
		// Local Mod/Ref (the per-function component only: the summary
		// consumer performs the interprocedural propagation itself, so we
		// must not bake transitive effects in — recompute locally).
		local := localModRef(f)
		s.ModAny, s.RefAny = local.modAny, local.refAny
		for g := range local.mod {
			s.ModGlobals = append(s.ModGlobals, g)
		}
		for g := range local.ref {
			s.RefGlobals = append(s.RefGlobals, g)
		}
		sort.Strings(s.ModGlobals)
		sort.Strings(s.RefGlobals)
		sort.Strings(s.Callees)
		sort.Strings(s.UncaughtCallees)
		out = append(out, s)
	}
	return out
}

type localMR struct {
	mod, ref       map[string]bool
	modAny, refAny bool
}

// localModRef computes a single function's own memory effects (no call
// propagation), mirroring analysis.ModRef's local pass.
func localModRef(f *core.Function) localMR {
	l := localMR{mod: map[string]bool{}, ref: map[string]bool{}}
	if f.IsDeclaration() {
		l.modAny, l.refAny = true, true
		return l
	}
	f.ForEachInst(func(inst core.Instruction) bool {
		switch i := inst.(type) {
		case *core.LoadInst:
			if g, ok := analysis.TraceToGlobal(i.Ptr()); ok {
				l.ref[g.Name()] = true
			} else if !analysis.PointsToLocalFrame(i.Ptr()) {
				l.refAny = true
			}
		case *core.StoreInst:
			if g, ok := analysis.TraceToGlobal(i.Ptr()); ok {
				l.mod[g.Name()] = true
			} else if !analysis.PointsToLocalFrame(i.Ptr()) {
				l.modAny = true
			}
		case *core.FreeInst:
			l.modAny = true
		case *core.CallInst:
			if i.CalledFunction() == nil {
				l.modAny, l.refAny = true, true
			}
		case *core.InvokeInst:
			if _, direct := i.Callee().(*core.Function); !direct {
				l.modAny, l.refAny = true, true
			}
		}
		return true
	})
	return l
}

// ---------------------------------------------------------------------------
// Whole-program solving from summaries (the link-time half)

// Solved is the whole-program result derived from summaries alone.
type Solved struct {
	// MayUnwind per function name.
	MayUnwind map[string]bool
	// Mod/Ref per function name over global names.
	Mod, Ref       map[string]map[string]bool
	ModAny, RefAny map[string]bool
}

// Solve merges per-unit summaries (later definitions override earlier
// declarations of the same name, as the linker would) and computes the
// interprocedural fixed points without any function bodies.
func Solve(units ...[]FunctionSummary) *Solved {
	byName := map[string]FunctionSummary{}
	for _, unit := range units {
		for _, s := range unit {
			if prev, ok := byName[s.Name]; ok && !prev.IsDeclaration {
				continue // keep the definition
			}
			byName[s.Name] = s
		}
	}

	sv := &Solved{
		MayUnwind: map[string]bool{},
		Mod:       map[string]map[string]bool{},
		Ref:       map[string]map[string]bool{},
		ModAny:    map[string]bool{},
		RefAny:    map[string]bool{},
	}
	// Seed.
	for name, s := range byName {
		sv.MayUnwind[name] = s.IsDeclaration || s.HasUnwind
		mod := map[string]bool{}
		ref := map[string]bool{}
		for _, g := range s.ModGlobals {
			mod[g] = true
		}
		for _, g := range s.RefGlobals {
			ref[g] = true
		}
		sv.Mod[name], sv.Ref[name] = mod, ref
		sv.ModAny[name] = s.ModAny || s.IsDeclaration
		sv.RefAny[name] = s.RefAny || s.IsDeclaration
	}
	// Propagate to a fixed point.
	for changed := true; changed; {
		changed = false
		for name, s := range byName {
			if s.IsDeclaration {
				continue
			}
			// Unwind flows through plain calls (not invokes) and unknown
			// callees.
			if !sv.MayUnwind[name] {
				esc := s.CallsIndirect
				for _, c := range s.UncaughtCallees {
					if _, known := byName[c]; !known || sv.MayUnwind[c] {
						esc = true
						break
					}
				}
				if esc {
					sv.MayUnwind[name] = true
					changed = true
				}
			}
			// Mod/Ref flows through every call edge.
			for _, c := range s.Callees {
				if _, known := byName[c]; !known {
					if !sv.ModAny[name] || !sv.RefAny[name] {
						sv.ModAny[name], sv.RefAny[name] = true, true
						changed = true
					}
					continue
				}
				if sv.ModAny[c] && !sv.ModAny[name] {
					sv.ModAny[name] = true
					changed = true
				}
				if sv.RefAny[c] && !sv.RefAny[name] {
					sv.RefAny[name] = true
					changed = true
				}
				for g := range sv.Mod[c] {
					if !sv.Mod[name][g] {
						sv.Mod[name][g] = true
						changed = true
					}
				}
				for g := range sv.Ref[c] {
					if !sv.Ref[name][g] {
						sv.Ref[name][g] = true
						changed = true
					}
				}
			}
			if s.CallsIndirect && (!sv.ModAny[name] || !sv.RefAny[name]) {
				sv.ModAny[name], sv.RefAny[name] = true, true
				changed = true
			}
		}
	}
	return sv
}

// ---------------------------------------------------------------------------
// Serialization (the "attached to the bytecode" part)

// Magic identifies a summary sidecar blob.
var Magic = [4]byte{'L', 'L', 'S', 'M'}

// Encode serializes summaries to the compact sidecar format.
func Encode(sums []FunctionSummary) []byte {
	var w wire.Writer
	w.Raw(Magic[:])
	strs := func(ss []string) {
		w.Uvarint(uint64(len(ss)))
		for _, s := range ss {
			w.Str(s)
		}
	}
	w.Uvarint(uint64(len(sums)))
	for _, s := range sums {
		w.Str(s.Name)
		var flags byte
		if s.IsDeclaration {
			flags |= 1
		}
		if s.Internal {
			flags |= 2
		}
		if s.HasUnwind {
			flags |= 4
		}
		if s.CallsIndirect {
			flags |= 8
		}
		if s.ModAny {
			flags |= 16
		}
		if s.RefAny {
			flags |= 32
		}
		w.Byte(flags)
		w.Uvarint(uint64(s.NumInstructions))
		strs(s.Callees)
		strs(s.UncaughtCallees)
		strs(s.ModGlobals)
		strs(s.RefGlobals)
	}
	return w.Bytes()
}

// Decode parses a summary sidecar. A malformed blob is an error carrying
// the byte offset where decoding stopped.
func Decode(data []byte) ([]FunctionSummary, error) {
	r := wire.NewReader(data)
	strs := func() []string {
		// Each string is at least its length byte; an empty list stays nil.
		var out []string
		if n := r.Count(1); n > 0 {
			out = make([]string, n)
			for i := range out {
				out[i] = r.Str()
			}
		}
		return out
	}
	r.Expect(string(Magic[:]))
	// Each summary is at least a name, a flag byte, a size and four lists.
	sums := make([]FunctionSummary, r.Count(7))
	for i := range sums {
		s := &sums[i]
		s.Name = r.Str()
		flags := r.Byte()
		s.IsDeclaration = flags&1 != 0
		s.Internal = flags&2 != 0
		s.HasUnwind = flags&4 != 0
		s.CallsIndirect = flags&8 != 0
		s.ModAny = flags&16 != 0
		s.RefAny = flags&32 != 0
		s.NumInstructions = int(r.Uvarint())
		s.Callees = strs()
		s.UncaughtCallees = strs()
		s.ModGlobals = strs()
		s.RefGlobals = strs()
		if r.Err() != nil {
			break
		}
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("summary: offset %d: %w", r.Offset(), r.Err())
	}
	return sums, nil
}
