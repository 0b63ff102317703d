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
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/analysis"
	"repro/internal/core"
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
	var out []byte
	out = append(out, Magic[:]...)
	var tmp [binary.MaxVarintLen64]byte
	vu := func(v uint64) { out = append(out, tmp[:binary.PutUvarint(tmp[:], v)]...) }
	str := func(s string) { vu(uint64(len(s))); out = append(out, s...) }
	strs := func(ss []string) {
		vu(uint64(len(ss)))
		for _, s := range ss {
			str(s)
		}
	}
	vu(uint64(len(sums)))
	for _, s := range sums {
		str(s.Name)
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
		out = append(out, flags)
		vu(uint64(s.NumInstructions))
		strs(s.Callees)
		strs(s.UncaughtCallees)
		strs(s.ModGlobals)
		strs(s.RefGlobals)
	}
	return out
}

// Decode parses a summary sidecar.
func Decode(data []byte) ([]FunctionSummary, error) {
	if len(data) < 4 || string(data[:4]) != string(Magic[:]) {
		return nil, errors.New("summary: bad magic")
	}
	pos := 4
	vu := func() (uint64, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, errors.New("summary: truncated varint")
		}
		pos += n
		return v, nil
	}
	str := func() (string, error) {
		n, err := vu()
		if err != nil {
			return "", err
		}
		if pos+int(n) > len(data) {
			return "", errors.New("summary: truncated string")
		}
		s := string(data[pos : pos+int(n)])
		pos += int(n)
		return s, nil
	}
	strs := func() ([]string, error) {
		n, err := vu()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(data)) {
			return nil, errors.New("summary: bad list length")
		}
		if n == 0 {
			return nil, nil
		}
		out := make([]string, 0, n)
		for i := uint64(0); i < n; i++ {
			s, err := str()
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
		return out, nil
	}

	count, err := vu()
	if err != nil {
		return nil, err
	}
	if count > uint64(len(data)) {
		return nil, fmt.Errorf("summary: implausible count %d", count)
	}
	sums := make([]FunctionSummary, 0, count)
	for i := uint64(0); i < count; i++ {
		var s FunctionSummary
		if s.Name, err = str(); err != nil {
			return nil, err
		}
		if pos >= len(data) {
			return nil, errors.New("summary: truncated flags")
		}
		flags := data[pos]
		pos++
		s.IsDeclaration = flags&1 != 0
		s.Internal = flags&2 != 0
		s.HasUnwind = flags&4 != 0
		s.CallsIndirect = flags&8 != 0
		s.ModAny = flags&16 != 0
		s.RefAny = flags&32 != 0
		ni, err := vu()
		if err != nil {
			return nil, err
		}
		s.NumInstructions = int(ni)
		if s.Callees, err = strs(); err != nil {
			return nil, err
		}
		if s.UncaughtCallees, err = strs(); err != nil {
			return nil, err
		}
		if s.ModGlobals, err = strs(); err != nil {
			return nil, err
		}
		if s.RefGlobals, err = strs(); err != nil {
			return nil, err
		}
		sums = append(sums, s)
	}
	return sums, nil
}
