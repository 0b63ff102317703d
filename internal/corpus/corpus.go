// Package corpus builds the fixed module corpus that whole-corpus tests
// check the IR against: every workload program linked raw and linked after
// the standard, internalize and link-time pipelines, followed by every .ll
// module under examples/, in a fixed order. It is the same corpus the
// codegen goldens pin.
package corpus

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/frontend/minic"
	"repro/internal/linker"
	"repro/internal/passes"
	"repro/internal/workload"
)

// Module is one named member of the corpus.
type Module struct {
	Name string
	M    *core.Module
}

// Golden builds the whole corpus. root is the repository root relative to
// the caller's working directory (for a package test, "../..").
func Golden(root string) ([]Module, error) {
	var out []Module
	for _, p := range workload.Suite() {
		for _, opt := range []bool{false, true} {
			m, err := Suite(p, opt)
			if err != nil {
				return nil, err
			}
			name := p.Name + "/raw"
			if opt {
				name = p.Name + "/lto"
			}
			out = append(out, Module{name, m})
		}
	}
	ex, err := Examples(root)
	if err != nil {
		return nil, err
	}
	return append(out, ex...), nil
}

// Examples parses every .ll module under root/examples/, in path order.
func Examples(root string) ([]Module, error) {
	files, err := filepath.Glob(filepath.Join(root, "examples", "*", "*.ll"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	var out []Module
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return nil, err
		}
		name := filepath.ToSlash(rel)
		m, err := asm.ParseModule(name, string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %v", name, err)
		}
		out = append(out, Module{name, m})
	}
	return out, nil
}

// Suite compiles and links one workload program; with opt it runs the
// standard pipeline per unit, then internalize and the link-time pipeline
// on the linked module.
func Suite(p workload.Profile, opt bool) (*core.Module, error) {
	prog := workload.Generate(p)
	var mods []*core.Module
	for i, src := range prog.Units {
		m, err := minic.Compile(fmt.Sprintf("%s.u%d", p.Name, i), src)
		if err != nil {
			return nil, fmt.Errorf("%s unit %d: %v", p.Name, i, err)
		}
		if opt {
			if _, err := passes.NewPassManager().AddStandardPipeline().Run(m); err != nil {
				return nil, fmt.Errorf("%s unit %d: %v", p.Name, i, err)
			}
		}
		mods = append(mods, m)
	}
	linked, err := linker.Link(p.Name, mods...)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", p.Name, err)
	}
	if opt {
		passes.NewInternalize().RunOnModule(linked)
		if _, err := passes.NewPassManager().AddLinkTimePipeline().Run(linked); err != nil {
			return nil, fmt.Errorf("%s: %v", p.Name, err)
		}
	}
	if err := core.Verify(linked); err != nil {
		return nil, fmt.Errorf("%s: %v", p.Name, err)
	}
	return linked, nil
}
