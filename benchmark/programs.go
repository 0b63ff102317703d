package main

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/bytecode"
	"repro/internal/core"
	"repro/internal/frontend/minic"
	"repro/internal/interp"
	"repro/internal/linker"
	"repro/internal/passes"
	"repro/internal/workload"
)

// runHotIterFactor multiplies every profile's LoopIters on run_hot so one
// /run is a few milliseconds of execution, not mostly request overhead.
// Frozen here: changing it changes the workload, which is a benchmark PR.
const runHotIterFactor = 50

// maxSteps bounds every reference and replay run; the suite's programs
// finish far below it, so hitting it is a bug, never a slow machine.
const maxSteps = 500_000_000

// program is one generated benchmark program: the paper's suite profile,
// reseeded, with its MiniC translation units.
type program struct {
	name  string
	units []string
}

func (p *program) srcBytes() int {
	n := 0
	for _, u := range p.units {
		n += len(u)
	}
	return n
}

// suite generates the fifteen SPEC-analogue programs of workload.Suite().
// The seed perturbs every profile's Seed (the constants of the generated
// code); the shape parameters that make a profile stand in for its SPEC
// program stay fixed, so a different seed is a different program of the
// same kind. variant separates the working-set copies of one seed, and
// iterFactor scales runtime work.
func suite(seed int64, variant, iterFactor int) []*program {
	var out []*program
	for _, pr := range workload.Suite() {
		pr.Seed = pr.Seed*1_000_003 + seed*7919 + int64(variant)*104_729
		pr.LoopIters *= iterFactor
		name := pr.Name
		if iterFactor != 1 {
			name += fmt.Sprintf(".x%d", iterFactor)
		}
		if variant > 0 {
			name += fmt.Sprintf(".v%d", variant)
		}
		out = append(out, &program{name: name, units: workload.Generate(pr).Units})
	}
	return out
}

// buildLinked compiles every unit, optionally runs the per-unit standard
// pipeline (§3.2 step 3), links, internalizes and verifies. Without std it
// is the unoptimised module: what clients post to /compile, and what the
// output oracle executes.
func buildLinked(p *program, std bool) (*core.Module, error) {
	mods := make([]*core.Module, 0, len(p.units))
	for i, src := range p.units {
		m, err := minic.Compile(fmt.Sprintf("%s.u%d", p.name, i), src)
		if err != nil {
			return nil, fmt.Errorf("%s unit %d: %w", p.name, i, err)
		}
		if std {
			pm := passes.NewPassManager()
			pm.AddStandardPipeline()
			if _, err := pm.Run(m); err != nil {
				return nil, fmt.Errorf("%s unit %d: %w", p.name, i, err)
			}
		}
		mods = append(mods, m)
	}
	linked, err := linker.Link(p.name, mods...)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	passes.NewInternalize().RunOnModule(linked)
	if err := core.Verify(linked); err != nil {
		return nil, fmt.Errorf("%s: %w", p.name, err)
	}
	return linked, nil
}

// outcome is what a program run is judged by.
type outcome struct {
	Exit   int64  `json:"exit_code"`
	Output string `json:"output"`
	Steps  int64  `json:"steps,omitempty"`
}

// runTier0 executes m on the tree-walking interpreter, the reference
// semantics every other tier and every optimised artifact must match.
func runTier0(m *core.Module) (outcome, error) {
	var out strings.Builder
	mc, err := interp.NewMachine(m, &out)
	if err != nil {
		return outcome{}, err
	}
	mc.SetTier(interp.TierInterp)
	mc.MaxSteps = maxSteps
	code, err := runToExit(mc)
	if err != nil {
		return outcome{}, err
	}
	return outcome{Exit: code, Output: out.String(), Steps: mc.Steps}, nil
}

// runToExit runs main; an explicit exit() is a normal outcome.
func runToExit(mc *interp.Machine) (int64, error) {
	v, err := mc.RunMain()
	var ee *interp.ExitError
	if errors.As(err, &ee) {
		return ee.Code, nil
	}
	return v, err
}

// checkArtifact decodes optimised bytecode, verifies it and runs it on
// tier 0 against the reference: the after-window check that what the
// system served still computes what the source said.
func checkArtifact(data []byte, want outcome) error {
	m, err := bytecode.Decode(data)
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if err := core.Verify(m); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	got, err := runTier0(m)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	if got.Exit != want.Exit || got.Output != want.Output {
		return fmt.Errorf("exit %d output %q, reference exit %d output %q", got.Exit, got.Output, want.Exit, want.Output)
	}
	return nil
}

// newMachine prepares a machine the way the daemon's /run does.
func newMachine(m *core.Module, prog *interp.Program, tier interp.TierPolicy) (*interp.Machine, error) {
	mc, err := interp.NewMachine(m, io.Discard)
	if err != nil {
		return nil, err
	}
	mc.MaxSteps = maxSteps
	mc.SetTier(tier)
	if err := mc.AttachProgram(prog); err != nil {
		return nil, err
	}
	return mc, nil
}
