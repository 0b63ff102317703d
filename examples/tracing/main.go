// Tracing: the paper's runtime-optimization strategy (§3.5) and idle-time
// reoptimizer (§3.6) end to end. An "end-user run" collects per-block
// counts from the execution engine's own counters (no probes are inserted
// into the module), hot loop regions are detected, the most frequent path
// through the hottest region is extracted as a trace, and finally the
// offline reoptimizer uses the profile for aggressive profile-guided
// inlining and hot-first layout — on the preserved IR, which is the whole point of keeping the
// representation around for the program's lifetime.
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/frontend/minic"
	"repro/internal/interp"
	"repro/internal/passes"
	"repro/internal/profile"
)

const program = `
/* An "end-user workload": mostly-taken fast path, rare slow path. */
static int checksum(int x) { return (x * 2654435761) % 97; }
static int slowpath(int x) {
	int r = 0;
	int i;
	for (i = 0; i < 16; i++) r += (x + i) % 7;
	return r;
}

int main() {
	int acc = 0;
	int i;
	for (i = 0; i < 2000; i++) {
		if (checksum(i) == 0) {
			acc += slowpath(i);   /* ~1% of iterations */
		} else {
			acc += checksum(acc + i);
		}
	}
	return acc % 251;
}
`

func main() {
	m, err := minic.Compile("traced", program)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	pm := passes.NewPassManager()
	pm.AddStandardPipeline()
	pm.Run(m)

	// Reference behavior.
	ref, _ := interp.NewMachine(m, nil)
	want, err := ref.RunMain()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("program result: %d (%d steps uninstrumented)\n", want, ref.Steps)

	// 1. Profile an end-user run with the engine's per-block counters.
	mc, _ := interp.NewMachine(m, nil)
	mc.EnableProfile()
	if _, err := mc.RunMain(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data, err := profile.CountsFromBlocks(mc.BlockCounts()).Bind(m)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("profiled %d block executions across the run\n", data.Total)

	// 2. Hot-region detection.
	regions := data.HotRegions(m, 0.10)
	fmt.Printf("hot regions (>=10%% of execution): %d\n", len(regions))
	for _, r := range regions {
		fmt.Printf("  loop at %%%s in %%%s: %.0f%% coverage, header count %d\n",
			r.Loop.Header.Name(), r.Fn.Name(), 100*r.Coverage, r.HeaderCount)
	}

	// 3. Trace formation through the hottest region.
	if len(regions) > 0 {
		tr := data.FormTrace(regions[0])
		fmt.Printf("hot path: %s\n", tr)
	}

	// 4. Idle-time reoptimization with the end-user profile.
	res := profile.Reoptimize(m, data, profile.DefaultReoptOptions())
	fmt.Printf("reoptimizer: inlined %d hot call sites, reordered %d functions, %d scalar clean-ups\n",
		res.HotInlined, res.Reordered, res.ScalarOpts)
	if err := core.Verify(m); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	after, _ := interp.NewMachine(m, nil)
	got, err := after.RunMain()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if got != want {
		fmt.Fprintf(os.Stderr, "MISMATCH %d vs %d\n", got, want)
		os.Exit(1)
	}
	fmt.Printf("after reoptimization: result %d (unchanged), %d steps (was %d)\n",
		got, after.Steps, ref.Steps)
}
