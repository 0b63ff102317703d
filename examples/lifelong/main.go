// Lifelong: the store-backed compilation loop (§3.6) in-process — the
// same machinery cmd/llvm-serve exposes over HTTP. A module is interned
// in a content-addressed store, compiled through the standard pipeline
// (cold) and served from cache (warm, byte-identical), executed with the
// engine's block counters on so its profile accumulates across runs, and finally
// reoptimized offline with profile-guided inlining and layout once the
// profile epoch advances. The store directory persists, so re-running
// this example starts warm — compilation results and profiles outlive
// the process, which is the "lifelong" in the paper's title.
package main

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/frontend/minic"
	"repro/internal/interp"
	"repro/internal/lifelong"
	"repro/internal/profile"
)

const program = `
static int hotwork(int x) {
	int r = x;
	int i;
	for (i = 0; i < 3; i++) r = r * 2 + i;
	return r % 1000;
}
int main() {
	int acc = 0;
	int i;
	for (i = 0; i < 500; i++) acc = (acc + hotwork(i)) % 100000;
	return acc % 251;
}
`

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lifelong:", err)
		os.Exit(1)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "lifelong-example-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := lifelong.Open(dir, 0)
	if err != nil {
		return err
	}

	m, err := minic.Compile("app", program)
	if err != nil {
		return err
	}

	// Cold compile: miss, full pipeline; warm compile: cache hit with
	// byte-identical output and zero pass work.
	cold, err := lifelong.Compile(st, m, "std")
	if err != nil {
		return err
	}
	fmt.Printf("cold compile: hit=%v  module %.12s…  artifact %d bytes\n",
		cold.Hit, cold.ModuleHash, len(cold.Data))
	warm, err := lifelong.Compile(st, m, "std")
	if err != nil {
		return err
	}
	fmt.Printf("warm compile: hit=%v  byte-identical=%v\n",
		warm.Hit, bytes.Equal(cold.Data, warm.Data))

	// "End-user runs": execute with block counting on, fold each run's
	// counts into the store. The profile epoch advances when the total
	// doubles.
	for i := 0; i < 3; i++ {
		mm, err := st.GetModule(cold.ModuleHash)
		if err != nil {
			return err
		}
		mc, err := interp.NewMachine(mm, os.Stdout)
		if err != nil {
			return err
		}
		mc.EnableProfile()
		code, err := mc.RunMain()
		if err != nil {
			return err
		}
		f, bumped, err := st.MergeProfile(cold.ModuleHash, profile.CountsFromBlocks(mc.BlockCounts()))
		if err != nil {
			return err
		}
		fmt.Printf("run %d: exit=%d  profile total=%d  epoch=%d  advanced=%v\n",
			i+1, code, f.Counts.Total, f.Epoch, bumped)
	}

	// The idle reoptimizer's work, done synchronously: build the
	// profile-guided artifact for the current epoch.
	res, err := lifelong.ReoptimizeStored(st, cold.ModuleHash, "std")
	if err != nil {
		return err
	}
	fmt.Printf("reoptimize: epoch=%d  hot calls inlined=%d  blocks reordered=%d\n",
		res.Epoch, res.HotInlined, res.Reordered)

	// The daemon now serves the reoptimized artifact for the same module.
	after, err := lifelong.Compile(st, m, "std")
	if err != nil {
		return err
	}
	fmt.Printf("post-reopt compile: hit=%v  reoptimized=%v  differs from cold=%v\n",
		after.Hit, after.Reoptimized, !bytes.Equal(cold.Data, after.Data))

	s := st.Stats()
	fmt.Printf("store: module hits=%d misses=%d  artifact hits=%d misses=%d\n",
		s.ModuleHits, s.ModuleMisses, s.ArtifactHits, s.ArtifactMisses)
	return nil
}
