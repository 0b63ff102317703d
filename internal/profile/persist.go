package profile

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
)

// Counts is the persistable form of an execution profile. Where Data keys
// counts by *core.BasicBlock identity (valid only within one process),
// Counts keys them by function name and block layout index, which survive
// a bytecode round trip: the engine counts the module's own blocks without
// rewriting it, and the canonical encoding preserves block order. Counts
// from different runs of the same module therefore line up slot for slot
// and can be accumulated.
type Counts struct {
	// Funcs maps a function name to its per-block counts in layout order.
	Funcs map[string][]int64 `json:"funcs"`
	// Total is the sum of all block counts.
	Total int64 `json:"total"`
}

// CountsFromBlocks wraps the execution engine's own per-block counters
// (interp.Machine.BlockCounts: function name -> counts in block layout
// order) as a persistable profile. The engine counts every tier without
// instrumenting the module; Bind turns the result back into a Data for
// HotRegions/Reoptimize, and Machine.SeedProfile consumes the Funcs map
// on the way back in.
func CountsFromBlocks(funcs map[string][]int64) *Counts {
	c := &Counts{Funcs: map[string][]int64{}}
	for fn, per := range funcs {
		cp := append([]int64(nil), per...)
		c.Funcs[fn] = cp
		for _, n := range cp {
			c.Total += n
		}
	}
	return c
}

// Bind resolves persisted counts against a module with the same block
// structure, producing a Data usable by HotRegions/Reoptimize. Functions
// missing from the module are skipped (the profile may predate a rename);
// a count slice longer than the function's block list is an error, since
// it means the profile was collected on a different layout and binding it
// would attribute heat to the wrong blocks.
func (c *Counts) Bind(m *core.Module) (*Data, error) {
	d := &Data{Counts: map[*core.BasicBlock]int64{}}
	for _, f := range m.Funcs {
		per, ok := c.Funcs[f.Name()]
		if !ok {
			continue
		}
		if len(per) > len(f.Blocks) {
			return nil, fmt.Errorf("profile: function %%%s has %d blocks but profile has %d slots", f.Name(), len(f.Blocks), len(per))
		}
		for i, n := range per {
			d.Counts[f.Blocks[i]] = n
			d.Total += n
		}
	}
	return d, nil
}

// Merge accumulates o into c slot for slot (missing functions are adopted,
// shorter slices extended), the cross-run accumulation of §4.2's lifelong
// profile gathering.
func (c *Counts) Merge(o *Counts) {
	if c.Funcs == nil {
		c.Funcs = map[string][]int64{}
	}
	for fn, per := range o.Funcs {
		dst := c.Funcs[fn]
		for len(dst) < len(per) {
			dst = append(dst, 0)
		}
		for i, n := range per {
			dst[i] += n
		}
		c.Funcs[fn] = dst
	}
	c.Total += o.Total
}

// Equal reports whether two profiles hold identical counts.
func (c *Counts) Equal(o *Counts) bool {
	if c.Total != o.Total || len(c.Funcs) != len(o.Funcs) {
		return false
	}
	for fn, per := range c.Funcs {
		op, ok := o.Funcs[fn]
		if !ok || len(per) != len(op) {
			return false
		}
		for i := range per {
			if per[i] != op[i] {
				return false
			}
		}
	}
	return true
}

// File is the on-disk profile format shared by llvm-run's
// -profile-out/-profile-in and the lifelong store: the accumulated counts
// plus the epoch bookkeeping that invalidates stale optimized artifacts.
type File struct {
	// Epoch counts material profile changes. Optimized artifacts are keyed
	// by (module hash, pipeline, epoch); when Merge advances the epoch,
	// artifacts built against the previous epoch stop being served and the
	// idle reoptimizer rebuilds them against the richer profile.
	Epoch int64 `json:"epoch"`
	// EpochTotal is Counts.Total at the last epoch advance; the baseline
	// the materiality test compares against.
	EpochTotal int64  `json:"epoch_total"`
	Counts     Counts `json:"counts"`
}

// Merge accumulates a run's counts and reports whether the profile changed
// materially — defined as the accumulated total at least doubling since
// the last epoch advance (or the first nonzero counts arriving). Doubling
// means each epoch's artifacts were built on at most half the evidence now
// available, while the logarithmic growth keeps reoptimization from
// churning on every run.
func (f *File) Merge(c *Counts) (bumped bool) {
	f.Counts.Merge(c)
	if f.Counts.Total > 0 && (f.EpochTotal == 0 || f.Counts.Total >= 2*f.EpochTotal) {
		f.Epoch++
		f.EpochTotal = f.Counts.Total
		return true
	}
	return false
}

// EncodeFile serializes a profile file as deterministic JSON (object keys
// sort, so byte-identical profiles mean identical counts).
func EncodeFile(f *File) ([]byte, error) {
	return json.MarshalIndent(f, "", "\t")
}

// DecodeFile parses a profile file, rejecting structurally invalid input.
func DecodeFile(data []byte) (*File, error) {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("profile: corrupt profile file: %w", err)
	}
	var total int64
	for fn, per := range f.Counts.Funcs {
		for _, n := range per {
			if n < 0 {
				return nil, fmt.Errorf("profile: negative count in %%%s", fn)
			}
			total += n
		}
	}
	if total != f.Counts.Total {
		return nil, fmt.Errorf("profile: total %d does not match summed counts %d", f.Counts.Total, total)
	}
	return &f, nil
}
