package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// child runs one workload in a process of its own, so the heap, the
// garbage collector's state and peak_rss_mb are that workload's alone. Its
// report goes to stdout as it arrives; the result line is parsed.
func child(cfg config, workload string, seed int64, trace bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(cfg.seconds.Seconds()),
		"-trace", t, "-traced-ops", fmt.Sprint(cfg.tracedOps), "-dir", cfg.dir)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		os.Stdout.Write(out.Bytes())
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	if !res.Correct {
		return &res, fmt.Errorf("%s: %d of %d ops failed or the window was invalid", workload, res.Failed, res.Attempted)
	}
	return &res, nil
}

// runAll runs every workload, first untraced and then traced.
func runAll(cfg config) error {
	for _, trace := range []bool{false, true} {
		for _, w := range workloads {
			if _, err := child(cfg, w.Name, cfg.seed, trace); err != nil {
				return err
			}
		}
	}
	return nil
}

// selfCheckRuns is how many runs make one side of the self-check.
const selfCheckRuns = 5

// selfCheck measures the same code twice and holds the two against each
// other: for every workload and end-to-end metric it prints both medians,
// their quartiles and the relative difference beside the metric's bound,
// and fails when a pair disagrees by more than the bound. The two sides'
// runs alternate, each pair on a seed of its own.
func selfCheck(cfg config) error {
	w := os.Stdout
	bad := 0
	for _, wl := range workloads {
		sides := [2]map[string][]float64{{}, {}}
		for i := 0; i < selfCheckRuns; i++ {
			for s := range sides {
				res, err := child(cfg, wl.Name, cfg.seed+int64(i), false)
				if err != nil {
					return err
				}
				for name, v := range res.Metrics {
					sides[s][name] = append(sides[s][name], v.Value)
				}
			}
		}
		fmt.Fprintf(w, "%s\n  %-20s %14s %24s %14s %24s %8s %7s\n", wl.Name, "metric", "median A", "quartiles A", "median B", "quartiles B", "diff", "bound")
		for _, m := range endToEnd {
			a, b := sides[0][m.Name], sides[1][m.Name]
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			diff := (median(b) - median(a)) / median(a)
			if m.Better == "higher" {
				diff = -diff
			}
			verdict := ""
			if diff > m.Bound || -diff > m.Bound {
				verdict = "  DISAGREE"
				bad++
			}
			fmt.Fprintf(w, "  %-20s %14.4f %11.4f..%-11.4f %14.4f %11.4f..%-11.4f %+7.2f%% %6.1f%%%s\n",
				m.Name, median(a), a1, a3, median(b), b1, b3, 100*diff, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) differ between two sets of runs of the same code by more than their bound", bad)
	}
	return nil
}
