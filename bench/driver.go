package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// childRun is one workload run in a child process: its result line and
// the sample counts printed just before it.
type childRun struct {
	runResult
	Samples map[string]int `json:"samples"`
}

// runChild runs one workload in its own process, passing its readable
// output through, and parses the result line.
func runChild(rc runConfig, workload string, trace bool) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(rc.Seed),
		"--seconds", fmt.Sprint(rc.Seconds), "--trace", t)
	cmd.Dir = rc.Root
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{}, err
	}
	if err := cmd.Start(); err != nil {
		return childRun{}, err
	}
	var cr childRun
	var last string
	sc := bufio.NewScanner(pipe)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if rest, ok := strings.CutPrefix(last, "#samples "); ok {
			if err := json.Unmarshal([]byte(rest), &cr.Samples); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: sample counts: %v\n", workload, err)
			}
			continue
		}
		if !strings.HasPrefix(last, `{"correct"`) {
			fmt.Println(last)
		}
	}
	runErr := cmd.Wait()
	if err := json.Unmarshal([]byte(last), &cr.runResult); err != nil {
		return cr, fmt.Errorf("%s: no result line (%v); child: %v", workload, err, runErr)
	}
	if runErr != nil {
		return cr, fmt.Errorf("%s: %d of %d checks missed: %w", workload, cr.Failed, cr.Attempted, runErr)
	}
	return cr, nil
}

// resultSet is the stored record of a full run: bench/out/result.json,
// and — copied by hand after a run worth keeping — bench/baseline.json.
type resultSet struct {
	Host      hostBlock                 `json:"host"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Workloads map[string]workloadResult `json:"workloads"`
}

type workloadResult struct {
	EndToEnd childRun `json:"end_to_end"`
	PerLayer childRun `json:"per_layer"`
}

// runAll runs every workload twice, each run in its own child process:
// the timed run for the end-to-end metrics, then the traced run for the
// per-layer ones.
func runAll(rc runConfig) error {
	set := resultSet{Host: readHost(rc.Root), Seed: rc.Seed, Seconds: rc.Seconds, Workloads: make(map[string]workloadResult)}
	var firstErr error
	for _, w := range workloads {
		entry := set.Workloads[w.Name]
		for _, trace := range []bool{false, true} {
			fmt.Printf("\n=== %s, trace %v ===\n", w.Name, trace)
			cr, err := runChild(rc, w.Name, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				if firstErr == nil {
					firstErr = err
				}
			}
			if trace {
				entry.PerLayer = cr
			} else {
				entry.EndToEnd = cr
			}
		}
		set.Workloads[w.Name] = entry
	}

	fmt.Printf("\n=== summary (seed %d, %g s per run) ===\n%s\n", rc.Seed, rc.Seconds, set.Host)
	fmt.Printf("%-14s", "end-to-end")
	for _, m := range endToEnd {
		fmt.Printf(" %18s", m.Name+" "+m.Unit)
	}
	fmt.Printf(" %12s\n", "fail_share")
	for _, w := range workloads {
		e := set.Workloads[w.Name].EndToEnd
		fmt.Printf("%-14s", w.Name)
		for _, m := range endToEnd {
			fmt.Printf(" %18.4f", e.Metrics[m.Name].Value)
		}
		fmt.Printf(" %8d/%-3d\n", e.Failed, e.Attempted)
	}

	b, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(rc.outDir(), "result.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("result set written to", path)
	return firstErr
}

// runAgree runs the end-to-end set twice on the same code and fails if
// any metric of any workload differs by more than its bound.
func runAgree(rc runConfig) error {
	var rounds [2]map[string]childRun
	for i := range rounds {
		rounds[i] = make(map[string]childRun)
		for _, w := range workloads {
			fmt.Printf("\n=== agree round %d: %s ===\n", i+1, w.Name)
			cr, err := runChild(rc, w.Name, false)
			if err != nil {
				return err
			}
			rounds[i][w.Name] = cr
		}
	}
	fmt.Printf("\n%-14s %-14s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "differ", "bound")
	disagree := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			a := rounds[0][w.Name].Metrics[m.Name].Value
			b := rounds[1][w.Name].Metrics[m.Name].Value
			diff := math.Abs(b-a) / a
			verdict := ""
			if diff > m.Bound {
				verdict = "  DISAGREE"
				disagree++
			}
			fmt.Printf("%-14s %-14s %14.4f %14.4f %8.2f%% %6.0f%%%s\n", w.Name, m.Name, a, b, 100*diff, 100*m.Bound, verdict)
		}
	}
	if disagree > 0 {
		return fmt.Errorf("%d metric/workload pairs differ by more than their bound", disagree)
	}
	return nil
}
