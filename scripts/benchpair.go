//go:build ignore

// Paired benchmark runs of the working tree against a parent ref on one
// workload of BENCHMARK.json. Run from the repository root via
//
//	go run scripts/benchpair.go -parent <ref> -workload W [-n 10] [-seed 1]
//
// (or make bench-ab PARENT=<ref> WORKLOAD=W). Both sides run from fresh
// copies under .bench_build/: the parent extracted with git archive, the
// working tree as its tracked and untracked, non-ignored files (so an
// uncommitted change is measured as it stands). Each pair runs
// `bash bench/run.sh --workload W --seed S --seconds <run_seconds> --trace 0`
// once in each copy, the side that goes first alternating from pair to
// pair. Per end-to-end metric it prints both medians, the median of the
// paired differences (change - parent), the parent's quartile spread and
// the change's wins out of n, then every run whose result line says
// "correct": false. The copies are removed at exit; nothing else in the
// repository is written.
package main

import (
	"archive/tar"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkFile struct {
	RunSeconds int         `json:"run_seconds"`
	EndToEnd   []metricDef `json:"end_to_end"`
}

// runResult is the last line bench/run.sh prints for one workload run.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	parent := flag.String("parent", "", "git ref of the parent side (required)")
	workload := flag.String("workload", "", "BENCHMARK.json workload to run (required)")
	n := flag.Int("n", 10, "pairs of runs")
	seed := flag.Int64("seed", 1, "workload seed, the same on both sides")
	flag.Parse()
	if *parent == "" || *workload == "" || *n < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*parent, *workload, *n, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func run(parent, workload string, n int, seed int64) error {
	var bf benchmarkFile
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(".bench_build", "pair-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	tmp, err = filepath.Abs(tmp)
	if err != nil {
		return err
	}
	trees := [2]string{filepath.Join(tmp, "parent"), filepath.Join(tmp, "change")}
	if err := extractRef(parent, trees[0]); err != nil {
		return fmt.Errorf("extracting %s: %w", parent, err)
	}
	if err := copyWorkingTree(trees[1]); err != nil {
		return fmt.Errorf("copying the working tree: %w", err)
	}

	names := [2]string{"parent", "change"}
	var results [2][]runResult
	var bad []string
	for i := range n {
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, side := range order {
			fmt.Fprintf(os.Stderr, "benchpair: pair %d/%d, %s\n", i+1, n, names[side])
			res, err := runOnce(trees[side], workload, seed, bf.RunSeconds)
			if err != nil {
				return fmt.Errorf("pair %d, %s: %w", i+1, names[side], err)
			}
			if !res.Correct {
				bad = append(bad, fmt.Sprintf("pair %d %s: correct false, %d of %d checks failed",
					i+1, names[side], res.Failed, res.Attempted))
			}
			results[side] = append(results[side], res)
		}
	}

	fmt.Printf("%s, %d pairs, seed %d: parent %s vs the working tree (%d s runs, alternated)\n",
		workload, n, seed, parent, bf.RunSeconds)
	fmt.Printf("%-14s %-5s %13s %13s %15s %21s %8s\n",
		"metric", "unit", "parent median", "change median", "median diff", "parent Q1..Q3 (IQR)", "wins")
	for _, m := range bf.EndToEnd {
		var p, c, d []float64
		wins := 0
		for i := range n {
			pv, pok := results[0][i].Metrics[m.Name]
			cv, cok := results[1][i].Metrics[m.Name]
			if !pok || !cok {
				continue
			}
			p, c, d = append(p, pv.Value), append(c, cv.Value), append(d, cv.Value-pv.Value)
			if m.Better == "lower" && cv.Value < pv.Value || m.Better == "higher" && cv.Value > pv.Value {
				wins++
			}
		}
		if len(d) == 0 {
			fmt.Printf("%-14s %-5s %13s\n", m.Name, m.Unit, "(not reported)")
			continue
		}
		q1, q3 := quantile(p, 0.25), quantile(p, 0.75)
		fmt.Printf("%-14s %-5s %13.4g %13.4g %+15.4g %9.4g..%-9.4g (%.3g) %4d/%d\n",
			m.Name, m.Unit, quantile(p, 0.5), quantile(c, 0.5), quantile(d, 0.5), q1, q3, q3-q1, wins, len(d))
	}
	if len(bad) == 0 {
		fmt.Println("every run correct")
	}
	for _, b := range bad {
		fmt.Println(b)
	}
	return nil
}

// runOnce runs the workload once in tree and parses its result line.
func runOnce(tree, workload string, seed int64, seconds int) (runResult, error) {
	cmd := exec.Command("bash", "bench/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = tree
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("no result line (%v); run: %v", err, runErr)
	}
	// A run whose checks miss exits non-zero; its result line still
	// reports the metrics and "correct": false.
	var exit *exec.ExitError
	if runErr != nil && !errors.As(runErr, &exit) {
		return res, runErr
	}
	return res, nil
}

// extractRef writes the tree of ref into dir.
func extractRef(ref, dir string) error {
	out, err := exec.Command("git", "archive", "--format=tar", ref).Output()
	if err != nil {
		return err
	}
	tr := tar.NewReader(bytes.NewReader(out))
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		path := filepath.Join(dir, filepath.FromSlash(h.Name))
		switch h.Typeflag {
		case tar.TypeDir:
			err = os.MkdirAll(path, 0o755)
		case tar.TypeReg:
			err = writeFile(path, tr, h.FileInfo().Mode())
		}
		if err != nil {
			return err
		}
	}
}

// copyWorkingTree copies the working tree's tracked and untracked,
// non-ignored files into dir.
func copyWorkingTree(dir string) error {
	out, err := exec.Command("git", "ls-files", "-z", "--cached", "--others", "--exclude-standard").Output()
	if err != nil {
		return err
	}
	files := strings.Split(strings.TrimRight(string(out), "\x00"), "\x00")
	sort.Strings(files)
	for _, f := range files {
		fi, err := os.Lstat(f)
		if errors.Is(err, os.ErrNotExist) {
			continue // deleted in the working tree
		}
		if err != nil {
			return err
		}
		if !fi.Mode().IsRegular() {
			continue
		}
		src, err := os.Open(f)
		if err != nil {
			return err
		}
		err = writeFile(filepath.Join(dir, filepath.FromSlash(f)), src, fi.Mode())
		src.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

func writeFile(path string, r io.Reader, mode os.FileMode) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, mode.Perm())
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the p-quantile of xs, interpolating between ranks.
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
