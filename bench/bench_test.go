package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

const testRoot = ".." // go test runs in bench/

func TestBenchmarkFileMatchesRegistry(t *testing.T) {
	if err := validateFile(filepath.Join(testRoot, "BENCHMARK.json")); err != nil {
		t.Fatal(err)
	}
}

// TestEveryMetricEmitted runs every workload and probe at a tiny scale,
// timed and traced, and requires each run to emit exactly its registered
// metric set, finite and with the registered unit, with every
// correctness check passing, and a trace whose spans are all closed and
// parented.
func TestEveryMetricEmitted(t *testing.T) {
	// Tiny scale: the small system stands in for DHFR, set-up is the
	// median of 2, jobs are one checkpoint chunk long. Seed 2, since golden.json
	// holds for the real sizes at seed 1 only.
	dhfrSystem, setupReps, jobSteps = smallSystem, 2, jobCheckpoint
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rc := runConfig{Workload: w.Name, Seed: 2, Seconds: 0.2, Trace: trace, Root: testRoot}
			res, samples, err := measure(rc)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d checks missed", w.Name, trace, res.Failed, res.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, registry has %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not emitted", w.Name, trace, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s has unit %q, registry %q", w.Name, trace, m.Name, v.Unit, m.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s trace=%v: %s is %v", w.Name, trace, m.Name, v.Value)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end %s is %v, must never be 0", w.Name, m.Name, v.Value)
				}
				// A per-layer metric without samples is one that does not
				// apply to this workload and reads 0.
				if ok && samples[m.Name] == 0 && v.Value != 0 {
					t.Errorf("%s trace=%v: %s has a value but no sample count", w.Name, trace, m.Name)
				}
			}
			if trace {
				checkTrace(t, filepath.Join(rc.outDir(), "trace-"+w.Name+".json"))
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []*span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 70}, // overlaps a, as concurrent clients do
		{ID: 4, Parent: 2, Name: "c", Start: 10, End: 20},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 40, 2: 30, 3: 40, 4: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d: got %d, want %d", id, self[id], want)
		}
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal(raw, &ct); err != nil {
		t.Fatalf("%s does not parse: %v", path, err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	byID := make(map[int]chromeEvent)
	for _, e := range ct.TraceEvents {
		byID[e.Args["id"]] = e
	}
	roots := 0
	for _, e := range ct.TraceEvents {
		if e.Dur < 0 {
			t.Errorf("%s: span %d (%s) is not closed", path, e.Args["id"], e.Name)
		}
		parent := e.Args["parent"]
		if parent == 0 {
			roots++
			continue
		}
		p, ok := byID[parent]
		if !ok {
			t.Errorf("%s: span %d (%s) names parent %d, which is not in the trace", path, e.Args["id"], e.Name, parent)
			continue
		}
		// 1 µs of slack: the two ends are rounded separately.
		if e.TS < p.TS-1 || e.TS+e.Dur > p.TS+p.Dur+1 {
			t.Errorf("%s: span %d (%s) is not inside its parent %d (%s)", path, e.Args["id"], e.Name, parent, p.Name)
		}
	}
	if roots != 1 {
		t.Errorf("%s: %d spans without a parent, want the workload root only", path, roots)
	}
}
