// Command bench is the one benchmark of the MD stack: four workloads,
// named end-to-end and per-layer metrics, a traced run, and a
// correctness gate. BENCHMARK.json at the repository root describes it
// to the driver; README.md in this directory describes it to people.
//
// Every layer is measured from outside, by timing calls to exported
// functions. The only in-program sources are obs.Recorder and
// Sharded.TransportStats, attached in the traced run only.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: how long one run of one
// workload measures. Sized so that the driver's 92 runs fit its time cap
// on a 2-core host with a fifth to spare.
const runSeconds = 22

// procStart approximates process start: setup_s counts from here.
var procStart = time.Now()

type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Root     string // checkout root: holds BENCHMARK.json and bench/

	tr *tracer // nil unless Trace
}

func (rc runConfig) outDir() string { return filepath.Join(rc.Root, "bench", "out") }

// scaled sizes a probe or a window: n in a run of runSeconds,
// proportionally fewer in a shorter one, never under lo.
func (rc runConfig) scaled(n, lo int) int {
	return max(lo, int(math.Round(float64(n)*rc.Seconds/runSeconds)))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line a workload run prints.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects one run's metrics and correctness checks, printing
// each as it arrives.
type report struct {
	want    map[string]metricDef // the set this run must emit
	known   map[string]metricDef // both sets
	metrics map[string]metricValue
	samples map[string]int
	trace   bool

	attempted, failed int
}

func newReport(trace bool) *report {
	r := &report{
		want:    make(map[string]metricDef),
		known:   make(map[string]metricDef),
		metrics: make(map[string]metricValue),
		samples: make(map[string]int),
		trace:   trace,
	}
	for _, m := range endToEnd {
		r.known[m.Name] = m
		if !trace {
			r.want[m.Name] = m
		}
	}
	for _, m := range perLayer {
		r.known[m.Name] = m
		if trace {
			r.want[m.Name] = m
		}
	}
	return r
}

// set records a registered metric with its sample count. A metric of
// the other run kind is printed as information only.
func (r *report) set(name string, v float64, n int) {
	def, ok := r.known[name]
	if !ok {
		panic("bench: metric " + name + " is not in the registry")
	}
	if _, dup := r.metrics[name]; dup {
		panic("bench: metric " + name + " set twice")
	}
	fmt.Printf("%-34s %16.6f %-6s n=%d\n", name, v, def.Unit, n)
	if _, ok := r.want[name]; ok {
		r.metrics[name] = metricValue{v, def.Unit}
		r.samples[name] = n
	}
}

// info prints a number that is not a metric.
func info(name string, v float64, unit string) {
	fmt.Printf("%-34s %16.6f %-6s (information)\n", name, v, unit)
}

// check counts one correctness check: a miss shows in failed/attempted
// and makes the run exit non-zero.
func (r *report) check(ok bool, format string, a ...any) {
	r.attempted++
	verdict := "ok"
	if !ok {
		r.failed++
		verdict = "MISS"
	}
	fmt.Printf("check %-4s %s\n", verdict, fmt.Sprintf(format, a...))
}

// finish closes the report: every wanted metric must be present and
// finite. In a traced run the per-layer metrics that do not apply to the
// workload read 0.
func (r *report) finish() (runResult, error) {
	for name, def := range r.want {
		v, ok := r.metrics[name]
		if !ok && r.trace {
			v = metricValue{0, def.Unit}
			r.metrics[name] = v
			ok = true
		}
		if !ok {
			return runResult{}, fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return runResult{}, fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	if r.attempted == 0 {
		return runResult{}, fmt.Errorf("no correctness check ran")
	}
	return runResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}, nil
}

// measure runs one workload in this process and returns its result and
// the sample count behind each metric.
func measure(rc runConfig) (runResult, map[string]int, error) {
	run, ok := workloadRuns[rc.Workload]
	if !ok {
		return runResult{}, nil, fmt.Errorf("unknown workload %q", rc.Workload)
	}
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", rc.Workload, rc.Seed, rc.Seconds, rc.Trace)
	fmt.Println(readHost(rc.Root))
	if err := os.MkdirAll(rc.outDir(), 0o755); err != nil {
		return runResult{}, nil, err
	}
	rep := newReport(rc.Trace)
	var root *span
	if rc.Trace {
		rc.tr = newTracer(procStart)
		root = rc.tr.add("workload:"+rc.Workload, nil, 0, procStart, time.Time{})
	}
	if err := run(rc, rep, root); err != nil {
		return runResult{}, nil, err
	}
	if rc.Trace {
		root.end()
		path, err := rc.tr.write(rc.outDir(), rc.Workload)
		if err != nil {
			return runResult{}, nil, err
		}
		printSelfTimes(rc.tr.spans)
		fmt.Println("trace written to", path)
	}
	res, err := rep.finish()
	return res, rep.samples, err
}

// runWorkload is the driver's form: one workload, its result as the
// last line of standard output, a non-zero exit on any correctness miss.
func runWorkload(rc runConfig) error {
	res, samples, err := measure(rc)
	if err != nil {
		return err
	}
	b, _ := json.Marshal(samples)
	fmt.Printf("#samples %s\n", b)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d correctness checks missed", rc.Workload, res.Failed, res.Attempted)
	}
	return nil
}

// workloadRuns maps each registered workload to its implementation.
var workloadRuns = map[string]func(runConfig, *report, *span) error{
	"dhfr_mono":    dhfrMono.run,
	"small_mono":   smallMono.run,
	"small_shard8": smallShard8.run,
	"service_jobs": runServiceJobs,
}

// findRoot locates the checkout root from the working directory: the
// driver runs from the root, `go run -C bench .` from bench/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..: run from the repository root or from bench/")
}

func main() {
	workload := flag.String("workload", "", "run this one workload in-process (the driver's form); empty runs all four, each in a child process")
	seed := flag.Int64("seed", 1, "feeds the velocity draw, the small system's build, job seeds and probe inputs")
	seconds := flag.Float64("seconds", runSeconds, "how long one run measures")
	trace := flag.Int("trace", 0, "with -workload: 1 runs the traced run (per-layer metrics, spans), 0 the timed run (end-to-end metrics)")
	validateOnly := flag.Bool("validate-only", false, "check BENCHMARK.json against the harness registry and exit")
	agree := flag.Bool("agree", false, "run the end-to-end set twice on this code and fail if any metric differs by more than its bound")
	flag.Parse()

	if err := mainErr(*workload, *seed, *seconds, *trace != 0, *validateOnly, *agree); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds float64, trace, validateOnly, agree bool) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	if validateOnly {
		if err := validateFile(filepath.Join(root, "BENCHMARK.json")); err != nil {
			return err
		}
		fmt.Printf("BENCHMARK.json matches the registry: %d workloads, %d end-to-end and %d per-layer metrics\n",
			len(workloads), len(endToEnd), len(perLayer))
		return nil
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	rc := runConfig{Workload: workload, Seed: seed, Seconds: seconds, Trace: trace, Root: root}
	switch {
	case workload != "":
		return runWorkload(rc)
	case agree:
		return runAgree(rc)
	default:
		return runAll(rc)
	}
}

// median and quantile work on a copy; q is in [0,1], linear between
// order statistics.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
