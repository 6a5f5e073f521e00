package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"

	"anton/internal/obs"
)

// metricDef names one metric. Bound is the share of the parent's median
// by which an end-to-end metric may get worse (per-layer metrics carry
// none).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// workloads is the registry BENCHMARK.json is checked against; README.md
// gives the longer reasons.
var workloads = []workloadDef{
	{"dhfr_mono", "paper yardstick: 23,558 atoms, working set outside cache, ~3/4 of a cycle in the pair path; a pair-kernel gain shows here"},
	{"small_mono", "645 atoms, cache-resident, mesh ~half a cycle and per-step fixed costs visible; a mesh gain shows here, a pair gain least"},
	{"small_shard8", "same system and seed through 8 shards: exchange, codec, transport; digest must equal small_mono's"},
	{"service_jobs", "closed loop of 2 HTTP clients against antond: the only workload with store, queue, checkpoint and ledger on the blocking path"},
}

// endToEnd is what a user of the system sees, measured with tracing off.
// step_ms_p50 is wall per simulation step as the caller sees it: over
// 4-step cycles on the engine workloads, over jobs (turnaround / steps)
// on service_jobs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"step_ms_p50", "ms", "lower", 0.25},
	{"steps_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer lists the single-layer metrics of the traced run. Layers are
// the internal/ package names. A metric that does not apply to a
// workload reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := []metricDef{
		{Name: "core.step_short_ms", Unit: "ms", Better: "lower"},
		{Name: "core.step_long_ms", Unit: "ms", Better: "lower"},
		{Name: "core.longrange_ms", Unit: "ms", Better: "lower"},
		{Name: "core.migration_ms", Unit: "ms", Better: "lower"},
		{Name: "core.cycle_ms_p90", Unit: "ms", Better: "lower"},
		{Name: "core.allocs_per_step", Unit: "count", Better: "lower"},
		{Name: "core.bytes_per_step", Unit: "B", Better: "lower"},
	}
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		m = append(m, metricDef{Name: "core.phase." + p.String() + "_ms", Unit: "ms", Better: "lower"})
	}
	return append(m,
		metricDef{Name: "core.phase_unaccounted_pct", Unit: "%", Better: "lower"},
		metricDef{Name: "core.match_efficiency", Unit: "ratio", Better: "higher"},
		metricDef{Name: "core.pairs_computed_per_step", Unit: "count", Better: "lower"},
		metricDef{Name: "core.mesh_interactions_per_eval", Unit: "count", Better: "lower"},
		metricDef{Name: "obs.overhead_pct", Unit: "%", Better: "lower"},
		metricDef{Name: "core.workers1_step_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "core.worker_speedup", Unit: "ratio", Better: "higher"},
		metricDef{Name: "core.shard.blocked_share", Unit: "ratio", Better: "lower"},
		metricDef{Name: "core.shard.overlap_share", Unit: "ratio", Better: "higher"},
		metricDef{Name: "core.shard.msgs_per_step", Unit: "count", Better: "lower"},
		metricDef{Name: "core.shard.wire_bytes_per_step", Unit: "B", Better: "lower"},
		metricDef{Name: "core.shard.compression_ratio", Unit: "ratio", Better: "higher"},
		metricDef{Name: "core.shard.retransmits", Unit: "count", Better: "lower"},
		metricDef{Name: "core.shard.barrier_step_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "core.shard.vs_mono_ratio", Unit: "ratio", Better: "lower"},
		metricDef{Name: "core.ckpt_write_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "core.ckpt_restore_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "core.ckpt_bytes", Unit: "B", Better: "lower"},
		metricDef{Name: "core.force_err_num", Unit: "ratio", Better: "lower"},
		metricDef{Name: "ppip.evaluate_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "ppip.build_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "htis.pairforce_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "htis.matchunit_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "fft.grid32_roundtrip_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "fft.grid64_roundtrip_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "fft.dist32_roundtrip_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "ewald.gse_longrange_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "refmd.step_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "core.vs_refmd_ratio", Unit: "ratio", Better: "lower"},
		metricDef{Name: "system.build_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "ledger.append_us", Unit: "us", Better: "lower"},
		metricDef{Name: "ledger.commit_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "ledger.verify_ms_per_krec", Unit: "ms", Better: "lower"},
		metricDef{Name: "service.submit_ms_p50", Unit: "ms", Better: "lower"},
		metricDef{Name: "service.queue_wait_s_p50", Unit: "s", Better: "lower"},
		metricDef{Name: "service.run_s_p50", Unit: "s", Better: "lower"},
		metricDef{Name: "service.run_overhead_pct", Unit: "%", Better: "lower"},
		metricDef{Name: "job_turnaround_s_p50", Unit: "s", Better: "lower"},
		metricDef{Name: "jobs_per_min", Unit: "1/min", Better: "higher"},
	)
}

// benchmarkFile mirrors BENCHMARK.json. Unknown keys are an error: the
// file has exactly these.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func (f benchmarkFile) marshal() ([]byte, error) {
	b, err := json.MarshalIndent(f, "", "  ")
	return append(b, '\n'), err
}

// registryFile is BENCHMARK.json as the registry defines it.
func registryFile() benchmarkFile {
	return benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// validateFile checks BENCHMARK.json at path against the contract's
// limits and against the harness's own registry: a metric or workload
// the file names and the harness does not emit (or the reverse) fails.
func validateFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(raw) > 64<<10 {
		return fmt.Errorf("%s is %d bytes, over 64 KiB", path, len(raw))
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var errs []string
	bad := func(format string, a ...any) { errs = append(errs, fmt.Sprintf(format, a...)) }

	if n := len(f.Command); n < 1 || n > 32 {
		bad("command has %d strings, want 1..32", n)
	}
	for _, c := range f.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			bad("command string %q is too long, absolute or leaves the repo", c)
		}
	}
	if n := len(f.Paths); n < 1 || n > 16 {
		bad("paths has %d entries, want 1..16", n)
	}
	for _, p := range f.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			bad("path %q is not a relative path of letters, digits, _ . - /", p)
		}
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		bad("run_seconds %d outside 1..60", f.RunSeconds)
	}
	if n := len(f.Workloads); n < 2 || n > 8 {
		bad("%d workloads, want 2..8", n)
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		bad("%d end_to_end metrics, want 1..16", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		bad("%d per_layer metrics, want 1..128", n)
	}

	seen := make(map[string]bool)
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			bad("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			bad("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range f.Workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			bad("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range f.EndToEnd {
		name("end_to_end", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			bad("end_to_end %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		bad(`end_to_end lacks setup_s with unit "s" and better "lower"`)
	}
	for _, m := range f.PerLayer {
		name("per_layer", m.Name)
		if m.Bound != 0 {
			bad("per_layer %s carries a bound", m.Name)
		}
	}
	for _, m := range append(append([]metricDef{}, f.EndToEnd...), f.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			bad("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			bad("metric %s: better %q", m.Name, m.Better)
		}
	}

	want, _ := registryFile().marshal()
	got, _ := f.marshal()
	if string(want) != string(got) {
		bad("file differs from the harness registry; expected content:\n%s", want)
	}
	if len(errs) > 0 {
		return fmt.Errorf("%s:\n  %s", path, strings.Join(errs, "\n  "))
	}
	return nil
}
