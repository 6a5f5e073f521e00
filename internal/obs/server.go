package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"anton/internal/obs/health"
)

// Telemetry is the live export surface of a running simulation: an HTTP
// handler serving
//
//	/metrics  — Prometheus text exposition from the Recorder snapshot
//	            and the latest per-step sample
//	/healthz  — the watchdog registry's status as JSON (HTTP 503 when a
//	            monitor is latched critical)
//	/trace    — the step tracer's ring as Chrome trace-event JSON
//
// The simulation loop owns the Recorder/Tracer/Registry and periodically
// Publishes immutable copies; handlers only ever read those copies, so
// the engine's single-goroutine observability contract is untouched.
// The process owns the listener: it serves Handler from its own
// http.Server and shuts that server down itself.
type Telemetry struct {
	mu         sync.RWMutex
	snap       Snapshot
	haveSnap   bool
	latest     StepSample
	haveLatest bool
	status     health.Status
	haveStatus bool
	traceJSON  []byte
}

// NewTelemetry builds an empty telemetry surface.
func NewTelemetry() *Telemetry { return &Telemetry{} }

// PublishSnapshot installs the current Recorder snapshot.
func (t *Telemetry) PublishSnapshot(s Snapshot) {
	t.mu.Lock()
	t.snap, t.haveSnap = s, true
	t.mu.Unlock()
}

// StepSample is one per-step entry of the live telemetry: the
// thermodynamic state a dashboard plots against step index.
type StepSample struct {
	Step            int64   `json:"step"`
	TimeFs          float64 `json:"time_fs"`
	Temperature     float64 `json:"temperature_k"`
	TotalEnergy     float64 `json:"total_energy"`
	PotentialEnergy float64 `json:"potential_energy"`
	KineticEnergy   float64 `json:"kinetic_energy"`
}

// PublishSample installs the latest per-step sample.
func (t *Telemetry) PublishSample(s StepSample) {
	t.mu.Lock()
	t.latest, t.haveLatest = s, true
	t.mu.Unlock()
}

// PublishHealth installs a watchdog status copy, stamped with this
// process's observability schema.
func (t *Telemetry) PublishHealth(s health.Status) {
	s.Schema = SchemaVersion
	t.mu.Lock()
	t.status, t.haveStatus = s, true
	t.mu.Unlock()
}

// PublishTrace renders and installs the tracer's current ring. Must be
// called from the goroutine that owns the tracer.
func (t *Telemetry) PublishTrace(tr *Tracer) error {
	b, err := tr.ExportJSON()
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.traceJSON = b
	t.mu.Unlock()
	return nil
}

// Handler returns the telemetry mux.
func (t *Telemetry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", t.serveMetrics)
	mux.HandleFunc("/healthz", t.serveHealthz)
	mux.HandleFunc("/trace", t.serveTrace)
	return mux
}

func (t *Telemetry) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var snap *Snapshot
	if t.haveSnap {
		snap = &t.snap
	}
	var latest *StepSample
	if t.haveLatest {
		latest = &t.latest
	}
	var status *health.Status
	if t.haveStatus {
		status = &t.status
	}
	WriteProm(w, snap, latest, status)
}

func (t *Telemetry) serveHealthz(w http.ResponseWriter, _ *http.Request) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	w.Header().Set("Content-Type", "application/json")
	if !t.haveStatus {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintf(w, "{\"schema\":%q,\"status\":\"unknown\"}\n", SchemaVersion)
		return
	}
	if t.status.Worst >= health.SevCrit {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(t.status)
}

func (t *Telemetry) serveTrace(w http.ResponseWriter, _ *http.Request) {
	t.mu.RLock()
	b := t.traceJSON
	t.mu.RUnlock()
	if b == nil {
		http.Error(w, "no trace published", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
}

// promEscape sanitizes a label value for the Prometheus text format.
func promEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// WriteProm renders the observability state in Prometheus text
// exposition format. Any of the inputs may be nil; their families are
// simply omitted.
func WriteProm(w io.Writer, snap *Snapshot, latest *StepSample, status *health.Status) {
	fmt.Fprintf(w, "# HELP anton_build_info Observability schema of this process.\n")
	fmt.Fprintf(w, "# TYPE anton_build_info gauge\n")
	fmt.Fprintf(w, "anton_build_info{schema=%q} 1\n", promEscape(SchemaVersion))
	if snap != nil {
		fmt.Fprintf(w, "# HELP anton_steps_total Completed time steps.\n")
		fmt.Fprintf(w, "# TYPE anton_steps_total counter\n")
		fmt.Fprintf(w, "anton_steps_total %d\n", snap.Steps)
		fmt.Fprintf(w, "# HELP anton_phase_seconds_total Wall time per step-pipeline phase.\n")
		fmt.Fprintf(w, "# TYPE anton_phase_seconds_total counter\n")
		for _, p := range snap.Phases {
			fmt.Fprintf(w, "anton_phase_seconds_total{phase=%q} %g\n", promEscape(p.Name), float64(p.Ns)/1e9)
		}
		fmt.Fprintf(w, "# HELP anton_phase_calls_total Timed calls per phase.\n")
		fmt.Fprintf(w, "# TYPE anton_phase_calls_total counter\n")
		for _, p := range snap.Phases {
			fmt.Fprintf(w, "anton_phase_calls_total{phase=%q} %d\n", promEscape(p.Name), p.Calls)
		}
		fmt.Fprintf(w, "# HELP anton_events_total Monotonic engine event counters.\n")
		fmt.Fprintf(w, "# TYPE anton_events_total counter\n")
		for _, c := range snap.Counters {
			fmt.Fprintf(w, "anton_events_total{counter=%q} %d\n", promEscape(c.Name), c.Value)
		}
		fmt.Fprintf(w, "# HELP anton_match_efficiency Pairs computed / pairs considered.\n")
		fmt.Fprintf(w, "# TYPE anton_match_efficiency gauge\n")
		fmt.Fprintf(w, "anton_match_efficiency %g\n", snap.MatchEfficiency)
		fmt.Fprintf(w, "# HELP anton_batch_occupancy_mean Mean PPIP batch fill fraction.\n")
		fmt.Fprintf(w, "# TYPE anton_batch_occupancy_mean gauge\n")
		fmt.Fprintf(w, "anton_batch_occupancy_mean %g\n", snap.MeanOccupancy)
		if snap.Mem.Tracked {
			fmt.Fprintf(w, "# HELP anton_mallocs_per_step Heap allocations per step.\n")
			fmt.Fprintf(w, "# TYPE anton_mallocs_per_step gauge\n")
			fmt.Fprintf(w, "anton_mallocs_per_step %g\n", snap.Mem.MallocsPerStep)
		}
	}
	if latest != nil {
		fmt.Fprintf(w, "# HELP anton_step Current step index.\n")
		fmt.Fprintf(w, "# TYPE anton_step gauge\n")
		fmt.Fprintf(w, "anton_step %d\n", latest.Step)
		fmt.Fprintf(w, "# HELP anton_temperature_kelvin Instantaneous kinetic temperature.\n")
		fmt.Fprintf(w, "# TYPE anton_temperature_kelvin gauge\n")
		fmt.Fprintf(w, "anton_temperature_kelvin %g\n", latest.Temperature)
		fmt.Fprintf(w, "# HELP anton_energy_kcal Energy components, kcal/mol.\n")
		fmt.Fprintf(w, "# TYPE anton_energy_kcal gauge\n")
		fmt.Fprintf(w, "anton_energy_kcal{component=\"total\"} %g\n", latest.TotalEnergy)
		fmt.Fprintf(w, "anton_energy_kcal{component=\"potential\"} %g\n", latest.PotentialEnergy)
		fmt.Fprintf(w, "anton_energy_kcal{component=\"kinetic\"} %g\n", latest.KineticEnergy)
	}
	if status != nil {
		fmt.Fprintf(w, "# HELP anton_health_level Worst latched watchdog severity (0 ok, 1 warn, 2 critical).\n")
		fmt.Fprintf(w, "# TYPE anton_health_level gauge\n")
		fmt.Fprintf(w, "anton_health_level %d\n", int(status.Worst))
		fmt.Fprintf(w, "# HELP anton_health_monitor_level Latched severity per watchdog.\n")
		fmt.Fprintf(w, "# TYPE anton_health_monitor_level gauge\n")
		for _, m := range status.Monitors {
			fmt.Fprintf(w, "anton_health_monitor_level{monitor=%q} %d\n", promEscape(m.Name), int(m.Level))
		}
		fmt.Fprintf(w, "# HELP anton_health_monitor_value Last sampled value per watchdog.\n")
		fmt.Fprintf(w, "# TYPE anton_health_monitor_value gauge\n")
		for _, m := range status.Monitors {
			fmt.Fprintf(w, "anton_health_monitor_value{monitor=%q} %g\n", promEscape(m.Name), m.Value)
		}
	}
}
