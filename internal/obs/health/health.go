// Package health is the simulation health watchdog: a fixed table of
// invariant monitors evaluated against samples of the running engine's
// state, emitting structured, severity-ranked alert events with
// hysteresis. The monitors watch the invariants that certify a long run
// is not silently wrong — the paper's energy-conservation, reversibility
// and parallel-invariance story turned into live checks:
//
//   - relative total-energy drift against the run's baseline (NVE only —
//     a thermostatted run exchanges energy by design);
//   - net-momentum conservation (per-atom drift from the baseline);
//   - fixed-point overflow headroom of the force accumulators, in bits;
//   - migration-slack margin: measured inter-migration drift as a
//     fraction of the engine's residency slack;
//   - retry storm: transport retransmits per send (sharded runs).
//
// Hysteresis: each monitor latches its worst severity and fires exactly
// one alert per upward threshold crossing; it re-arms only after the
// value retreats past threshold*rearm, so a value oscillating around a
// threshold cannot flood the alert ring.
//
// The package is engine-agnostic: it consumes plain-float Samples, so it
// has no dependency on the core packages and tests can inject synthetic
// failures.
package health

import (
	"encoding/json"
	"fmt"
	"math"
)

// Severity ranks an alert or a monitor's latched state.
type Severity int

// Severity levels, ordered.
const (
	SevOK Severity = iota
	SevWarn
	SevCrit
)

// String returns the stable lowercase name.
func (s Severity) String() string {
	switch s {
	case SevOK:
		return "ok"
	case SevWarn:
		return "warn"
	case SevCrit:
		return "critical"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// MarshalJSON renders the severity as its stable name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// Alert is one structured watchdog event.
type Alert struct {
	Step      int64    `json:"step"`
	Monitor   string   `json:"monitor"`
	Severity  Severity `json:"severity"`
	Value     float64  `json:"value"`
	Threshold float64  `json:"threshold"`
	Message   string   `json:"message"`
}

// Sample is one observation of the engine's invariants.
type Sample struct {
	Step int64

	TotalEnergy     float64 // conserved quantity, kcal/mol
	MomentumPerAtom float64 // |sum m v| / N, amu Å/fs
	HeadroomBits    float64 // log2 headroom of the widest force accumulator

	Drift float64 // max single-atom drift since last migration, Å
	Slack float64 // the engine's residency slack, Å (<= 0: not measured)

	RetryRate float64 // transport retransmits per send since the last sample
	HaveRetry bool    // false on a run without a transport
}

// Indices into monitors.
const (
	energyDrift = iota
	netMomentum
	overflowHeadroom
	migrationSlack
	retryStorm
	numMonitors
)

// monitor is one watched invariant: warn/crit thresholds and which
// direction is bad.
type monitor struct {
	name      string
	unit      string
	warn      float64
	crit      float64
	higherBad bool // true: alert when the value rises past the thresholds
}

// monitors is the watchdog table, in evaluation and report order. The
// thresholds are generous enough that a healthy fixed-point NVE run stays
// silent indefinitely, tight enough that a drifting invariant fires long
// before the trajectory is garbage.
var monitors = [numMonitors]monitor{
	// |E-E0| / max(1,|E0|).
	energyDrift: {"energy-drift", "rel", 2e-3, 2e-2, true},
	// Per-atom net-momentum drift from the baseline.
	netMomentum: {"net-momentum", "amu·Å/fs per atom", 1e-4, 1e-2, true},
	// Minimum acceptable overflow headroom (a falling monitor).
	overflowHeadroom: {"overflow-headroom", "bits", 8, 2, false},
	// 1.0 means an atom used the entire residency slack between
	// migrations.
	migrationSlack: {"migration-slack", "drift/slack", 0.6, 1.0, true},
	// A quiet link sits near zero; a retry storm (dropping or saturated
	// transport retransmitting most traffic) climbs past 1.
	retryStorm: {"retry-storm", "retransmits/send", 0.5, 2.0, true},
}

const (
	// rearm is the hysteresis re-arm fraction; see the package comment.
	rearm = 0.8
	// maxAlerts bounds the alert ring.
	maxAlerts = 256
)

// classify ranks a value against the thresholds scaled by r: r = 1 gives
// the firing level, r = rearm the level a latched monitor may relax to
// (threshold*rearm for rising monitors, threshold/rearm for falling ones).
func (m *monitor) classify(v, r float64) Severity {
	if m.higherBad {
		switch {
		case v >= m.crit*r:
			return SevCrit
		case v >= m.warn*r:
			return SevWarn
		}
		return SevOK
	}
	switch {
	case v <= m.crit/r:
		return SevCrit
	case v <= m.warn/r:
		return SevWarn
	}
	return SevOK
}

// monitorState is one monitor's latched hysteresis state.
type monitorState struct {
	level Severity
	last  float64
	seen  bool
}

// Registry evaluates the monitor table against samples and keeps a
// bounded ring of fired alerts. Not safe for concurrent use; the owner
// publishes Status() copies to concurrent readers.
type Registry struct {
	first int // first monitor in use: energyDrift, or netMomentum without it
	state [numMonitors]monitorState

	alerts    [maxAlerts]Alert // ring
	alertHead int
	alertN    int
	fired     [SevCrit + 1]int64

	baseE, baseP float64 // energy and momentum at the first sample
	evals        int64
}

// New builds a registry. A run that does not conserve energy (a
// thermostatted one) has no energy-drift monitor.
func New(conservesEnergy bool) *Registry {
	r := &Registry{first: energyDrift}
	if !conservesEnergy {
		r.first = netMomentum
	}
	return r
}

// reading returns monitor i's value for s, or false when s carries none.
func (r *Registry) reading(i int, s Sample) (float64, bool) {
	switch i {
	case energyDrift:
		return math.Abs(s.TotalEnergy-r.baseE) / math.Max(1, math.Abs(r.baseE)), true
	case netMomentum:
		return math.Abs(s.MomentumPerAtom - r.baseP), true
	case overflowHeadroom:
		return s.HeadroomBits, true
	case migrationSlack:
		return s.Drift / s.Slack, s.Slack > 0
	}
	return s.RetryRate, s.HaveRetry
}

// Eval evaluates every monitor against one sample and returns the alerts
// fired by this sample, ranked most severe first (ties keep table order).
func (r *Registry) Eval(s Sample) []Alert {
	r.evals++
	if r.evals == 1 {
		r.baseE, r.baseP = s.TotalEnergy, s.MomentumPerAtom
	}
	var fired []Alert
	for i := r.first; i < numMonitors; i++ {
		v, ok := r.reading(i, s)
		if !ok {
			continue
		}
		m, st := &monitors[i], &r.state[i]
		st.last, st.seen = v, true
		if target := m.classify(v, 1); target > st.level {
			st.level = target
			thr := m.warn
			if target == SevCrit {
				thr = m.crit
			}
			fired = append(fired, Alert{
				Step:      s.Step,
				Monitor:   m.name,
				Severity:  target,
				Value:     v,
				Threshold: thr,
				Message: fmt.Sprintf("%s %s: %.4g %s crossed %.4g",
					m.name, target, v, m.unit, thr),
			})
		} else if rel := m.classify(v, rearm); rel < st.level {
			st.level = rel // silent re-arm
		}
	}
	// Severity-ranked: critical alerts lead. Insertion sort keeps the
	// (tiny) slice stable without allocations.
	for i := 1; i < len(fired); i++ {
		for j := i; j > 0 && fired[j].Severity > fired[j-1].Severity; j-- {
			fired[j], fired[j-1] = fired[j-1], fired[j]
		}
	}
	for _, a := range fired {
		r.alerts[r.alertHead] = a
		r.alertHead = (r.alertHead + 1) % maxAlerts
		r.alertN = min(r.alertN+1, maxAlerts)
		r.fired[a.Severity]++
	}
	return fired
}

// Alerts returns the retained alerts oldest-first (copied).
func (r *Registry) Alerts() []Alert {
	out := make([]Alert, 0, r.alertN)
	start := r.alertHead - r.alertN + maxAlerts
	for i := 0; i < r.alertN; i++ {
		out = append(out, r.alerts[(start+i)%maxAlerts])
	}
	return out
}

// Fired returns how many alerts of the given severity have fired over
// the registry's lifetime (unaffected by ring eviction).
func (r *Registry) Fired(s Severity) int64 {
	if s < 0 || int(s) >= len(r.fired) {
		return 0
	}
	return r.fired[s]
}

// Worst returns the highest currently-latched monitor severity.
func (r *Registry) Worst() Severity {
	w := SevOK
	for _, st := range r.state[r.first:] {
		w = max(w, st.level)
	}
	return w
}

// MonitorStatus is one monitor's rendered state.
type MonitorStatus struct {
	Name  string   `json:"name"`
	Unit  string   `json:"unit"`
	Level Severity `json:"level"`
	Value float64  `json:"value"`
	Warn  float64  `json:"warn"`
	Crit  float64  `json:"crit"`
	Seen  bool     `json:"seen"`
}

// Status is the registry's full rendered state — the /healthz document.
// The publisher stamps Schema.
type Status struct {
	Schema   string          `json:"schema"`
	Worst    Severity        `json:"status"`
	Evals    int64           `json:"evals"`
	Monitors []MonitorStatus `json:"monitors"`
	Alerts   []Alert         `json:"alerts"`
}

// Status renders the registry (a value copy, safe to publish across
// goroutines).
func (r *Registry) Status() Status {
	st := Status{Worst: r.Worst(), Evals: r.evals}
	for i := r.first; i < numMonitors; i++ {
		m, s := &monitors[i], &r.state[i]
		st.Monitors = append(st.Monitors, MonitorStatus{
			Name: m.name, Unit: m.unit, Level: s.level,
			Value: s.last, Warn: m.warn, Crit: m.crit, Seen: s.seen,
		})
	}
	st.Alerts = r.Alerts()
	return st
}
