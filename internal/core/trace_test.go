package core

import (
	"encoding/json"
	"slices"
	"testing"

	"anton/internal/obs"
	"anton/internal/obs/health"
)

// attachFullObservability wires every observability layer to an engine:
// recorder, its tracer, and the health watch.
func attachFullObservability(e *Engine) (*obs.Recorder, *obs.Tracer, *Watch) {
	rec, tr := tracedRecorder()
	rec.EnableMemStats()
	e.Observe(rec)
	w := NewWatch(e, health.DefaultConfig(), 5)
	return rec, tr, w
}

// tracedRecorder returns a recorder with a step tracer attached.
func tracedRecorder() (*obs.Recorder, *obs.Tracer) {
	rec := obs.NewRecorder()
	tr := obs.NewTracer(8192)
	rec.Trace(tr)
	return rec, tr
}

// TestTraceWatchBitwiseInvariance extends the zero-perturbation contract
// to the full observability stack: a 120-step run with the recorder, the
// step tracer and the health watchdogs all attached must be bitwise
// identical to a bare run.
func TestTraceWatchBitwiseInvariance(t *testing.T) {
	plain := smallWaterEngine(t, 8, nil)
	plain.Step(120)
	pp, vp := plain.Snapshot()

	observed := smallWaterEngine(t, 8, nil)
	rec, tr, w := attachFullObservability(observed)
	observed.Step(120)
	po, vo := observed.Snapshot()

	for i := range pp {
		if pp[i] != po[i] || vp[i] != vo[i] {
			t.Fatalf("observability stack perturbed the trajectory at atom %d", i)
		}
	}
	if rec.Steps() != 120 {
		t.Errorf("recorder saw %d steps, want 120", rec.Steps())
	}
	if len(tr.Spans()) == 0 {
		t.Error("tracer recorded no spans")
	}
	if w.Registry().Worst() > health.SevWarn {
		t.Errorf("watchdogs latched %v on a healthy thermostatted run", w.Registry().Worst())
	}
}

// TestEngineTraceExportValid drives a real engine and validates the
// exported Chrome trace: parses, monotonic non-negative timestamps, and
// stable pid/tid lanes for the engine and its force workers.
func TestEngineTraceExportValid(t *testing.T) {
	e := smallWaterEngine(t, 8, nil)
	rec, tr := tracedRecorder()
	e.Observe(rec)
	e.Step(40)

	raw, err := tr.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Pid  int64          `json:"pid"`
			Tid  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.OtherData["schemaVersion"] != obs.SchemaVersion {
		t.Errorf("schemaVersion %q", doc.OtherData["schemaVersion"])
	}
	lastTS := -1.0
	workerLanes := map[int64]bool{}
	phaseNames := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.TS < 0 || ev.TS < lastTS {
			t.Fatalf("timestamps broken at %q: %f after %f", ev.Name, ev.TS, lastTS)
		}
		lastTS = ev.TS
		switch {
		case ev.Pid != obs.PidEngine:
			t.Fatalf("span %q on pid %d, want the engine pid only", ev.Name, ev.Pid)
		case ev.Tid >= obs.TidWorkerBase:
			workerLanes[ev.Tid] = true
		case ev.Tid == obs.TidPhases:
			phaseNames[ev.Name] = true
		}
	}
	if len(workerLanes) == 0 {
		t.Error("no force-worker lanes in the export")
	}
	for _, want := range []string{
		obs.PhasePairMatch.String(), obs.PhaseFFT.String(), obs.PhaseIntegration.String(),
	} {
		if !phaseNames[want] {
			t.Errorf("phase lane missing %q spans", want)
		}
	}
}

// TestTraceDeterministicTimeline: timestamps are measured, ordering is
// not — two identical runs record the same sequence of (name, lane, step,
// calls).
func TestTraceDeterministicTimeline(t *testing.T) {
	run := func() []obs.Span {
		e := smallWaterEngine(t, 8, nil)
		rec, tr := tracedRecorder()
		e.Observe(rec)
		e.Step(30)
		return tr.Spans()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("span counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Pid != b[i].Pid || a[i].Tid != b[i].Tid ||
			a[i].Step != b[i].Step || a[i].Calls != b[i].Calls {
			t.Fatalf("span %d differs in order:\n  %+v\n  %+v", i, a[i], b[i])
		}
	}
}

// TestTraceMeasuredTimeline: on the monolithic engine and at 8 shards,
// every phase span lies inside the step span of its step, a step's phases
// sum to no more than the step, a sharded run draws one lane per shard,
// and a monolithic worker's busy interval lies inside its step's
// pair-match span and holds its PPIP time.
func TestTraceMeasuredTimeline(t *testing.T) {
	const steps = 20
	for _, c := range []struct {
		name   string
		shards int
	}{{"monolithic", 0}, {"8 shards", 8}} {
		t.Run(c.name, func(t *testing.T) {
			rec, tr := tracedRecorder()
			var sim interface {
				Observe(*obs.Recorder)
				Step(int)
			}
			if c.shards == 0 {
				sim = smallWaterEngine(t, 8, nil)
			} else {
				sim = smallWaterSharded(t, c.shards, nil)
			}
			sim.Observe(rec)
			sim.Step(steps)

			stepSpan := map[int64]obs.Span{}
			matchSpans := map[int64][]obs.Span{} // the first step also holds the initial evaluation
			phaseSum := map[int64]int64{}
			shardLanes := map[int32]bool{}
			var workerSpans []obs.Span
			for _, s := range tr.Spans() {
				switch {
				case s.Tid == obs.TidStep:
					stepSpan[s.Step] = s
				case s.Tid == obs.TidPhases:
					phaseSum[s.Step] += s.Dur
					if s.Name == obs.PhasePairMatch.String() {
						matchSpans[s.Step] = append(matchSpans[s.Step], s)
					}
				case s.Name == "stage-a":
					shardLanes[s.Tid] = true
				case s.Name == "pair-blocks":
					workerSpans = append(workerSpans, s)
				}
			}
			if c.shards == 0 && len(workerSpans) == 0 {
				t.Error("no worker busy intervals on the monolithic engine")
			}
			for _, s := range workerSpans {
				inside := slices.ContainsFunc(matchSpans[s.Step], func(m obs.Span) bool {
					return m.TS <= s.TS && s.TS+s.Dur <= m.TS+m.Dur
				})
				if !inside || s.PPIPNs <= 0 || s.PPIPNs > s.Dur {
					t.Fatalf("worker span %+v: want inside a pair-match span of %+v, holding its PPIP time",
						s, matchSpans[s.Step])
				}
			}
			if len(stepSpan) != steps {
				t.Fatalf("%d step spans, want %d", len(stepSpan), steps)
			}
			for _, s := range tr.Spans() {
				if s.Tid != obs.TidPhases {
					continue
				}
				st, ok := stepSpan[s.Step]
				if !ok || s.TS < st.TS || s.TS+s.Dur > st.TS+st.Dur {
					t.Fatalf("phase span %+v not inside its step span %+v", s, st)
				}
			}
			for step, st := range stepSpan {
				if phaseSum[step] > st.Dur {
					t.Errorf("step %d: phases sum to %d ns of a %d ns step", step, phaseSum[step], st.Dur)
				}
			}
			if len(shardLanes) != c.shards {
				t.Errorf("%d shard lanes, want %d", len(shardLanes), c.shards)
			}
		})
	}
}

// TestWatchHealthySoak: 200 NVE steps of a healthy charged fluid with the
// default thresholds must fire zero alerts — the watchdog's false-positive
// contract.
func TestWatchHealthySoak(t *testing.T) {
	e := ionicEngine(t, 8, nil)
	w := NewWatch(e, health.DefaultConfig(), 5)
	e.Step(200)
	if alerts := w.Drain(); len(alerts) != 0 {
		t.Fatalf("healthy NVE soak fired %d alerts: %+v", len(alerts), alerts)
	}
	if worst := w.Registry().Worst(); worst != health.SevOK {
		t.Errorf("latched severity %v after a healthy soak", worst)
	}
	st := w.Registry().Status(obs.SchemaVersion)
	for _, m := range st.Monitors {
		if m.Name == "retry-storm" {
			// Transport-fed; a monolithic engine has no source wired
			// (covered by TestWatchTransportRetryRate on the sharded one).
			continue
		}
		if !m.Seen {
			t.Errorf("monitor %q never evaluated over the soak", m.Name)
		}
	}
	if st.Evals == 0 {
		t.Fatal("watch never sampled")
	}
}

// TestWatchInjectedThreshold: dropping the slack thresholds below the
// engine's routine inter-migration drift must fire the migration-slack
// monitor — once, despite every subsequent sample staying elevated.
func TestWatchInjectedThreshold(t *testing.T) {
	e := ionicEngine(t, 8, nil)
	cfg := health.DefaultConfig()
	cfg.SlackWarn = 1e-3 // routine drift ratio is ~0.1: far above both
	cfg.SlackCrit = 2e-3
	w := NewWatch(e, cfg, 5)
	e.Step(100)

	alerts := w.Drain()
	if len(alerts) != 1 {
		t.Fatalf("injected threshold fired %d alerts, want exactly 1 (hysteresis): %+v",
			len(alerts), alerts)
	}
	a := alerts[0]
	if a.Monitor != "migration-slack" || a.Severity != health.SevCrit {
		t.Fatalf("unexpected alert %+v", a)
	}
	if a.Message == "" || a.Value <= a.Threshold {
		t.Errorf("malformed alert %+v", a)
	}
	if w.Registry().Fired(health.SevCrit) != 1 {
		t.Errorf("crit fired %d times, want 1", w.Registry().Fired(health.SevCrit))
	}
}

// TestWatchCadenceValidation: a non-positive cadence is a configuration
// mistake and must select the documented default, not per-step sampling;
// any cadence still honors the MTS-alignment rounding.
func TestWatchCadenceValidation(t *testing.T) {
	e := smallWaterEngine(t, 1, nil)
	for _, bad := range []int{0, -3} {
		w := NewWatch(e, health.DefaultConfig(), bad)
		if w.Cadence() < defaultWatchCadence {
			t.Fatalf("cadence %d produced eval cadence %d, want >= %d",
				bad, w.Cadence(), defaultWatchCadence)
		}
		if m := e.Cfg.MTSInterval; m > 1 && w.Cadence()%m != 0 {
			t.Fatalf("cadence %d not MTS-aligned (interval %d)", w.Cadence(), m)
		}
	}
	w := NewWatch(e, health.DefaultConfig(), 7)
	if c := w.Cadence(); c < 7 {
		t.Fatalf("explicit cadence 7 shrank to %d", c)
	}
}
