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
	w := NewWatch(e)
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
	for _, m := range w.Registry().Status().Monitors {
		if m.Name == "energy-drift" {
			t.Error("thermostatted run watches energy drift")
		}
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
			var sim *Engine
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

// TestWatchHealthySoak: 200 NVE steps of a healthy charged fluid at the
// production thresholds must fire zero alerts — the watchdog's
// false-positive contract.
func TestWatchHealthySoak(t *testing.T) {
	e := ionicEngine(t, 8, nil)
	w := NewWatch(e)
	e.Step(200)
	if alerts := w.Drain(); len(alerts) != 0 {
		t.Fatalf("healthy NVE soak fired %d alerts: %+v", len(alerts), alerts)
	}
	if worst := w.Registry().Worst(); worst != health.SevOK {
		t.Errorf("latched severity %v after a healthy soak", worst)
	}
	st := w.Registry().Status()
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

// TestWatchCadenceValidation: the watch evaluates on the audit cadence
// it shares with the ledger tap, 10 steps rounded up to the MTS interval —
// on an engine refreshing long-range forces every 3 steps, not before
// step 12 and then at every multiple of 12.
func TestWatchCadenceValidation(t *testing.T) {
	e := smallWaterEngine(t, 1, func(c *Config) { c.MTSInterval = 3 })
	watch := NewWatch(e)

	e.Step(11)
	if n := watch.Registry().Status().Evals; n != 0 {
		t.Fatalf("watch sampled %d times by step 11", n)
	}
	e.Step(37)
	if n := watch.Registry().Status().Evals; n != 4 {
		t.Fatalf("watch sampled %d times by step 48, want 4", n)
	}
}

// TestWatchEnergyDriftAlert: the NVE ionic fluid at six times its 2 fs
// time step heats up within tens of steps, and the watch at the
// production thresholds reports it — energy-drift warn, then critical —
// with each monitor firing each severity at most once (hysteresis).
func TestWatchEnergyDriftAlert(t *testing.T) {
	e := ionicEngine(t, 8, func(c *Config) { c.Dt = 12 })
	w := NewWatch(e)
	e.Step(50)

	alerts := w.Drain()
	type key struct {
		monitor string
		sev     health.Severity
	}
	seen := map[key]bool{}
	for _, a := range alerts {
		k := key{a.Monitor, a.Severity}
		if seen[k] {
			t.Fatalf("%s fired %v twice: %+v", a.Monitor, a.Severity, alerts)
		}
		seen[k] = true
		if a.Message == "" || a.Value < a.Threshold || a.Step%int64(auditCadence(e)) != 0 {
			t.Errorf("malformed alert %+v", a)
		}
	}
	for _, sev := range []health.Severity{health.SevWarn, health.SevCrit} {
		if !seen[key{"energy-drift", sev}] {
			t.Errorf("energy-drift %v never fired: %+v", sev, alerts)
		}
	}
	if len(w.Drain()) != 0 {
		t.Error("Drain did not clear the pending alerts")
	}
	if reg := w.Registry(); reg.Fired(health.SevWarn)+reg.Fired(health.SevCrit) != int64(len(alerts)) {
		t.Error("lifetime counters disagree with the drained alerts")
	}
}
