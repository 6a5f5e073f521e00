package obs

import (
	"encoding/json"
	"testing"
)

// fillSteps pushes n synthetic steps through a tracer: one integration
// phase call, one migration call, and one worker tally per step.
func fillSteps(t *Tracer, n int) {
	for s := int64(1); s <= int64(n); s++ {
		t.AddPhase(PhaseIntegration, 1000+s)
		t.AddPhase(PhaseMigration, 10)
		t.AddWorker(0, 500, 3)
		t.StepDone(s)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(64)
	fillSteps(tr, 100) // 4 spans/step (2 phase + step + worker) -> overflow
	if tr.Dropped() == 0 {
		t.Fatal("expected ring eviction after overfilling")
	}
	spans := tr.Spans()
	if len(spans) != 64 {
		t.Fatalf("ring holds %d spans, want capacity 64", len(spans))
	}
	// Oldest-first: steps must be non-decreasing across the ring.
	for i := 1; i < len(spans); i++ {
		if spans[i].Step < spans[i-1].Step {
			t.Fatalf("ring order broken: span %d step %d after step %d",
				i, spans[i].Step, spans[i-1].Step)
		}
	}
	// The newest span must belong to the final step.
	if last := spans[len(spans)-1].Step; last != 100 {
		t.Errorf("newest span from step %d, want 100", last)
	}
}

func TestTracerStepLayout(t *testing.T) {
	tr := NewTracer(256)
	var w [NumPhases]float64
	w[PhaseIntegration] = 3
	w[PhaseMigration] = 1
	tr.SetStepLayout(w)

	tr.AddPhase(PhaseIntegration, 100)
	tr.AddPhase(PhaseMigration, 50)
	tr.StepDone(1)

	var integ, mig *Span
	spans := tr.Spans()
	for i := range spans {
		switch spans[i].Name {
		case PhaseIntegration.String():
			integ = &spans[i]
		case PhaseMigration.String():
			mig = &spans[i]
		}
	}
	if integ == nil || mig == nil {
		t.Fatal("phase spans missing")
	}
	if integ.Dur != 3*mig.Dur {
		t.Errorf("slot widths %d vs %d, want 3:1 split", integ.Dur, mig.Dur)
	}
	if integ.Dur+mig.Dur > StepVirtualNs {
		t.Errorf("slots overflow the step window: %d", integ.Dur+mig.Dur)
	}
	if integ.WallNs != 100 || mig.WallNs != 50 {
		t.Errorf("measured wall times not carried: %d, %d", integ.WallNs, mig.WallNs)
	}
	// Second step lands one full virtual window later.
	tr.AddPhase(PhaseIntegration, 100)
	tr.StepDone(2)
	for _, s := range tr.Spans() {
		if s.Step == 2 && s.Name == PhaseIntegration.String() {
			if s.TS != StepVirtualNs+integ.TS {
				t.Errorf("step 2 span at ts %d, want %d", s.TS, StepVirtualNs+integ.TS)
			}
		}
	}
}

func TestTracerPPIPSharesMatchSlot(t *testing.T) {
	tr := NewTracer(64)
	tr.AddPhase(PhasePairMatch, 100)
	tr.AddWorker(0, 70, 2)
	tr.AddWorker(1, 60, 2)
	tr.StepDone(1)
	var match Span
	workers := 0
	for _, s := range tr.Spans() {
		if s.Name == PhasePairMatch.String() {
			match = s
		}
		if s.Tid >= TidWorkerBase {
			workers++
			if s.Dur != tr.slots[PhasePairPPIP] {
				t.Errorf("worker span dur %d, want PPIP slot %d", s.Dur, tr.slots[PhasePairPPIP])
			}
		}
	}
	if workers != 2 {
		t.Fatalf("got %d worker spans, want 2", workers)
	}
	if tr.offsets[PhasePairPPIP] != tr.offsets[PhasePairMatch] ||
		tr.slots[PhasePairPPIP] != tr.slots[PhasePairMatch] {
		t.Error("PPIP slot must alias the match slot (nested phase)")
	}
	if match.Calls != 1 {
		t.Errorf("match span calls %d, want 1", match.Calls)
	}
}

// TestTracerExportValid: the exported document must parse as Chrome
// trace-event JSON with non-negative, monotonically non-decreasing
// timestamps and the schema version in otherData.
func TestTracerExportValid(t *testing.T) {
	tr := NewTracer(512)
	fillSteps(tr, 20)

	raw, err := tr.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int64          `json:"pid"`
			Tid  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.OtherData["schemaVersion"] != SchemaVersion {
		t.Errorf("schemaVersion %q, want %q", doc.OtherData["schemaVersion"], SchemaVersion)
	}
	lastTS := -1.0
	xEvents, mEvents := 0, 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			mEvents++
			continue
		case "X":
			xEvents++
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
		if ev.TS < 0 {
			t.Fatalf("negative timestamp %f on %q", ev.TS, ev.Name)
		}
		if ev.TS < lastTS {
			t.Fatalf("timestamps not monotonic: %f after %f", ev.TS, lastTS)
		}
		lastTS = ev.TS
		if ev.Pid != PidEngine {
			t.Fatalf("span %q on pid %d, want the engine pid only", ev.Name, ev.Pid)
		}
	}
	if xEvents == 0 || mEvents == 0 {
		t.Fatalf("export missing events: %d X, %d M", xEvents, mEvents)
	}
	// Round-trip: re-marshal and parse again (verify.sh automates this on
	// the shipped artifact too).
	re, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(re, &doc); err != nil {
		t.Fatalf("round-trip failed: %v", err)
	}
}

// TestTracerDeterministicTimestamps: structural span fields (name, lane,
// virtual timestamps) are identical across two runs even when measured
// wall times differ — the core determinism property of virtual time.
func TestTracerDeterministicTimestamps(t *testing.T) {
	run := func(wallScale int64) []Span {
		tr := NewTracer(256)
		for s := int64(1); s <= 10; s++ {
			tr.AddPhase(PhaseIntegration, wallScale*s)
			tr.AddPhase(PhasePairMatch, wallScale*2*s)
			tr.AddWorker(0, wallScale, 1)
			tr.StepDone(s)
		}
		return tr.Spans()
	}
	a, b := run(100), run(777) // different "wall clocks"
	if len(a) != len(b) {
		t.Fatalf("span counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Pid != b[i].Pid || a[i].Tid != b[i].Tid ||
			a[i].TS != b[i].TS || a[i].Dur != b[i].Dur || a[i].Step != b[i].Step {
			t.Fatalf("structural span %d differs across runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
