package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// fillSteps pushes n synthetic steps through a traced recorder: one
// integration call, one migration call and one worker span per step, laid
// out back to back on a synthetic clock 2000 ns per step.
func fillSteps(t *Tracer, n int) {
	r := NewRecorder()
	r.Trace(t)
	for s := int64(1); s <= int64(n); s++ {
		base := s * 2000
		r.AddPhase(PhaseIntegration, base, 1000)
		r.AddLane("worker", "pair-blocks", 0, base, 500, 3, 400)
		r.AddPhase(PhaseMigration, base+1000, 10)
		r.StepDone(s)
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

// traceMatchStep pushes one measured step through a traced recorder: a
// pair-gather call, a pair-match call with two worker busy intervals
// inside it (worker 1 idles for the last 39 ns) and the merged PPIP time,
// closed as step 7. It returns the first phase start and a Now read after
// the step closed.
func traceMatchStep(tr *Tracer) (t0, end int64) {
	r := NewRecorder()
	r.Trace(tr)
	t0 = Now()
	r.AddPhase(PhasePairGather, t0, 40)
	r.AddPhase(PhasePairMatch, t0+40, 100)
	r.AddPhaseBatch(PhasePairPPIP, 130, 4)
	r.AddLane("worker", "pair-blocks", 0, t0+40, 95, 2, 70)
	r.AddLane("worker", "pair-blocks", 1, t0+41, 60, 2, 60)
	r.StepDone(7)
	return t0, Now()
}

// TestTracerStepLayout: a step lays out as its measured calls. Each phase
// span carries exactly the (t0, ns) the recorder was handed on the phase
// lane, merged batch time draws no span, every span takes the step's
// number, and the step span runs from the first phase start to StepDone.
func TestTracerStepLayout(t *testing.T) {
	tr := NewTracer(64)
	t0, end := traceMatchStep(tr)

	var gather, match, step []Span
	for _, s := range tr.Spans() {
		if s.Step != 7 {
			t.Errorf("span %q labelled step %d, want 7", s.Name, s.Step)
		}
		switch {
		case s.Name == PhasePairGather.String():
			gather = append(gather, s)
		case s.Name == PhasePairMatch.String():
			match = append(match, s)
		case s.Tid == TidStep:
			step = append(step, s)
		case s.Tid >= TidWorkerBase:
		default:
			t.Errorf("unexpected span %+v", s)
		}
	}
	if len(gather) != 1 || len(match) != 1 || len(step) != 1 {
		t.Fatalf("got %d gather, %d match, %d step spans, want one each",
			len(gather), len(match), len(step))
	}
	if g := gather[0]; g.TS != t0 || g.Dur != 40 || g.Tid != TidPhases || g.Calls != 1 {
		t.Errorf("gather span %+v, want ts %d dur 40 on the phase lane", g, t0)
	}
	if m := match[0]; m.TS != t0+40 || m.Dur != 100 || m.Tid != TidPhases || m.Calls != 1 {
		t.Errorf("match span %+v, want ts %d dur 100 on the phase lane", m, t0+40)
	}
	if s := step[0]; s.TS != t0 || s.TS+s.Dur > end || s.Dur < 140 {
		t.Errorf("step span %+v, want ts %d covering both phases and ending by %d", s, t0, end)
	}
}

// TestTracerPPIPSharesMatchSlot: the PPIP work runs inside the match
// unit's call, so each worker span lies inside the pair-match span, one
// lane per worker, and the export names those lanes "worker N" and gives
// each span its PPIP time as args.ppip_ns.
func TestTracerPPIPSharesMatchSlot(t *testing.T) {
	tr := NewTracer(64)
	traceMatchStep(tr)

	var match Span
	var workers []Span
	for _, s := range tr.Spans() {
		switch {
		case s.Name == PhasePairMatch.String():
			match = s
		case s.Tid >= TidWorkerBase:
			workers = append(workers, s)
		}
	}
	if len(workers) != 2 {
		t.Fatalf("got %d worker spans, want 2", len(workers))
	}
	for i, w := range workers {
		if ppip := []int64{70, 60}[i]; w.Tid != TidWorkerBase+int32(i) || w.Calls != 2 || w.PPIPNs != ppip {
			t.Errorf("worker span %d %+v, want tid %d with 2 calls and %d PPIP ns", i, w, TidWorkerBase+i, ppip)
		}
		if w.TS < match.TS || w.TS+w.Dur > match.TS+match.Dur {
			t.Errorf("worker span %+v not inside the match span %+v", w, match)
		}
	}
	raw, err := tr.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"worker 0"`, `"worker 1"`, `"ppip_ns":70`, `"ppip_ns":60`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("export does not hold %s", want)
		}
	}
}

// TestTracerDeterministicTimestamps: the tracer draws the timestamps it is
// handed and reads the clock only to close a step. Two tracers fed the
// same measured calls hold the same span sequence with the same phase and
// worker timestamps; their step spans start at the same first phase start.
func TestTracerDeterministicTimestamps(t *testing.T) {
	a, b := NewTracer(256), NewTracer(256)
	fillSteps(a, 20)
	fillSteps(b, 20)
	sa, sb := a.Spans(), b.Spans()
	if len(sa) != len(sb) || len(sa) != 20*4 {
		t.Fatalf("span counts %d and %d, want %d", len(sa), len(sb), 20*4)
	}
	for i := range sa {
		x, y := sa[i], sb[i]
		if x.Tid == TidStep {
			// Dur ends at the clock read by StepDone.
			x.Dur, y.Dur = 0, 0
			if x.TS != x.Step*2000 {
				t.Errorf("step %d span starts at %d, want its first phase start %d",
					x.Step, x.TS, x.Step*2000)
			}
		}
		if x != y {
			t.Fatalf("span %d differs: %+v vs %+v", i, x, y)
		}
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
