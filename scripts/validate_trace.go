//go:build ignore

// Validate a Chrome trace-event JSON file produced by the step tracer
// (antonsim -trace): the document must parse, round-trip through
// encoding/json, and every "X" event must carry a non-negative,
// monotonically non-decreasing timestamp. Span times are measured, so the
// timeline must also be consistent: every phase-lane span lies inside the
// step span with the same args.step, and no two spans on the step lane,
// or on the phase lane, overlap. Run via
//
//	go run scripts/validate_trace.go trace.json
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

type event struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int64   `json:"pid"`
	Tid  int64   `json:"tid"`
	Args struct {
		Step int64 `json:"step"`
	} `json:"args"`
}

// The step tracer's lanes (obs.TidStep, obs.TidPhases), and the slack for
// comparing microsecond floats that came from integer nanoseconds.
const (
	tidStep   = 0
	tidPhases = 1
	slackUs   = 1e-3
)

type doc struct {
	TraceEvents []event           `json:"traceEvents"`
	OtherData   map[string]string `json:"otherData"`
}

func main() {
	if len(os.Args) != 2 {
		fail("usage: go run scripts/validate_trace.go trace.json")
	}
	raw, err := os.ReadFile(os.Args[1])
	if err != nil {
		fail(err)
	}
	var d doc
	if err := json.Unmarshal(raw, &d); err != nil {
		fail(fmt.Errorf("parse: %w", err))
	}
	if len(d.TraceEvents) == 0 {
		fail("trace has no events")
	}
	if d.OtherData["schemaVersion"] == "" {
		fail("otherData.schemaVersion missing")
	}

	lastTS := -1.0
	x, m := 0, 0
	for i, ev := range d.TraceEvents {
		switch ev.Ph {
		case "M":
			m++
			continue
		case "X":
			x++
		default:
			fail(fmt.Errorf("event %d: unexpected phase %q", i, ev.Ph))
		}
		if ev.TS < 0 {
			fail(fmt.Errorf("event %d (%q): negative ts %f", i, ev.Name, ev.TS))
		}
		if ev.TS < lastTS {
			fail(fmt.Errorf("event %d (%q): ts %f after %f — not monotonic", i, ev.Name, ev.TS, lastTS))
		}
		if ev.Dur < 0 {
			fail(fmt.Errorf("event %d (%q): negative dur %f", i, ev.Name, ev.Dur))
		}
		lastTS = ev.TS
	}
	if x == 0 {
		fail("no X (span) events")
	}

	// Events are sorted by ts, so a lane overlaps itself exactly when a
	// span starts before the previous one on the lane ended.
	steps := map[int64]event{}
	laneEnd := map[[2]int64]float64{}
	laneLast := map[[2]int64]string{}
	for _, ev := range d.TraceEvents {
		if ev.Ph != "X" || (ev.Tid != tidStep && ev.Tid != tidPhases) {
			continue
		}
		lane := [2]int64{ev.Pid, ev.Tid}
		if end, ok := laneEnd[lane]; ok && ev.TS < end-slackUs {
			fail(fmt.Errorf("%q (step %d) starts at %f, before %q on its lane ended at %f",
				ev.Name, ev.Args.Step, ev.TS, laneLast[lane], end))
		}
		laneEnd[lane], laneLast[lane] = ev.TS+ev.Dur, ev.Name
		if ev.Tid == tidStep {
			steps[ev.Args.Step] = ev
		}
	}
	for _, ev := range d.TraceEvents {
		if ev.Ph != "X" || ev.Tid != tidPhases {
			continue
		}
		st, ok := steps[ev.Args.Step]
		if !ok {
			fail(fmt.Errorf("phase span %q at %f: no step span for step %d", ev.Name, ev.TS, ev.Args.Step))
		}
		if ev.TS < st.TS-slackUs || ev.TS+ev.Dur > st.TS+st.Dur+slackUs {
			fail(fmt.Errorf("phase span %q [%f, %f] is not inside step %d [%f, %f]",
				ev.Name, ev.TS, ev.TS+ev.Dur, ev.Args.Step, st.TS, st.TS+st.Dur))
		}
	}

	// Round-trip: re-encode and re-parse.
	re, err := json.Marshal(d)
	if err != nil {
		fail(fmt.Errorf("re-encode: %w", err))
	}
	var d2 doc
	if err := json.Unmarshal(re, &d2); err != nil {
		fail(fmt.Errorf("round-trip parse: %w", err))
	}
	if len(d2.TraceEvents) != len(d.TraceEvents) {
		fail("round-trip changed the event count")
	}

	fmt.Printf("trace OK: %d span events, %d metadata events, schema %s\n",
		x, m, d.OtherData["schemaVersion"])
}

func fail(v any) {
	fmt.Fprintln(os.Stderr, v)
	os.Exit(1)
}
