package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// SchemaVersion names the wire schema shared by every observability
// artifact: the trace exporter's otherData block, the metrics snapshot,
// and the telemetry endpoints. Bump it when a field changes meaning. v4
// adds the run-ledger counters (ledger-records/-commits/-bytes). v5 adds
// the streaming shard-pipeline counters (stream-overlap-ns/-blocked-ns,
// pos-/force-raw/wire-bytes). v6 drops stream-overlap-ns: the shard
// force evaluation has one schedule, which never computes while imports
// are in flight. v7 makes trace spans measured: ts and dur are the start
// and duration read from the one clock (Now), the otherData key giving
// the old virtual step window and the per-span wall_ns arg are gone, and
// a sharded run draws one "shard N" lane per shard. v8 makes a monolithic
// worker lane's span ("pair-blocks") the worker's busy interval in the
// pair section, with its PPIP time as args.ppip_ns.
const SchemaVersion = "anton-obs/v8"

// The step tracer keeps a bounded ring of the spans a Recorder measured,
// exportable as Chrome trace-event JSON (loadable in Perfetto /
// chrome://tracing). It is attached to a Recorder (Recorder.Trace), never
// to the engine: the engine times each phase once and hands the recorder
// its start and duration, and the tracer draws exactly that.
//
// Measured time. A span's TS and Dur are nanoseconds on the one
// observability clock, Now. Phase spans are the timed calls themselves; a
// step span runs from the step's first phase start to Recorder.StepDone,
// so whatever the phases did not time shows as the gap between them.
//
// Ordering contract. Timestamps are measured and differ between runs; the
// sequence of (name, lane, step, calls) does not: the same run yields the
// same spans in the same order.
//
// Lanes. pid/tid assignment is stable: the engine is pid 1 with a step
// lane (tid 0), a phase lane (tid 1) and one lane per force worker
// ("worker N") or per shard ("shard N") at tid 10+N.
//
// Like the Recorder, a Tracer is owned by the engine's coordinating
// goroutine and is strictly read-only with respect to dynamics state.

// clockBase anchors Now (time.Since reads the monotonic component).
var clockBase = time.Now()

// Now returns the observability clock: monotonic nanoseconds since the
// process started. Every phase timer, shard stage timer and trace span
// reads it, so they share one time base.
func Now() int64 { return int64(time.Since(clockBase)) }

// Stable pid/tid lane assignment of the exported trace.
const (
	PidEngine = 1 // the engine process lane group

	TidStep       = 0
	TidPhases     = 1
	TidWorkerBase = 10
)

// Span is one recorded trace span: TS and Dur are measured nanoseconds on
// the Now clock. PPIPNs is the part of a worker lane's span spent in the
// PPIP datapath (exported as args.ppip_ns; 0 elsewhere and omitted).
type Span struct {
	Name   string
	Pid    int32
	Tid    int32
	TS     int64
	Dur    int64
	Step   int64
	Calls  int32
	PPIPNs int64
}

// Tracer is the bounded-ring step tracer. The zero value is not usable;
// call NewTracer.
type Tracer struct {
	ring    []Span
	head    int // next write index
	count   int
	dropped int64

	open   int      // spans pushed since the last step closed
	stepT0 int64    // start of the open step's first span
	lanes  []string // lane kind ("worker", "shard") per worker lane
}

// NewTracer builds a tracer with the given ring capacity (minimum 64).
func NewTracer(capacity int) *Tracer {
	if capacity < 64 {
		capacity = 64
	}
	return &Tracer{ring: make([]Span, capacity)}
}

// Dropped returns the number of spans evicted from the ring.
func (t *Tracer) Dropped() int64 { return t.dropped }

// push appends a span of the open step to the engine pid's ring, evicting
// the oldest on overflow. Its step number is filled in when the step
// closes.
func (t *Tracer) push(s Span) {
	if t.open == 0 {
		t.stepT0 = s.TS
	}
	t.open++
	s.Pid = PidEngine
	t.ring[t.head] = s
	t.head = (t.head + 1) % len(t.ring)
	if t.count < len(t.ring) {
		t.count++
	} else {
		t.dropped++
	}
}

// lane records a span on worker lane w, naming the lane kind.
func (t *Tracer) lane(kind, name string, w int, t0, ns int64, calls int32, ppipNs int64) {
	for len(t.lanes) <= w {
		t.lanes = append(t.lanes, "")
	}
	t.lanes[w] = kind
	t.push(Span{Name: name, Tid: TidWorkerBase + int32(w), TS: t0, Dur: ns, Calls: calls, PPIPNs: ppipNs})
}

// stepDone closes step `step` at end: the spans pushed since the last
// close (those still in the ring) take its number, and a step span runs
// from the first of them to end.
func (t *Tracer) stepDone(step, end int64) {
	if t.open == 0 {
		t.stepT0 = end
	}
	t.push(Span{Name: "step", Tid: TidStep, TS: t.stepT0, Dur: end - t.stepT0, Calls: 1})
	for i := 1; i <= min(t.open, t.count); i++ {
		t.ring[(t.head-i+len(t.ring))%len(t.ring)].Step = step
	}
	t.open = 0
}

// rewind drops the spans of the open step and of every step after step,
// newest first, so a rollback to the end of step replays those steps'
// spans once.
func (t *Tracer) rewind(step int64) {
	drop := min(t.open, t.count)
	for drop < t.count && t.ring[(t.head-drop-1+len(t.ring))%len(t.ring)].Step > step {
		drop++
	}
	t.head = (t.head - drop + len(t.ring)) % len(t.ring)
	t.count -= drop
	t.open = 0
}

// Spans returns the ring contents oldest-first (copied).
func (t *Tracer) Spans() []Span {
	out := make([]Span, 0, t.count)
	start := t.head - t.count
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.count; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}

// traceEvent is the Chrome trace-event wire form.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat,omitempty"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON-object trace container.
type traceFile struct {
	TraceEvents     []traceEvent      `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData"`
}

// ExportJSON renders the ring as a Chrome trace-event JSON document:
// metadata events naming every process and thread lane, then the spans
// as complete ("X") events sorted by timestamp (monotonic non-negative
// ts, microseconds). The otherData block carries SchemaVersion.
func (t *Tracer) ExportJSON() ([]byte, error) {
	spans := t.Spans()
	sort.SliceStable(spans, func(a, b int) bool {
		if spans[a].TS != spans[b].TS {
			return spans[a].TS < spans[b].TS
		}
		if spans[a].Pid != spans[b].Pid {
			return spans[a].Pid < spans[b].Pid
		}
		return spans[a].Tid < spans[b].Tid
	})

	f := traceFile{
		DisplayTimeUnit: "ms",
		OtherData: map[string]string{
			"schemaVersion": SchemaVersion,
			"generator":     "anton step tracer",
		},
	}
	meta := func(pid, tid int64, kind, name string) {
		f.TraceEvents = append(f.TraceEvents, traceEvent{
			Name: kind, Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
	meta(PidEngine, 0, "process_name", "engine")
	meta(PidEngine, TidStep, "thread_name", "steps")
	meta(PidEngine, TidPhases, "thread_name", "phases")
	for w, kind := range t.lanes {
		if kind != "" {
			meta(PidEngine, int64(TidWorkerBase+w), "thread_name", fmt.Sprintf("%s %d", kind, w))
		}
	}
	for _, s := range spans {
		args := map[string]any{"step": s.Step, "calls": s.Calls}
		if s.PPIPNs != 0 {
			args["ppip_ns"] = s.PPIPNs
		}
		f.TraceEvents = append(f.TraceEvents, traceEvent{
			Name: s.Name,
			Ph:   "X",
			Cat:  "sim",
			TS:   float64(s.TS) / 1e3,
			Dur:  float64(s.Dur) / 1e3,
			Pid:  int64(s.Pid),
			Tid:  int64(s.Tid),
			Args: args,
		})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(f); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Export writes the Chrome trace-event JSON document to w.
func (t *Tracer) Export(w io.Writer) error {
	b, err := t.ExportJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}
