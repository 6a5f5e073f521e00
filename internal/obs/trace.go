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
// pos-/force-raw/wire-bytes).
const SchemaVersion = "anton-obs/v5"

// The step tracer records per-step, per-phase spans from the engine into
// a bounded ring exportable as Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing).
//
// Virtual time. Wall clocks are nondeterministic, so span timestamps use
// a deterministic step-indexed virtual clock instead: every step owns a
// fixed window of StepVirtualNs virtual nanoseconds, and each phase is
// assigned a fixed slot inside the window (by default proportional to the
// machine model's predicted phase shares, so the timeline's shape mirrors
// the paper's Table 2 pipeline). Two runs of the same configuration
// produce bitwise-identical timestamps; the measured wall time of each
// span rides along in its args instead of distorting the layout.
//
// Lanes. pid/tid assignment is stable: the engine is pid 1 with a step
// lane (tid 0), a phase lane (tid 1) and one lane per force worker
// (tid 10+w).
//
// Like the Recorder, a Tracer is owned by the engine's coordinating
// goroutine and is strictly read-only with respect to dynamics state.

// StepVirtualNs is the virtual-time window of one step (1 virtual ms, so
// exported timestamps advance 1000 us per step).
const StepVirtualNs = 1_000_000

// Stable pid/tid lane assignment of the exported trace.
const (
	PidEngine = 1 // the engine process lane group

	TidStep       = 0
	TidPhases     = 1
	TidWorkerBase = 10
)

// Span is one recorded trace span. TS and Dur are virtual nanoseconds
// (deterministic); WallNs is the measured wall time of the live engine
// phase the span came from.
type Span struct {
	Name   string
	Pid    int32
	Tid    int32
	TS     int64
	Dur    int64
	Step   int64
	WallNs int64
	Calls  int32
}

// Tracer is the bounded-ring step tracer. The zero value is not usable;
// call NewTracer.
type Tracer struct {
	start time.Time

	ring    []Span
	head    int // next write index
	count   int
	dropped int64

	offsets [NumPhases]int64
	slots   [NumPhases]int64

	// Per-step accumulation, flushed by StepDone.
	cur      [NumPhases]int64
	curCalls [NumPhases]int32
	workerNs []int64
	workerFl []int64
	maxWork  int
}

// NewTracer builds a tracer with the given ring capacity (minimum 64)
// and a uniform phase layout; SetStepLayout replaces the layout.
func NewTracer(capacity int) *Tracer {
	if capacity < 64 {
		capacity = 64
	}
	t := &Tracer{
		start: time.Now(),
		ring:  make([]Span, capacity),
	}
	var uniform [NumPhases]float64
	for p := Phase(0); p < NumPhases; p++ {
		if wallPhase(p) {
			uniform[p] = 1
		}
	}
	t.SetStepLayout(uniform)
	return t
}

// Now returns the tracer's monotonic wall clock in nanoseconds (used by
// the engine to measure span wall times when no Recorder is attached).
func (t *Tracer) Now() int64 { return int64(time.Since(t.start)) }

// Dropped returns the number of spans evicted from the ring.
func (t *Tracer) Dropped() int64 { return t.dropped }

// SetStepLayout installs the per-phase virtual slot widths from relative
// weights: each wall phase receives weight/total of the step window, laid
// out in canonical phase order. Zero or negative weights collapse the
// slot; the nested PhasePairPPIP shares PhasePairMatch's slot (worker
// lanes render inside it).
func (t *Tracer) SetStepLayout(weights [NumPhases]float64) {
	total := 0.0
	for p := Phase(0); p < NumPhases; p++ {
		if wallPhase(p) && weights[p] > 0 {
			total += weights[p]
		}
	}
	if total <= 0 {
		total = 1
	}
	var off int64
	for p := Phase(0); p < NumPhases; p++ {
		if !wallPhase(p) {
			continue
		}
		w := weights[p]
		if w < 0 {
			w = 0
		}
		t.offsets[p] = off
		t.slots[p] = int64(w / total * StepVirtualNs)
		off += t.slots[p]
	}
	t.offsets[PhasePairPPIP] = t.offsets[PhasePairMatch]
	t.slots[PhasePairPPIP] = t.slots[PhasePairMatch]
}

// AddPhase accumulates one timed call into the current step (same call
// convention as Recorder.AddPhase; the engine feeds both).
func (t *Tracer) AddPhase(p Phase, ns int64) {
	t.cur[p] += ns
	t.curCalls[p]++
}

// AddWorker accumulates one worker's per-step PPIP datapath time and
// flush count (rendered as a span on the worker's lane).
func (t *Tracer) AddWorker(w int, ppipNs, flushes int64) {
	for len(t.workerNs) <= w {
		t.workerNs = append(t.workerNs, 0)
		t.workerFl = append(t.workerFl, 0)
	}
	t.workerNs[w] += ppipNs
	t.workerFl[w] += flushes
	if w+1 > t.maxWork {
		t.maxWork = w + 1
	}
}

// push appends a span to the ring, evicting the oldest on overflow.
func (t *Tracer) push(s Span) {
	t.ring[t.head] = s
	t.head = (t.head + 1) % len(t.ring)
	if t.count < len(t.ring) {
		t.count++
	} else {
		t.dropped++
	}
}

// StepDone flushes the accumulated phase and worker times of completed
// step `step` (1-based) as spans in the step's virtual window and resets
// the per-step accumulators.
func (t *Tracer) StepDone(step int64) {
	base := (step - 1) * StepVirtualNs
	if base < 0 {
		base = 0
	}
	var stepWall int64
	for p := Phase(0); p < NumPhases; p++ {
		if !wallPhase(p) {
			continue
		}
		stepWall += t.cur[p]
		if t.curCalls[p] == 0 {
			continue
		}
		t.push(Span{
			Name:   p.String(),
			Pid:    PidEngine,
			Tid:    TidPhases,
			TS:     base + t.offsets[p],
			Dur:    t.slots[p],
			Step:   step,
			WallNs: t.cur[p],
			Calls:  t.curCalls[p],
		})
		t.cur[p] = 0
		t.curCalls[p] = 0
	}
	t.cur[PhasePairPPIP] = 0
	t.curCalls[PhasePairPPIP] = 0
	t.push(Span{
		Name:   "step",
		Pid:    PidEngine,
		Tid:    TidStep,
		TS:     base,
		Dur:    StepVirtualNs,
		Step:   step,
		WallNs: stepWall,
		Calls:  1,
	})
	for w := 0; w < t.maxWork; w++ {
		if t.workerFl[w] > 0 {
			t.push(Span{
				Name:   "ppip-batches",
				Pid:    PidEngine,
				Tid:    TidWorkerBase + int32(w),
				TS:     base + t.offsets[PhasePairPPIP],
				Dur:    t.slots[PhasePairPPIP],
				Step:   step,
				WallNs: t.workerNs[w],
				Calls:  int32(t.workerFl[w]),
			})
		}
		t.workerNs[w] = 0
		t.workerFl[w] = 0
	}
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
			"virtualStepUs": fmt.Sprintf("%d", StepVirtualNs/1000),
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
	for w := 0; w < t.maxWorkerSeen(spans); w++ {
		meta(PidEngine, int64(TidWorkerBase+w), "thread_name", fmt.Sprintf("worker %d", w))
	}
	for _, s := range spans {
		args := map[string]any{"step": s.Step}
		if s.WallNs > 0 {
			args["wall_ns"] = s.WallNs
		}
		if s.Calls > 0 {
			args["calls"] = s.Calls
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

// maxWorkerSeen returns the number of worker lanes present in spans (the
// tracer's running maximum survives ring eviction).
func (t *Tracer) maxWorkerSeen(spans []Span) int {
	max := t.maxWork
	for _, s := range spans {
		if s.Pid == PidEngine && s.Tid >= TidWorkerBase {
			if w := int(s.Tid-TidWorkerBase) + 1; w > max {
				max = w
			}
		}
	}
	return max
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
