package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the harness around a call into
// a layer. Start and End are nanoseconds since the tracer was created;
// Parent is the span that caused it (0 for the workload root).
type span struct {
	ID, Parent int
	Lane       int // Chrome-trace thread: inherited from the parent unless the span opens a new one
	Name       string
	Start, End int64

	t *tracer
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing: the untraced runs carry the same call sites at the cost of a
// nil check.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []*span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// add records a span with both ends known (end.IsZero() leaves it open
// for span.end). lane 0 inherits the parent's lane.
func (t *tracer) add(name string, parent *span, lane int, start, end time.Time) *span {
	if t == nil {
		return nil
	}
	s := &span{Name: name, Lane: lane, Start: start.Sub(t.t0).Nanoseconds(), End: -1, t: t}
	if !end.IsZero() {
		s.End = end.Sub(t.t0).Nanoseconds()
	}
	if parent != nil {
		s.Parent = parent.ID
		if lane == 0 {
			s.Lane = parent.Lane
		}
	}
	if s.Lane == 0 {
		s.Lane = 1
	}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

func (t *tracer) begin(name string, parent *span) *span {
	return t.add(name, parent, 0, time.Now(), time.Time{})
}

func (s *span) end() {
	if s != nil {
		s.End = time.Since(s.t.t0).Nanoseconds()
	}
}

// selfTimes returns, per span ID, the span's duration minus the part of
// it that its child spans cover (children of concurrent clients overlap,
// so the cover is the union of their intervals).
func selfTimes(spans []*span) map[int]int64 {
	children := make(map[int][]*span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// printSelfTimes prints total and self time per span name, in order of
// first appearance.
func printSelfTimes(spans []*span) {
	type agg struct {
		n           int
		total, self int64
	}
	self := selfTimes(spans)
	byName := make(map[string]*agg)
	var order []string
	for _, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
			order = append(order, s.Name)
		}
		a.n++
		a.total += s.End - s.Start
		a.self += self[s.ID]
	}
	fmt.Printf("%-28s %6s %12s %12s\n", "span", "n", "total ms", "self ms")
	for _, name := range order {
		a := byName[name]
		fmt.Printf("%-28s %6d %12.3f %12.3f\n", name, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format; id and parent ride in args.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// write stores the spans as a Chrome trace under dir and returns the
// file's path. An unclosed span is a harness bug and is reported.
func (t *tracer) write(dir, workload string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ct := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(t.spans))}
	for _, s := range t.spans {
		if s.End < s.Start {
			return "", fmt.Errorf("span %d (%s) was never closed", s.ID, s.Name)
		}
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	b, err := json.Marshal(ct)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
