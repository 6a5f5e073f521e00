package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestPhaseAndCounterNames(t *testing.T) {
	seen := map[string]bool{}
	for p := Phase(0); p < NumPhases; p++ {
		n := p.String()
		if n == "" || strings.HasPrefix(n, "phase(") {
			t.Errorf("phase %d has no name", p)
		}
		if seen[n] {
			t.Errorf("duplicate phase name %q", n)
		}
		seen[n] = true
	}
	for c := Counter(0); c < NumCounters; c++ {
		n := c.String()
		if n == "" || strings.HasPrefix(n, "counter(") {
			t.Errorf("counter %d has no name", c)
		}
		if seen[n] {
			t.Errorf("counter name %q collides", n)
		}
		seen[n] = true
	}
	if Phase(NumPhases).String() == phaseNames[0] {
		t.Error("out-of-range phase resolved to a real name")
	}
}

func TestRecorderAccumulation(t *testing.T) {
	r := NewRecorder()
	r.AddPhase(PhaseBonded, 0, 100)
	r.AddPhase(PhaseBonded, 100, 50)
	r.AddPhaseBatch(PhasePairPPIP, 300, 4)
	r.Add(CtrPairsConsidered, 1000)
	r.Add(CtrPairsComputed, 400)
	r.Add(CtrBatchFlushes, 2)
	r.AddOccupancy([OccupancyBuckets]int64{0, 0, 0, 0, 0, 0, 1, 1})
	r.StepDone(1)
	r.StepDone(2)

	if r.Steps() != 2 {
		t.Fatalf("steps %d", r.Steps())
	}
	if got := r.Counter(CtrPairsConsidered); got != 1000 {
		t.Fatalf("counter %d", got)
	}
	s := r.Snapshot()
	if s.Phases[PhaseBonded].Ns != 150 || s.Phases[PhaseBonded].Calls != 2 {
		t.Errorf("bonded phase %+v", s.Phases[PhaseBonded])
	}
	if s.Phases[PhasePairPPIP].Ns != 300 || s.Phases[PhasePairPPIP].Calls != 4 {
		t.Errorf("ppip phase %+v", s.Phases[PhasePairPPIP])
	}
	// PPIP is nested worker-time: excluded from the wall total and share.
	if s.PhaseWallNs != 150 {
		t.Errorf("phase wall %d, want 150 (ppip must not count)", s.PhaseWallNs)
	}
	if s.Phases[PhasePairPPIP].ShareWall != 0 {
		t.Errorf("nested phase has wall share %v", s.Phases[PhasePairPPIP].ShareWall)
	}
	if s.Phases[PhaseBonded].ShareWall != 1.0 {
		t.Errorf("bonded share %v, want 1", s.Phases[PhaseBonded].ShareWall)
	}
	if s.MatchEfficiency != 0.4 {
		t.Errorf("match efficiency %v, want 0.4", s.MatchEfficiency)
	}
	// Two flushes in the top two buckets: mean occupancy from midpoints
	// (6.5/8 + 7.5/8)/2 = 0.875.
	if s.MeanOccupancy != 0.875 {
		t.Errorf("mean occupancy %v, want 0.875", s.MeanOccupancy)
	}
}

// TestSnapshotJSONComplete renders to JSON and checks the full schema is
// present — every phase, every counter, every occupancy bucket — even on
// an empty recorder, so downstream parsing never needs optional fields.
func TestSnapshotJSONComplete(t *testing.T) {
	for _, rec := range []*Recorder{NewRecorder(), busyRecorder()} {
		var buf bytes.Buffer
		if err := rec.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var back Snapshot
		if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
			t.Fatalf("emitted invalid JSON: %v", err)
		}
		if len(back.Phases) != int(NumPhases) {
			t.Errorf("%d phases in JSON, want %d", len(back.Phases), NumPhases)
		}
		if len(back.Counters) != int(NumCounters) {
			t.Errorf("%d counters in JSON, want %d", len(back.Counters), NumCounters)
		}
		if len(back.Occupancy) != OccupancyBuckets {
			t.Errorf("%d occupancy buckets, want %d", len(back.Occupancy), OccupancyBuckets)
		}
		for p := Phase(0); p < NumPhases; p++ {
			if back.Phases[p].Name != p.String() {
				t.Errorf("phase %d renders as %q", p, back.Phases[p].Name)
			}
		}
	}
}

func busyRecorder() *Recorder {
	r := NewRecorder()
	r.EnableMemStats()
	for p := Phase(0); p < NumPhases; p++ {
		r.AddPhase(p, 0, int64(p+1)*10)
	}
	for c := Counter(0); c < NumCounters; c++ {
		r.Add(c, int64(c+1))
	}
	r.StepDone(1)
	return r
}

func TestSnapshotTextReport(t *testing.T) {
	s := busyRecorder().Snapshot()
	text := s.String()
	for p := Phase(0); p < NumPhases; p++ {
		if !strings.Contains(text, p.String()) {
			t.Errorf("text report missing phase %q", p)
		}
	}
	if !strings.Contains(text, "match efficiency") {
		t.Error("text report missing match efficiency line")
	}
	if !strings.Contains(text, "allocs/step") {
		t.Error("text report missing mem line despite tracking on")
	}
}

func TestMemStatsTracking(t *testing.T) {
	r := NewRecorder()
	r.EnableMemStats()
	sink := make([][]byte, 0, 64)
	for i := 0; i < 50; i++ {
		sink = append(sink, make([]byte, 1<<12))
		r.StepDone(int64(i + 1))
	}
	_ = sink
	s := r.Snapshot()
	if !s.Mem.Tracked {
		t.Fatal("mem not tracked")
	}
	if s.Mem.AllocBytes < 50*(1<<12) {
		t.Errorf("alloc bytes %d, want >= %d", s.Mem.AllocBytes, 50*(1<<12))
	}
	if s.Mem.MallocsPerStep <= 0 {
		t.Errorf("mallocs/step %v", s.Mem.MallocsPerStep)
	}
}
