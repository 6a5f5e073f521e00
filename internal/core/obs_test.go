package core

import (
	"math"
	"math/rand"
	"testing"

	"anton/internal/nt"
	"anton/internal/obs"
)

// TestObsBitwiseInvariance is the zero-perturbation contract: attaching a
// Recorder (with the expensive mem-stats tracking on) must not change a
// single bit of the trajectory. 120 steps cross 30 migration events and
// many long-range refreshes, so every instrumented phase executes.
func TestObsBitwiseInvariance(t *testing.T) {
	plain := smallWaterEngine(t, 8, nil)
	plain.Step(120)
	pp, vp := plain.Snapshot()

	observed := smallWaterEngine(t, 8, nil)
	rec := obs.NewRecorder()
	rec.EnableMemStats()
	observed.Observe(rec)
	observed.Step(120)
	po, vo := observed.Snapshot()

	for i := range pp {
		if pp[i] != po[i] || vp[i] != vo[i] {
			t.Fatalf("observability perturbed the trajectory at atom %d", i)
		}
	}
	if rec.Steps() != 120 {
		t.Errorf("recorder saw %d steps, want 120", rec.Steps())
	}
	snap := rec.Snapshot()
	for _, p := range snap.Phases {
		if p.Calls == 0 {
			t.Errorf("phase %q never fired over a migration-crossing run", p.Name)
		}
	}
	if snap.Counters[obs.CtrMigrations].Value < 30 {
		t.Errorf("migration counter %d, want >= 30", snap.Counters[obs.CtrMigrations].Value)
	}
}

// TestObsCountersMatchEngineStats: the recorder's HTIS counters must agree
// exactly with the engine's own Stats bookkeeping (both fed from the same
// merged per-worker tallies), and the derived match efficiency must agree
// with the nt analytic model of the decomposition to within its geometric
// approximation error.
func TestObsCountersMatchEngineStats(t *testing.T) {
	e := smallWaterEngine(t, 8, nil)
	rec := obs.NewRecorder()
	e.Observe(rec)
	e.Step(20)

	pairs := map[obs.Counter]int64{
		obs.CtrPairsConsidered:       e.Stats.PairsConsidered,
		obs.CtrPairsTested:           e.Stats.PairsTested,
		obs.CtrPairsMatched:          e.Stats.PairsMatched,
		obs.CtrPairsComputed:         e.Stats.PairsComputed,
		obs.CtrMeshInteractions:      e.Stats.MeshInteractions,
		obs.CtrConstraintSweeps:      e.Stats.ConstraintSweeps,
		obs.CtrConstraintUnconverged: e.Stats.ConstraintUnconverged,
	}
	for c, want := range pairs {
		if got := rec.Counter(c); got != want {
			t.Errorf("counter %v = %d, engine stats say %d", c, got, want)
		}
	}
	if rec.Counter(obs.CtrPairsConsidered) == 0 {
		t.Fatal("no pairs considered — instrumentation not wired")
	}
	if f := rec.Counter(obs.CtrBatchFlushes); f == 0 {
		t.Error("no batch flushes recorded")
	}
	// Pipeline ordering invariant: match-unit candidates shrink to matched
	// pairs, the exclusion merge drops some before batching, and the exact
	// cutoff (applied inside PPIP evaluation) drops more:
	// considered >= matched >= batched >= computed.
	considered := rec.Counter(obs.CtrPairsConsidered)
	matched := rec.Counter(obs.CtrPairsMatched)
	batched := rec.Counter(obs.CtrBatchPairs)
	computed := rec.Counter(obs.CtrPairsComputed)
	if !(considered >= matched && matched >= batched && batched >= computed && computed > 0) {
		t.Errorf("pipeline counters out of order: considered=%d matched=%d batched=%d computed=%d",
			considered, matched, batched, computed)
	}

	snap := rec.Snapshot()
	if want := e.Stats.MatchEfficiency(); math.Abs(snap.MatchEfficiency-want) > 1e-12 {
		t.Errorf("snapshot match efficiency %.6f, engine %.6f", snap.MatchEfficiency, want)
	}

	// Loose analytic cross-check: the measured efficiency must land in the
	// same regime as the nt subbox model of this decomposition — not equal
	// (the software kernel batches cluster-on-cluster rather than
	// tower-on-plate, and considers candidates within cutoff + slack
	// margins) but no lower than half of it.
	cfg := nt.Config{
		BoxSide: e.boxSide[0],
		Cutoff:  e.Sys.Cutoff,
		Subdiv:  2,
	}
	analytic := nt.MatchEfficiencyBoxGranular(cfg, rand.New(rand.NewSource(7)), 200000)
	if snap.MatchEfficiency < analytic/2 || snap.MatchEfficiency > 1 {
		t.Errorf("measured match efficiency %.3f implausible vs analytic model %.3f",
			snap.MatchEfficiency, analytic)
	}
}
