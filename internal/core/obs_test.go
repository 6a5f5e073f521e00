package core

import (
	"math"
	"math/rand"
	"testing"

	"anton/internal/faults"
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

// engineTallies reads, through the engine's public surface, every tally a
// recorder counter folds from: Stats, the transport's TransportStats, the
// measured-comm message counts and the FaultReport (zero where the engine
// has no transport or no fault plane).
func engineTallies(t *testing.T, e *Engine) map[obs.Counter]int64 {
	t.Helper()
	s := e.Stats
	m := map[obs.Counter]int64{
		obs.CtrPairsConsidered:       s.PairsConsidered,
		obs.CtrPairsTested:           s.PairsTested,
		obs.CtrPairsMatched:          s.PairsMatched,
		obs.CtrPairsComputed:         s.PairsComputed,
		obs.CtrMeshInteractions:      s.MeshInteractions,
		obs.CtrMigrations:            int64(s.Migrations),
		obs.CtrConstraintSweeps:      s.ConstraintSweeps,
		obs.CtrConstraintUnconverged: s.ConstraintUnconverged,
	}
	tr := e.TransportStats()
	m[obs.CtrStreamBlockedNs] = tr.BlockedNs
	m[obs.CtrPosRawBytes] = tr.PosRawBytes
	m[obs.CtrPosWireBytes] = tr.PosWireBytes
	m[obs.CtrForceRawBytes] = tr.ForceRawBytes
	m[obs.CtrForceWireBytes] = tr.ForceWireBytes
	rep, err := e.Comm()
	if err != nil {
		t.Fatal(err)
	}
	if mc := rep.Measured; mc != nil {
		m[obs.CtrShardImportMsgs] = mc.ImportMsgs
		m[obs.CtrShardExportMsgs] = mc.ExportMsgs
		m[obs.CtrShardMeshMsgs] = mc.MeshMsgs
		m[obs.CtrShardMigrationMsgs] = mc.MigrationMsgs
	}
	f := e.FaultReport()
	m[obs.CtrRetransmits] = f.Transport.Retransmits
	m[obs.CtrDupDiscards] = f.Transport.DupDiscards
	m[obs.CtrCrcDiscards] = f.Transport.CrcDiscards
	m[obs.CtrFaultDrops] = f.Injected.Drops
	m[obs.CtrFaultDups] = f.Injected.Dups
	m[obs.CtrFaultDelays] = f.Injected.Delays
	m[obs.CtrFaultCorrupts] = f.Injected.Corrupts
	m[obs.CtrFaultStalls] = f.Injected.Stalls
	m[obs.CtrFaultCrashes] = f.Injected.CrashesFired
	m[obs.CtrRecoveries] = f.Recoveries
	m[obs.CtrReplaySteps] = f.ReplaySteps
	m[obs.CtrRecoveryNs] = f.RecoveryNs
	return m
}

// statsCounter reports whether a counter folds from a Stats field (the
// tallies a rollback restores).
func statsCounter(c obs.Counter) bool {
	switch c {
	case obs.CtrPairsConsidered, obs.CtrPairsTested, obs.CtrPairsMatched,
		obs.CtrPairsComputed, obs.CtrMeshInteractions, obs.CtrMigrations,
		obs.CtrConstraintSweeps, obs.CtrConstraintUnconverged:
		return true
	}
	return false
}

// TestObsCountersMatchEngineStats: every recorder counter that mirrors an
// engine tally — Stats, TransportStats, the measured-comm message counts,
// FaultReport — reads exactly what that tally gained while the recorder
// was attached, in every layout. Under a crash campaign Stats counts the
// trajectory (it equals the fault-free run's) while the recorder also
// keeps the abandoned attempt's work. On the one-shard run the match
// efficiency must also land near the nt analytic model of the
// decomposition.
func TestObsCountersMatchEngineStats(t *testing.T) {
	const steps = 24
	ref := smallWaterSharded(t, 8, nil)
	ref.Step(steps)

	crashPlane := func(e *Engine) {
		sp, err := faults.ParseSpec("seed=7,crashes=1,horizon=20")
		if err != nil {
			t.Fatal(err)
		}
		if err := e.EnableFaults(chaosConfig(faults.New(sp, e.Shards()))); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name   string
		build  func(*testing.T) *Engine
		crash  bool // under a one-crash fault plane
		before int  // steps run before the recorder is attached
	}{
		{name: "one shard", build: func(t *testing.T) *Engine { return smallWaterEngine(t, 8, nil) }},
		{name: "8 shards", build: func(t *testing.T) *Engine { return smallWaterSharded(t, 8, nil) }},
		{name: "8 shards, one crash", build: func(t *testing.T) *Engine { return smallWaterSharded(t, 8, nil) },
			crash: true},
		{name: "attached after 8 steps", build: func(t *testing.T) *Engine { return smallWaterSharded(t, 8, nil) },
			before: 8},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := c.build(t)
			if c.crash {
				crashPlane(e)
			}
			if c.before > 0 {
				e.Step(c.before) // Step(0) would run the priming evaluation
			}
			rec := obs.NewRecorder()
			e.Observe(rec)
			base := engineTallies(t, e)
			e.Step(steps - c.before)
			if err := e.Err(); err != nil {
				t.Fatal(err)
			}
			now := engineTallies(t, e)

			if c.crash {
				if n := e.FaultReport().Recoveries; n != 1 {
					t.Fatalf("%d recoveries, want 1", n)
				}
				if e.Stats != ref.Stats {
					t.Errorf("stats after a rollback %+v, fault-free run %+v", e.Stats, ref.Stats)
				}
			}
			// A rollback that abandons a completed step redoes its pairs.
			abandoned := c.crash && e.FaultReport().ReplaySteps > 1
			if got := rec.Counter(obs.CtrPairsConsidered); abandoned && got <= e.Stats.PairsConsidered {
				t.Errorf("pairs considered %d after replaying steps, Stats %d", got, e.Stats.PairsConsidered)
			}
			for ctr, v := range now {
				want, got := v-base[ctr], rec.Counter(ctr)
				switch {
				case c.crash && statsCounter(ctr):
					// The replayed steps' work is counted again.
					if got < want {
						t.Errorf("counter %v = %d, below the trajectory's %d", ctr, got, want)
					}
				case got != want:
					t.Errorf("counter %v = %d, its tally gained %d", ctr, got, want)
				}
			}
			if c.crash && rec.Counter(obs.CtrFaultCrashes) != 1 {
				t.Errorf("fault-crashes %d, want 1", rec.Counter(obs.CtrFaultCrashes))
			}
			if e.net != nil && rec.Counter(obs.CtrShardImportMsgs) == 0 {
				t.Error("no shard import messages recorded")
			}

			// Pipeline ordering invariant: match-unit candidates shrink to
			// matched pairs, the exclusion merge drops some before batching,
			// and the exact cutoff (applied inside PPIP evaluation) drops
			// more: considered >= matched >= batched >= computed.
			considered := rec.Counter(obs.CtrPairsConsidered)
			matched := rec.Counter(obs.CtrPairsMatched)
			batched := rec.Counter(obs.CtrBatchPairs)
			computed := rec.Counter(obs.CtrPairsComputed)
			if !(considered >= matched && matched >= batched && batched >= computed && computed > 0) {
				t.Errorf("pipeline counters out of order: considered=%d matched=%d batched=%d computed=%d",
					considered, matched, batched, computed)
			}
			if rec.Counter(obs.CtrBatchFlushes) == 0 {
				t.Error("no batch flushes recorded")
			}
			if c.name != "one shard" {
				return
			}
			snap := rec.Snapshot()
			if want := e.Stats.MatchEfficiency(); math.Abs(snap.MatchEfficiency-want) > 1e-12 {
				t.Errorf("snapshot match efficiency %.6f, engine %.6f", snap.MatchEfficiency, want)
			}
			// Loose analytic cross-check: the measured efficiency must land
			// in the same regime as the nt subbox model of this
			// decomposition — not equal (the software kernel batches
			// cluster-on-cluster rather than tower-on-plate, and considers
			// candidates within cutoff + slack margins) but no lower than
			// half of it.
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
		})
	}
}
