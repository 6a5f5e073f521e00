package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"anton/internal/obs"
	"anton/internal/obs/health"
	"anton/internal/system"
)

// skipShort gates the multi-second sharded pipeline tests out of -short
// runs; scripts/verify.sh runs the important ones explicitly under the
// race detector instead.
func skipShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("sharded pipeline run is multi-second; covered by the verify.sh race gate")
	}
}

// smallWaterSharded builds the sharded engine for the small protein-in-
// water system on the given virtual node count, with the same initial
// conditions as smallWaterEngine.
func smallWaterSharded(t *testing.T, shards int, edit func(*Config)) *Sharded {
	t.Helper()
	s, err := system.Small(true, 21)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(shards)
	if edit != nil {
		edit(&cfg)
	}
	sh, err := NewSharded(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sh.Close)
	rng := rand.New(rand.NewSource(33))
	sh.SetVelocities(system.InitVelocities(s.Top, 300, rng))
	return sh
}

// TestShardInvariance is the tentpole contract: the message-passing
// sharded pipeline produces a bitwise-identical trajectory to the
// monolithic engine for every shard count, over a run long enough to
// cross many migrations and long-range refreshes (120 steps = 30
// migrations at the default interval).
func TestShardInvariance(t *testing.T) {
	skipShort(t)
	const steps = 120
	ref := smallWaterEngine(t, 1, nil)
	ref.Step(steps)
	rp, rv := ref.Snapshot()

	for _, shards := range []int{1, 8, 64} {
		sh := smallWaterSharded(t, shards, nil)
		sh.Step(steps)
		p, v := sh.Snapshot()
		for i := range rp {
			if p[i] != rp[i] || v[i] != rv[i] {
				t.Fatalf("shards=%d: state of atom %d differs from monolithic run", shards, i)
			}
		}
		if sh.E.Stats.Migrations < 2 {
			t.Fatalf("shards=%d: run crossed only %d migrations, want >= 2",
				shards, sh.E.Stats.Migrations)
		}
	}
}

// TestShardStatsParity: the sharded pipeline's work bookkeeping must agree
// exactly with the monolithic engine's — same pairs considered, matched
// and computed, same mesh interactions, same migrations.
func TestShardStatsParity(t *testing.T) {
	ref := smallWaterEngine(t, 8, nil)
	ref.Step(24)
	sh := smallWaterSharded(t, 8, nil)
	sh.Step(24)
	if sh.E.Stats != ref.Stats {
		t.Fatalf("sharded stats %+v differ from monolithic %+v", sh.E.Stats, ref.Stats)
	}
}

// TestShardCheckpointCrossShardCount: a checkpoint written by an 8-shard
// run restores into a 64-shard run, a 1-shard run and the monolithic
// engine, and all four continuations stay bitwise identical (checkpoints
// carry no node count, so the decomposition is free to change).
func TestShardCheckpointCrossShardCount(t *testing.T) {
	skipShort(t)
	src := smallWaterSharded(t, 8, nil)
	src.Step(50)
	var buf bytes.Buffer
	if err := src.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	image := buf.Bytes()

	src.Step(30)
	rp, rv := src.Snapshot()

	for _, shards := range []int{1, 64} {
		sh := smallWaterSharded(t, shards, nil)
		if err := sh.RestoreCheckpoint(bytes.NewReader(image)); err != nil {
			t.Fatalf("shards=%d: restore: %v", shards, err)
		}
		sh.Step(30)
		p, v := sh.Snapshot()
		for i := range rp {
			if p[i] != rp[i] || v[i] != rv[i] {
				t.Fatalf("shards=%d: continuation diverged at atom %d", shards, i)
			}
		}
	}

	mono := smallWaterEngine(t, 1, nil)
	if err := mono.RestoreCheckpoint(bytes.NewReader(image)); err != nil {
		t.Fatal(err)
	}
	mono.Step(30)
	p, v := mono.Snapshot()
	for i := range rp {
		if p[i] != rp[i] || v[i] != rv[i] {
			t.Fatalf("monolithic continuation diverged at atom %d", i)
		}
	}
}

// TestShardZeroPerturbation: the full observability stack — recorder,
// tracer, and the health watch — attached to a sharded run must not
// change a bit of the trajectory.
func TestShardZeroPerturbation(t *testing.T) {
	skipShort(t)
	plain := smallWaterSharded(t, 8, nil)
	plain.Step(60)
	pp, vp := plain.Snapshot()

	observed := smallWaterSharded(t, 8, nil)
	rec, tr := tracedRecorder()
	rec.EnableMemStats()
	observed.Observe(rec)
	w := NewWatch(observed.E, health.DefaultConfig(), 5)
	observed.Step(60)
	po, vo := observed.Snapshot()

	for i := range pp {
		if pp[i] != po[i] || vp[i] != vo[i] {
			t.Fatalf("observability perturbed the sharded trajectory at atom %d", i)
		}
	}
	if rec.Steps() != 60 {
		t.Errorf("recorder saw %d steps, want 60", rec.Steps())
	}
	snap := rec.Snapshot()
	if snap.Counters[obs.CtrShardImportMsgs].Value == 0 {
		t.Error("no shard import messages recorded on an 8-shard run")
	}
	if snap.Counters[obs.CtrShardExportMsgs].Value == 0 {
		t.Error("no shard export messages recorded on an 8-shard run")
	}
	if snap.Counters[obs.CtrShardMeshMsgs].Value == 0 {
		t.Error("no shard mesh messages recorded on an 8-shard run")
	}
	if len(tr.Spans()) == 0 {
		t.Error("tracer recorded no spans on a sharded run")
	}
	if w.Registry().Worst() > health.SevWarn {
		t.Errorf("watchdogs latched %v on a healthy sharded run", w.Registry().Worst())
	}
}

// TestShardPhaseAttribution: a sharded run books mesh time where it is
// spent — spreading and interpolation happen inside the shard stages and
// must still surface under the monolithic engine's mesh phases — and the
// phases close the books: their sum is the wall of the steps.
func TestShardPhaseAttribution(t *testing.T) {
	skipShort(t)
	sh := smallWaterSharded(t, 8, nil)
	sh.Step(4) // prime and warm up outside the measured window
	rec := obs.NewRecorder()
	sh.Observe(rec)
	const steps = 40
	start := time.Now()
	sh.Step(steps)
	wall := time.Since(start).Nanoseconds()
	snap := rec.Snapshot()

	refreshes := int64(steps / sh.E.Cfg.MTSInterval)
	for _, p := range []obs.Phase{obs.PhaseMeshSpread, obs.PhaseMeshInterp} {
		ps := snap.Phases[p]
		if ps.Ns == 0 || ps.Calls < refreshes {
			t.Errorf("%s: %d ns over %d calls, want non-zero on each of %d refresh steps", ps.Name, ps.Ns, ps.Calls, refreshes)
		}
	}
	if d := wall - snap.PhaseWallNs; d < 0 || float64(d) > 0.02*float64(wall) {
		t.Errorf("phases sum to %d ns of %d ns step wall (%.2f%% unaccounted, want within 2%%)",
			snap.PhaseWallNs, wall, 100*float64(d)/float64(wall))
	}
}

// TestShardMeasuredComm: the measured transport section of Comm() is
// populated, internally consistent, and deterministic across identical
// runs; every evaluation sends one force frame per export link, refresh
// or not; a single-shard run carries no import/export messages at all.
func TestShardMeasuredComm(t *testing.T) {
	skipShort(t)
	run := func() *MeasuredComm {
		sh := smallWaterSharded(t, 8, nil)
		sh.Step(40)
		rep, err := sh.Comm()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Measured == nil {
			t.Fatal("sharded Comm() returned no measured section")
		}
		return rep.Measured
	}
	m := run()
	if m.Evals != 41 { // initial evaluation + one per step
		t.Errorf("measured %d evals, want 41", m.Evals)
	}
	// Export links are the import links reversed, so the counts agree at
	// every evaluation, migrations and refreshes included.
	if m.Refreshes == 0 || m.ExportMsgs != m.ImportMsgs {
		t.Errorf("%d export msgs vs %d import msgs over %d evals (%d refreshes)",
			m.ExportMsgs, m.ImportMsgs, m.Evals, m.Refreshes)
	}
	// Before the first migration the link set is fixed, so the count is
	// exact: a refresh adds bytes to a frame, never a message.
	early := smallWaterSharded(t, 8, nil)
	built := early.E.Stats.Migrations // the construction's initial assignment
	early.Step(early.E.Cfg.MigrationInterval - 1)
	if n := early.E.Stats.Migrations - built; n != 0 {
		t.Fatalf("%d migrations before the first migration step", n)
	}
	links := int64(len(early.comm.exportPairs))
	if rep, err := early.Comm(); err != nil {
		t.Fatal(err)
	} else if em := rep.Measured; em.Refreshes == 0 || em.ExportMsgs != em.Evals*links {
		t.Errorf("%d export msgs over %d evals (%d refreshes), want one per evaluation on each of %d export links",
			em.ExportMsgs, em.Evals, em.Refreshes, links)
	}
	if m.ImportMsgs == 0 || m.ExportMsgs == 0 || m.MeshMsgs == 0 {
		t.Errorf("measured traffic missing: %+v", m)
	}
	if m.Import.Messages != m.ImportMsgs {
		t.Errorf("torus accounting saw %d import msgs, tallied %d", m.Import.Messages, m.ImportMsgs)
	}
	if m.Export.Messages != m.ExportMsgs {
		t.Errorf("torus accounting saw %d export msgs, tallied %d", m.Export.Messages, m.ExportMsgs)
	}
	if m.Import.MaxHops == 0 {
		t.Error("measured import traffic shows zero hops on an 8-node torus")
	}
	if m2 := run(); !reflect.DeepEqual(m, m2) {
		t.Errorf("measured comm not deterministic:\n%+v\nvs\n%+v", m, m2)
	}

	solo := smallWaterSharded(t, 1, nil)
	solo.Step(10)
	rep, err := solo.Comm()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Measured.ImportMsgs != 0 || rep.Measured.ExportMsgs != 0 || rep.Measured.MeshMsgs != 0 {
		t.Errorf("single-shard run should carry no messages, got %+v", rep.Measured)
	}
	if rep.Measured.Evals != 11 {
		t.Errorf("single-shard run measured %d evals, want 11", rep.Measured.Evals)
	}
}
