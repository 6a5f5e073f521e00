package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"anton/internal/faults"
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
func smallWaterSharded(t *testing.T, shards int, edit func(*Config)) *Engine {
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
		if sh.Stats.Migrations < 2 {
			t.Fatalf("shards=%d: run crossed only %d migrations, want >= 2",
				shards, sh.Stats.Migrations)
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
	if sh.Stats != ref.Stats {
		t.Fatalf("sharded stats %+v differ from monolithic %+v", sh.Stats, ref.Stats)
	}
}

// TestEngineLifecycleBothLayouts drives both layouts through the one
// *Engine surface: equal digests and checkpoint bytes, a measured comm
// section only where there is a transport, no fault statistics without a
// plane, EnableFaults refused without a transport, and Close safe twice.
func TestEngineLifecycleBothLayouts(t *testing.T) {
	var image []byte
	var digest uint64
	for _, c := range []struct {
		name  string
		build func(*testing.T) *Engine
		net   bool
	}{
		{"one shard", func(t *testing.T) *Engine { return smallWaterEngine(t, 8, nil) }, false},
		{"8 shards", func(t *testing.T) *Engine { return smallWaterSharded(t, 8, nil) }, true},
	} {
		e := c.build(t)
		e.Step(20)
		var buf bytes.Buffer
		if err := e.WriteCheckpoint(&buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fresh := c.build(t)
		if err := fresh.RestoreCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("%s: restore: %v", c.name, err)
		}
		var again bytes.Buffer
		if err := fresh.WriteCheckpoint(&again); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(again.Bytes(), buf.Bytes()) {
			t.Errorf("%s: checkpoint round-trip changed the bytes", c.name)
		}
		if image == nil {
			image, digest = buf.Bytes(), e.StateDigest()
		} else {
			if d := e.StateDigest(); d != digest {
				t.Errorf("%s: digest %016x at step 20, one shard %016x", c.name, d, digest)
			}
			if !bytes.Equal(buf.Bytes(), image) {
				t.Errorf("%s: checkpoint bytes differ from the one-shard engine's", c.name)
			}
		}

		rep, err := e.Comm()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if (rep.Measured != nil) != c.net {
			t.Errorf("%s: measured comm section present = %v, want %v", c.name, rep.Measured != nil, c.net)
		}
		if fr := e.FaultReport(); fr != (FaultReport{}) {
			t.Errorf("%s: fault report %+v without a plane", c.name, fr)
		}
		if !c.net {
			if err := e.EnableFaults(FaultConfig{Plane: faults.New(faults.Spec{Seed: 1}, e.Shards())}); err == nil {
				t.Errorf("%s: EnableFaults accepted an engine with no transport", c.name)
			}
			if ts := e.TransportStats(); ts != (TransportStats{}) {
				t.Errorf("%s: transport stats %+v", c.name, ts)
			}
		}
		if err := e.Err(); err != nil {
			t.Errorf("%s: Err() = %v before Close", c.name, err)
		}
		e.Close()
		e.Close()
	}
}

// TestStepAfterClose: a closed sharded engine parks — Step neither panics
// on the closed command channels nor advances — and Err says why.
func TestStepAfterClose(t *testing.T) {
	e := smallWaterSharded(t, 8, nil)
	e.Step(1)
	e.Close()
	e.Step(1)
	if n := e.StepCount(); n != 1 {
		t.Errorf("closed engine stepped to %d, want 1", n)
	}
	if e.Err() == nil {
		t.Error("closed engine reports no error")
	}
	e.Close()
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
// change a bit of the trajectory, and the recorder's shard-message
// counters, folded from the measured-comm tallies at each completed
// step, must have counted traffic.
func TestShardZeroPerturbation(t *testing.T) {
	skipShort(t)
	plain := smallWaterSharded(t, 8, nil)
	plain.Step(60)
	pp, vp := plain.Snapshot()

	observed := smallWaterSharded(t, 8, nil)
	rec, tr := tracedRecorder()
	rec.EnableMemStats()
	observed.Observe(rec)
	w := NewWatch(observed)
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

// TestShardPhaseAttribution: both layouts book a section's time where it
// is spent — spreading, interpolation, bonded terms and the corrections
// run inside the shard stages and surface under their own phases — and
// the phases close the books: their sum is the wall of the steps.
func TestShardPhaseAttribution(t *testing.T) {
	skipShort(t)
	for _, shards := range []int{0, 8} {
		var sim *Engine
		if shards == 0 {
			sim = smallWaterEngine(t, 8, nil)
		} else {
			sim = smallWaterSharded(t, shards, nil)
		}
		sim.Step(4) // prime and warm up outside the measured window
		rec := obs.NewRecorder()
		sim.Observe(rec)
		const steps = 40
		start := time.Now()
		sim.Step(steps)
		wall := time.Since(start).Nanoseconds()
		snap := rec.Snapshot()

		refreshes := int64(steps / DefaultConfig(8).MTSInterval)
		for _, p := range []obs.Phase{obs.PhaseMeshSpread, obs.PhaseMeshInterp, obs.PhaseExclusion} {
			ps := snap.Phases[p]
			if ps.Ns == 0 || ps.Calls < refreshes {
				t.Errorf("shards=%d: %s: %d ns over %d calls, want non-zero on each of %d refresh steps",
					shards, ps.Name, ps.Ns, ps.Calls, refreshes)
			}
		}
		for _, p := range []obs.Phase{obs.PhaseBonded, obs.PhasePair14} {
			if ps := snap.Phases[p]; ps.Ns == 0 || ps.Calls < steps {
				t.Errorf("shards=%d: %s: %d ns over %d calls, want non-zero on each of %d steps",
					shards, ps.Name, ps.Ns, ps.Calls, steps)
			}
		}
		if d := wall - snap.PhaseWallNs; d < 0 || float64(d) > 0.02*float64(wall) {
			t.Errorf("shards=%d: phases sum to %d ns of %d ns step wall (%.2f%% unaccounted, want within 2%%)",
				shards, snap.PhaseWallNs, wall, 100*float64(d)/float64(wall))
		}
	}
}

// TestShardMeasuredComm: the measured transport section of Comm() is
// populated, internally consistent, and deterministic across identical
// runs; every evaluation sends one position and one force frame per link,
// refresh or not, and the frames carry one atom record per foot atom
// (force: twice on refresh), which the report prints per evaluation; a
// single-shard run carries no import/export messages at all.
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
	built := early.Stats.Migrations // the construction's initial assignment
	early.Step(early.Cfg.MigrationInterval - 1)
	if n := early.Stats.Migrations - built; n != 0 {
		t.Fatalf("%d migrations before the first migration step", n)
	}
	links := int64(len(early.net.comm.exportPairs))
	var posAtoms, footAtoms int64
	for _, p := range early.net.comm.importPairs {
		posAtoms += int64(p.bytes / shardPosBytes)
	}
	for _, p := range early.net.comm.exportPairs {
		footAtoms += int64(p.bytes / shardForceBytes)
	}
	rep, err := early.Comm()
	if err != nil {
		t.Fatal(err)
	}
	em := rep.Measured
	if em.Refreshes == 0 || em.ExportMsgs != em.Evals*links || em.ImportMsgs != em.Evals*int64(len(early.net.comm.importPairs)) {
		t.Errorf("%d import and %d export msgs over %d evals (%d refreshes), want one per evaluation on each of %d links",
			em.ImportMsgs, em.ExportMsgs, em.Evals, em.Refreshes, links)
	}
	posRecs, forceRecs := em.PosRawBytes/posRecord, em.ForceRawBytes/forceRawBytes(1)
	if posRecs != em.Evals*posAtoms || forceRecs != (em.Evals+em.Refreshes)*footAtoms {
		t.Errorf("%d position and %d force atom records over %d evals (%d refreshes), want %d and %d",
			posRecs, forceRecs, em.Evals, em.Refreshes, em.Evals*posAtoms, (em.Evals+em.Refreshes)*footAtoms)
	}
	for _, want := range []string{
		fmt.Sprintf("atom records %10.1f/eval (raw bytes / 12)", float64(posRecs)/float64(em.Evals)),
		fmt.Sprintf("atom records %10.1f/eval (raw bytes / 24, long-range sections included)", float64(forceRecs)/float64(em.Evals)),
	} {
		if !strings.Contains(rep.String(), want) {
			t.Errorf("measured report lacks %q:\n%s", want, rep)
		}
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
	rep, err = solo.Comm()
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

// TestShardedBuildDHFR: a sharded DHFR engine, at 8 and at 64 shards,
// builds within 5x the time of the default monolithic DHFR engine (8
// nodes, what antonsim and the benchmark build) and steps to its digest.
// The views are derived from per-shard id lists of up to ~400k entries (8
// shards), so a quadratic pass over them shows here as a build hundreds
// of times slower than the monolithic one. Each build is timed as the best of three, the two kinds
// alternating, so one noisy build on a shared host does not decide the
// verdict.
func TestShardedBuildDHFR(t *testing.T) {
	skipShort(t)
	const steps = 4
	s, err := system.ByName("DHFR")
	if err != nil {
		t.Fatal(err)
	}
	vel := system.InitVelocities(s.Top, 300, rand.New(rand.NewSource(7)))
	ref, err := NewEngine(s, DefaultConfig(8)) // also fits the PPIP tables
	if err != nil {
		t.Fatal(err)
	}
	ref.SetVelocities(vel)
	ref.Step(steps)
	want := ref.StateDigest()

	for _, shards := range []int{8, 64} {
		var sh *Engine
		mono, built := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for range 3 {
			t0 := time.Now()
			if _, err := NewEngine(s, DefaultConfig(8)); err != nil {
				t.Fatal(err)
			}
			mono = min(mono, time.Since(t0))
			if sh != nil {
				sh.Close()
			}
			t0 = time.Now()
			if sh, err = NewSharded(s, DefaultConfig(shards)); err != nil {
				t.Fatal(err)
			}
			built = min(built, time.Since(t0))
		}
		t.Logf("shards=%d: NewSharded %v, NewEngine %v (%.1fx)",
			shards, built, mono, float64(built)/float64(mono))
		if built > 5*mono {
			t.Errorf("shards=%d: NewSharded took %v, over 5x NewEngine's %v", shards, built, mono)
		}
		sh.SetVelocities(vel)
		sh.Step(steps)
		if got := sh.StateDigest(); got != want {
			t.Errorf("shards=%d: digest at step %d = %016x, monolithic %016x", shards, steps, got, want)
		}
		sh.Close()
	}
}
