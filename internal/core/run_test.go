package core

import (
	"path/filepath"
	"testing"
)

// TestStateDigest: the digest is a trajectory identity — equal for
// identically-seeded runs, different across steps and across seeds, and
// stable under snapshotting.
func TestStateDigest(t *testing.T) {
	a := smallWaterEngine(t, 8, nil)
	b := smallWaterEngine(t, 8, nil)
	if a.StateDigest() != b.StateDigest() {
		t.Fatal("identically built engines disagree at step 0")
	}
	a.Step(12)
	b.Step(12)
	if a.StateDigest() != b.StateDigest() {
		t.Fatal("identically seeded runs diverged by digest")
	}
	d12 := a.StateDigest()
	a.Step(1)
	if a.StateDigest() == d12 {
		t.Fatal("digest did not change across a step")
	}
	c := smallWaterEngine(t, 8, func(cfg *Config) { cfg.TargetT = 310 })
	c.Step(13)
	if c.StateDigest() == a.StateDigest() {
		t.Fatal("different thermostat target produced the same digest")
	}
}

// TestCheckpointFileCrossShardResume: the antond resume path, file
// edition, across decompositions — a checkpoint *file* written
// mid-trajectory by an 8-shard run resumes at 1 and 64 shards (and
// monolithically) through RestoreCheckpointFile, and every continuation
// reaches the reference digest. This is the cross-shard-count
// round-trip the service's durability contract leans on: the persisted
// artifact, not just the in-memory stream, is decomposition-free.
func TestCheckpointFileCrossShardResume(t *testing.T) {
	skipShort(t)
	path := filepath.Join(t.TempDir(), "job.ckpt")

	src := smallWaterSharded(t, 8, nil)
	src.Step(50)
	if err := src.WriteCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	src.Step(30)
	want := src.StateDigest()
	wantStep := src.StepCount()

	resume := func(name string, sim *Engine) {
		if err := sim.RestoreCheckpointFile(path); err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		if got := sim.StepCount(); got != 50 {
			t.Fatalf("%s: resumed at step %d, want 50", name, got)
		}
		sim.Step(wantStep - sim.StepCount())
		if got := sim.StateDigest(); got != want {
			t.Fatalf("%s: digest %016x after resume, want %016x", name, got, want)
		}
	}
	resume("shards=1", smallWaterSharded(t, 1, nil))
	resume("shards=64", smallWaterSharded(t, 64, nil))
	resume("monolithic", smallWaterEngine(t, 1, nil))
}
