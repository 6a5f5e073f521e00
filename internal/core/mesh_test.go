package core

import (
	"slices"
	"sync"
	"testing"

	"anton/internal/fixp"
)

// TestMeshPathWorkerInvariance is the long-range counterpart of the pair
// kernel's worker-invariance guarantee: with the mesh refreshed on every
// step (MTSInterval=1), the trajectory must be bitwise identical for
// Workers in {1, 2, 4, 8} over a run long enough to cross many migrations.
// The parallel spread writes per-worker fixed-point buffers merged in
// fixed order, the line FFTs are scheduled but never reassociated, and the
// interpolation owner-writes — none of it may depend on the worker count.
func TestMeshPathWorkerInvariance(t *testing.T) {
	const steps = 120
	var refP []fixp.Vec3
	var refV []Vel3
	for _, workers := range []int{1, 2, 4, 8} {
		e := ionicEngine(t, 8, func(c *Config) {
			c.Workers = workers
			c.MTSInterval = 1
		})
		e.Step(steps)
		p, v := e.Snapshot()
		if refP == nil {
			refP, refV = p, v
			continue
		}
		for i := range p {
			if p[i] != refP[i] || v[i] != refV[i] {
				t.Fatalf("workers=%d: mesh-path trajectory differs at atom %d after %d steps",
					workers, i, steps)
			}
		}
		if e.Stats.Migrations < 2 {
			t.Fatalf("workers=%d: run crossed only %d migrations, want >= 2",
				workers, e.Stats.Migrations)
		}
	}
}

// TestMeshSpreadStartsFromZero: a worker's spreading buffer is cleared
// before each spread, so evaluating the mesh twice at the same positions
// — at a worker count that deals several blocks to each worker — yields
// the same mesh charge and long-range forces.
func TestMeshSpreadStartsFromZero(t *testing.T) {
	e := smallWaterEngine(t, 8, func(c *Config) { c.Workers = 3 })
	e.Step(1)
	ms := e.mesh
	e.computeForces(true)
	first, firstF := slices.Clone(ms.counts), slices.Clone(e.fLong)
	if st := e.shards[0]; st.wps != 3 {
		t.Fatalf("the one shard ran on %d workers, want 3", st.wps)
	}
	e.computeForces(true)
	if !slices.Equal(ms.counts, first) {
		t.Fatal("a second spread of the same positions changed the mesh charge")
	}
	if !slices.Equal(e.fLong, firstF) {
		t.Fatal("a second evaluation at the same positions changed the long-range forces")
	}
}

// TestConcurrentShardMeshSolves steps several independent sharded engines
// concurrently with the mesh refreshed every step, checking each against
// the monolithic reference. The engines share only the process-wide FFT
// plan cache, so under -race (verify.sh runs this) the test would catch
// the unsynchronized twiddle-table sharing the old FFT path had.
func TestConcurrentShardMeshSolves(t *testing.T) {
	skipShort(t)
	const steps = 30
	ref := smallWaterEngine(t, 1, func(c *Config) { c.MTSInterval = 1 })
	ref.Step(steps)
	rp, rv := ref.Snapshot()

	const engines = 3
	shs := make([]*Engine, engines)
	for i := range shs {
		shs[i] = smallWaterSharded(t, 8, func(c *Config) { c.MTSInterval = 1 })
	}
	var wg sync.WaitGroup
	for _, sh := range shs {
		wg.Add(1)
		go func(sh *Engine) {
			defer wg.Done()
			sh.Step(steps)
		}(sh)
	}
	wg.Wait()
	for gi, sh := range shs {
		p, v := sh.Snapshot()
		for i := range rp {
			if p[i] != rp[i] || v[i] != rv[i] {
				t.Fatalf("engine %d: state of atom %d differs from monolithic run", gi, i)
			}
		}
	}
}
