package core

import (
	"math/rand"
	"testing"

	"anton/internal/system"
)

// dhfrBenchEngine builds the paper's 23,558-atom DHFR benchmark system —
// the workload the HTIS pair path is sized for (Table 1) — on the node
// count the bench harness's dhfr_mono uses, and warms the engine so
// steady-state iterations measure only per-step work.
func dhfrBenchEngine(b *testing.B) *Engine {
	b.Helper()
	s, err := system.ByName("DHFR")
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(s, DefaultConfig(8))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	e.SetVelocities(system.InitVelocities(s.Top, 300, rng))
	e.Step(1) // force evaluation warm-up: buffers sized, tables touched
	return e
}

// pairSections runs the range-limited sections of the one-shard engine's
// stage A at the current positions — owned copy into the slot view,
// zeroed accumulator, gather, pair scan (match -> exclusion -> PPIP),
// partials reduce — and returns the shard, whose slot-indexed lfShort
// then holds the pair forces.
func pairSections(e *Engine) *shardState {
	st := e.shards[0]
	st.begin(false)
	for i, a := range st.owned {
		st.spos[st.ownedSlots[i]] = e.Pos[a]
	}
	clear(st.lfShort)
	st.gather()
	st.section(len(st.myPairs), st.pairFn)
	st.addPartials(st.lfShort)
	return st
}

// meshSections runs the mesh sections of the one-shard engine's refresh
// evaluation at the positions of its last one: spread, merge, convolve,
// and the interpolation, which adds into fLong.
func meshSections(e *Engine) {
	st := e.shards[0]
	st.begin(true)
	for _, wk := range st.wk[:st.wps] {
		clear(wk.mesh)
	}
	st.section(len(st.owned), st.spreadFn)
	e.mergeMesh()
	e.mesh.convolve(e.workers())
	st.section(len(st.owned), st.interpFn)
}

// BenchmarkRangeLimitedForces measures one full HTIS range-limited force
// evaluation (gather -> match -> exclusion -> PPIP -> partials reduce) at DHFR
// scale.
func BenchmarkRangeLimitedForces(b *testing.B) {
	e := dhfrBenchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairSections(e)
	}
}

// BenchmarkStepDHFRScale measures a whole velocity-Verlet step (forces,
// constraints, integration; the long-range mesh refresh amortized at the
// MTS cadence) at DHFR scale.
func BenchmarkStepDHFRScale(b *testing.B) {
	e := dhfrBenchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.stepOnce()
	}
}

// BenchmarkStepSmall measures a whole step of the 645-atom system the
// bench harness's small_mono, small_shard8 and service_jobs run (same
// builder seed and node count as small_mono): cache-resident, so the mesh
// rows, the constraint sweeps and the per-step fixed costs show where
// DHFR's pair path would bury them.
func BenchmarkStepSmall(b *testing.B) {
	s, err := system.Small(true, 1)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(s, DefaultConfig(8))
	if err != nil {
		b.Fatal(err)
	}
	e.SetVelocities(system.InitVelocities(s.Top, 300, rand.New(rand.NewSource(1))))
	e.Step(8) // warm: buffers sized, two migrations crossed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.stepOnce()
	}
}

// BenchmarkNewEngineDHFR measures constructing a DHFR engine from a built
// system, PPIP tables cached: the subbox pair walk, the migration and the
// pair kernel gather. Its B/op is what one build allocates.
func BenchmarkNewEngineDHFR(b *testing.B) {
	s, err := system.ByName("DHFR")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := NewEngine(s, DefaultConfig(8)); err != nil { // fits the tables
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewEngine(s, DefaultConfig(8)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewEngineSmall measures what small_mono's setup_s repeats
// after its first construction: build the system, construct the engine
// and take the first step, with the PPIP tables already in the
// process-wide cache.
func BenchmarkNewEngineSmall(b *testing.B) {
	construct := func() {
		s, err := system.Small(true, 1)
		if err != nil {
			b.Fatal(err)
		}
		e, err := NewEngine(s, DefaultConfig(8))
		if err != nil {
			b.Fatal(err)
		}
		e.SetVelocities(system.InitVelocities(s.Top, 300, rand.New(rand.NewSource(1))))
		e.Step(1)
	}
	construct() // fits the tables
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		construct()
	}
}

// BenchmarkConstraintsDHFR measures Table 2's Integration row at DHFR
// scale: both half-kicks, the drift, SHAKE and RATTLE of one step, with
// the forces held at their warm-up values and the state put back before
// every iteration — so each SHAKE meets freshly drifted bonds and each
// RATTLE freshly kicked velocities, as in a real step (a second SHAKE of
// already constrained positions would converge in one sweep).
func BenchmarkConstraintsDHFR(b *testing.B) {
	e := dhfrBenchEngine(b)
	pos, vel := e.Snapshot()
	top, dt := e.Sys.Top, e.Cfg.Dt
	cd := e.driftCoeff(dt)
	halfKick := func() {
		for i, a := range top.Atoms {
			if a.Mass != 0 {
				e.kick(i, a.Mass, dt/2, true)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(e.Pos, pos)
		copy(e.Vel, vel)
		halfKick()
		copy(e.oldPos, e.Pos)
		for i, a := range top.Atoms {
			if a.Mass != 0 {
				e.driftAtom(i, cd)
			}
		}
		e.shakeFixed()
		halfKick()
		e.rattleFixed()
	}
	b.ReportMetric(float64(e.Stats.ConstraintSweeps)/float64(b.N), "sweeps/op")
}

// TestForcePathsAllocationFree holds the benchmarks' expectation as an
// assertion: once warm, a force evaluation with and without the mesh
// refresh and the two constraint passes allocate nothing. One worker,
// because a parallel section's goroutines are the only steady-state
// allocations the engine makes.
func TestForcePathsAllocationFree(t *testing.T) {
	e := smallWaterEngine(t, 8, func(c *Config) { c.Workers = 1 })
	e.Step(1)
	if n := testing.AllocsPerRun(5, func() { e.shakeFixed() }); n != 0 {
		t.Errorf("SHAKE pass allocates %v times", n)
	}
	if n := testing.AllocsPerRun(5, func() { e.rattleFixed() }); n != 0 {
		t.Errorf("RATTLE pass allocates %v times", n)
	}
	if n := testing.AllocsPerRun(5, func() { e.computeForces(false) }); n != 0 {
		t.Errorf("short-range force evaluation allocates %v times", n)
	}
	if n := testing.AllocsPerRun(5, func() { e.computeForces(true) }); n != 0 {
		t.Errorf("refresh force evaluation allocates %v times", n)
	}
}
