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

// BenchmarkRangeLimitedForces measures one full HTIS range-limited force
// evaluation (match -> exclusion -> PPIP -> reduction) at DHFR scale.
func BenchmarkRangeLimitedForces(b *testing.B) {
	e := dhfrBenchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range e.fShort {
			e.fShort[j] = Force3{}
		}
		e.rangeLimitedForces()
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

// TestForcePathsAllocationFree holds the benchmarks' expectation as an
// assertion: once warm, a range-limited evaluation and a mesh evaluation
// allocate nothing. One worker, because a parallel section's goroutines
// are the only steady-state allocations the engine makes.
func TestForcePathsAllocationFree(t *testing.T) {
	e := smallWaterEngine(t, 8, func(c *Config) { c.Workers = 1 })
	e.Step(1)
	if n := testing.AllocsPerRun(5, func() { e.rangeLimitedForces() }); n != 0 {
		t.Errorf("range-limited evaluation allocates %v times", n)
	}
	if n := testing.AllocsPerRun(5, func() { e.meshForces() }); n != 0 {
		t.Errorf("mesh evaluation allocates %v times", n)
	}
}
