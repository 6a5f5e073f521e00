package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"anton/internal/fixp"
	"anton/internal/refmd"
	"anton/internal/system"
	"anton/internal/vec"
)

// smallWaterEngine builds the small protein-in-water system on the given
// node count.
func smallWaterEngine(t *testing.T, nodes int, edit func(*Config)) *Engine {
	t.Helper()
	s, err := system.Small(true, 21)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(nodes)
	if edit != nil {
		edit(&cfg)
	}
	e, err := NewEngine(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(33))
	e.SetVelocities(system.InitVelocities(s.Top, 300, rng))
	return e
}

// ionicEngine builds an unconstrained charged fluid (exact reversibility
// requires no constraints and no thermostat — paper §4).
func ionicEngine(t testing.TB, nodes int, edit func(*Config)) *Engine {
	t.Helper()
	s, err := system.IonicFluid(60, 16.0, 6.5, 16, 91)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(nodes)
	cfg.TauT = 0 // NVE
	cfg.Dt = 2.0
	if edit != nil {
		edit(&cfg)
	}
	e, err := NewEngine(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(35))
	e.SetVelocities(system.InitVelocities(s.Top, 300, rng))
	return e
}

func statesEqual(p1 []vec.V3, p2 []vec.V3) bool {
	for i := range p1 {
		if p1[i] != p2[i] {
			return false
		}
	}
	return true
}

func TestDeterminism(t *testing.T) {
	// Paper §4: repeated simulations with the same inputs produce bitwise
	// identical results.
	e1 := smallWaterEngine(t, 8, nil)
	e2 := smallWaterEngine(t, 8, nil)
	e1.Step(10)
	e2.Step(10)
	p1, v1 := e1.Snapshot()
	p2, v2 := e2.Snapshot()
	for i := range p1 {
		if p1[i] != p2[i] || v1[i] != v2[i] {
			t.Fatalf("determinism violated at atom %d: %v/%v vs %v/%v",
				i, p1[i], v1[i], p2[i], v2[i])
		}
	}
}

func TestParallelInvariance(t *testing.T) {
	// Paper §4: a given simulation evolves in exactly the same way on any
	// single- or multi-node configuration (they verified 128 vs 512 nodes
	// over billions of steps; we verify 1 vs 8 vs 64 over tens of steps).
	var refP []vec.V3
	var refV []Vel3
	for _, nodes := range []int{1, 8, 64} {
		e := smallWaterEngine(t, nodes, nil)
		e.Step(12)
		p, v := e.Snapshot()
		pos := make([]vec.V3, len(p))
		for i := range p {
			pos[i] = vec.V3{X: float64(p[i].X), Y: float64(p[i].Y), Z: float64(p[i].Z)}
		}
		if refP == nil {
			refP = pos
			refV = v
			continue
		}
		for i := range pos {
			if pos[i] != refP[i] {
				t.Fatalf("nodes=%d: position of atom %d differs from 1-node run", nodes, i)
			}
			if v[i] != refV[i] {
				t.Fatalf("nodes=%d: velocity of atom %d differs from 1-node run", nodes, i)
			}
		}
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	// The trajectory must be bitwise identical for any worker count: the
	// wrapping accumulators make partial-result merging associative, the
	// software analogue of the paper's parallel invariance.
	var refP []vec.V3
	var refV []Vel3
	for _, workers := range []int{1, 3, 8} {
		e := smallWaterEngine(t, 8, func(c *Config) { c.Workers = workers })
		e.Step(8)
		p, v := e.Snapshot()
		pos := make([]vec.V3, len(p))
		for i := range p {
			pos[i] = vec.V3{X: float64(p[i].X), Y: float64(p[i].Y), Z: float64(p[i].Z)}
		}
		if refP == nil {
			refP, refV = pos, v
			continue
		}
		for i := range pos {
			if pos[i] != refP[i] || v[i] != refV[i] {
				t.Fatalf("workers=%d: trajectory differs at atom %d", workers, i)
			}
		}
	}
}

// reversibleRun is the engine surface a reversibility check drives: the
// monolithic Engine, or a Sharded run through its engine.
type reversibleRun interface {
	Step(n int)
	Snapshot() ([]fixp.Vec3, []Vel3)
}

// checkReversal runs r forward steps steps, negates the velocities of e
// (r's engine), runs the same number of steps, and requires the start
// p0, v0 back bit for bit with the velocities negated.
func checkReversal(t *testing.T, r reversibleRun, e *Engine, p0 []fixp.Vec3, v0 []Vel3, steps int) {
	t.Helper()
	r.Step(steps)
	// The state must actually have moved.
	pMid, _ := r.Snapshot()
	moved := false
	for i := range p0 {
		if p0[i] != pMid[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("system did not move; reversibility test vacuous")
	}
	e.NegateVelocities()
	r.Step(steps)
	p1, v1 := r.Snapshot()
	for i := range p0 {
		if p1[i] != p0[i] {
			d := e.Coder.DeltaToPhys(p1[i].Sub(p0[i]))
			t.Fatalf("position of atom %d not recovered: off by %v Å", i, d)
		}
		want := v0[i].Neg()
		if v1[i] != want {
			t.Fatalf("velocity of atom %d not the negated original: %v vs %v", i, v1[i], want)
		}
	}
}

func TestExactReversibility(t *testing.T) {
	// Paper §4: run forward, negate the instantaneous velocities, run the
	// same number of steps, and recover the initial conditions
	// bit-for-bit (no constraints, no temperature control). Step counts
	// are multiples of the MTS interval.
	t.Run("monolithic", func(t *testing.T) {
		e := ionicEngine(t, 8, nil)
		p0, v0 := e.Snapshot()
		checkReversal(t, e, e, p0, v0, 48)
	})
	// The same run through 8 shards: the exchange, the shard-local force
	// sums and the migrations must reverse as exactly as one engine.
	t.Run("shards-8", func(t *testing.T) {
		e := ionicEngine(t, 8, nil)
		p0, v0 := e.Snapshot()
		sh, err := NewSharded(e.Sys, e.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sh.Close()
		copy(sh.E.Vel, e.Vel)
		checkReversal(t, sh, sh.E, p0, v0, 48)
	})
	// Forward 24 steps, through a checkpoint into a fresh engine, forward
	// to step 48, then 48 steps back: the checkpoint carries everything
	// the reversal needs.
	t.Run("checkpoint", func(t *testing.T) {
		e := ionicEngine(t, 8, nil)
		p0, v0 := e.Snapshot()
		e.Step(24)
		var ckpt bytes.Buffer
		if err := e.WriteCheckpoint(&ckpt); err != nil {
			t.Fatal(err)
		}
		fresh := ionicEngine(t, 8, nil)
		if err := fresh.RestoreCheckpoint(&ckpt); err != nil {
			t.Fatal(err)
		}
		fresh.Step(24)
		fresh.NegateVelocities()
		fresh.Step(48)
		p1, v1 := fresh.Snapshot()
		for i := range p0 {
			if p1[i] != p0[i] || v1[i] != v0[i].Neg() {
				t.Fatalf("atom %d: start not recovered through a step-24 checkpoint", i)
			}
		}
	})
}

func TestReversibilityBrokenByThermostatOnly(t *testing.T) {
	// With the thermostat on, reversal must NOT recover the start (the
	// dynamics are dissipative) — confirming the §4 caveat.
	e := ionicEngine(t, 1, func(c *Config) { c.TauT = 50; c.TargetT = 300 })
	p0, _ := e.Snapshot()
	e.Step(24)
	e.NegateVelocities()
	e.Step(24)
	p1, _ := e.Snapshot()
	same := true
	for i := range p0 {
		if p0[i] != p1[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("thermostatted run reversed exactly; thermostat appears inert")
	}
}

func TestForcesMatchReferenceEngine(t *testing.T) {
	// Cross-engine validation (§5.2 methodology): Anton fixed-point
	// forces vs the double-precision reference on the identical
	// configuration. The paper's total force error is <1e-4 of the rms
	// force with tuned parameters; this configuration measures 4.97e-6,
	// and the bound of 1e-5 leaves about 2x headroom.
	s, err := system.Small(true, 21)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1)
	cfg.MTSInterval = 1
	e, err := NewEngine(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Step(0)
	e.computeForces(true)
	antonF := e.Forces()

	rcfg := refmd.DefaultConfig(s)
	rcfg.Method = refmd.UseGSE
	rcfg.MTSInterval = 1
	ref, err := refmd.NewEngine(s, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.ComputeForces()

	var rms, errSum float64
	n := 0
	for i := range antonF {
		if s.Top.Atoms[i].Mass == 0 {
			continue // vsite forces spread to parents in both engines
		}
		rms += ref.F[i].Norm2()
		errSum += antonF[i].Sub(ref.F[i]).Norm2()
		n++
	}
	rms = math.Sqrt(rms / float64(n))
	errRms := math.Sqrt(errSum / float64(n))
	rel := errRms / rms
	if rel > 1e-5 {
		t.Errorf("total force error %.3g of rms force (rms %.3g)", rel, rms)
	}
	t.Logf("total force error: %.3g of rms force", rel)
}

func TestEnergyConservationNVE(t *testing.T) {
	e := ionicEngine(t, 1, func(c *Config) { c.Dt = 1.0; c.MTSInterval = 1 })
	e.Step(1)
	e0 := e.TotalEnergy()
	e.Step(300)
	drift := math.Abs(e.TotalEnergy() - e0)
	perDof := drift / float64(e.Sys.Top.DegreesOfFreedom())
	if perDof > 0.05 {
		t.Errorf("NVE drift %g kcal/mol/DoF over 300 fs", perDof)
	}
}

func TestConstraintsHold(t *testing.T) {
	e := smallWaterEngine(t, 8, nil)
	e.Step(20)
	r := e.Positions()
	for _, c := range e.Sys.Top.Constraints {
		d := e.Sys.Box.Dist(r[c.I], r[c.J])
		if math.Abs(d-c.R)/c.R > 1e-5 {
			t.Fatalf("constraint (%d,%d): %g vs %g", c.I, c.J, d, c.R)
		}
	}
}

func TestThermostatRegulates(t *testing.T) {
	e := smallWaterEngine(t, 1, func(c *Config) { c.TargetT = 350; c.TauT = 50 })
	e.Step(150)
	if T := e.Temperature(); math.Abs(T-350) > 80 {
		t.Errorf("temperature %g, want ~350", T)
	}
}

func TestMatchEfficiencyStats(t *testing.T) {
	e := smallWaterEngine(t, 8, nil)
	e.Step(4)
	me := e.Stats.MatchEfficiency()
	if me <= 0 || me >= 1 {
		t.Fatalf("match efficiency %g out of (0,1)", me)
	}
	// The low-precision match check must pass every computed pair.
	if e.Stats.PairsMatched < e.Stats.PairsComputed {
		t.Error("match units dropped pairs that were within the cutoff")
	}
	if e.Stats.PairsConsidered < e.Stats.PairsMatched {
		t.Error("bookkeeping: matched exceeds considered")
	}
	// The software tests a subset of what the match units are charged
	// with, and never fewer than pass.
	if e.Stats.PairsTested > e.Stats.PairsConsidered || e.Stats.PairsTested < e.Stats.PairsMatched {
		t.Errorf("bookkeeping: tested %d outside [matched %d, considered %d]",
			e.Stats.PairsTested, e.Stats.PairsMatched, e.Stats.PairsConsidered)
	}
}

func TestMigrationHappens(t *testing.T) {
	e := smallWaterEngine(t, 8, func(c *Config) { c.MigrationInterval = 4 })
	e.Step(12)
	if e.Stats.Migrations < 3 {
		t.Errorf("expected >=3 migrations, got %d", e.Stats.Migrations)
	}
}

func TestMomentumConservation(t *testing.T) {
	e := ionicEngine(t, 1, func(c *Config) { c.MTSInterval = 1 })
	e.Step(50)
	var p vec.V3
	for i, a := range e.Sys.Top.Atoms {
		p = p.Add(e.Vel[i].Float().Scale(a.Mass))
	}
	// Quantized forces make momentum conservation approximate; the net
	// drift must stay tiny relative to thermal momentum.
	thermal := math.Sqrt(float64(e.Sys.NAtoms())) * 30 * 0.015
	if p.Norm() > 0.05*thermal {
		t.Errorf("net momentum %v after 50 steps", p)
	}
}

func TestEngineConfigValidation(t *testing.T) {
	s, _ := system.Small(false, 1)
	if _, err := NewEngine(s, Config{Nodes: 3, Dt: 2.5}); err == nil {
		t.Error("node count 3 accepted")
	}
	if _, err := NewEngine(s, Config{Nodes: 8, Dt: 0}); err == nil {
		t.Error("zero dt accepted")
	}
}

func TestPosCoderRoundTrip(t *testing.T) {
	c := PosCoder{L: 50}
	for _, x := range []vec.V3{{X: 0.1, Y: 25, Z: 49.9}, {X: 12.3, Y: 0, Z: 45.6}} {
		r := c.Decode(c.Encode(x))
		if r.Sub(x).MaxAbs() > c.PosQuantum()*2 {
			t.Errorf("round trip %v -> %v (quantum %g)", x, r, c.PosQuantum())
		}
	}
	// Wrapped difference is the minimum image.
	a := c.Encode(vec.V3{X: 49.5})
	b := c.Encode(vec.V3{X: 0.5})
	d := c.DeltaToPhys(a.Sub(b))
	if math.Abs(d.X+1.0) > 1e-6 {
		t.Errorf("fixed-point minimum image: got %v, want -1", d.X)
	}
}

func TestEnergyBreakdownConsistent(t *testing.T) {
	e := smallWaterEngine(t, 8, func(c *Config) { c.MTSInterval = 1 })
	e.Step(5)
	b := e.Breakdown
	if math.Abs(b.Total()-e.PotentialEnergy) > 1e-9*math.Abs(e.PotentialEnergy) {
		t.Errorf("breakdown total %g != PE %g", b.Total(), e.PotentialEnergy)
	}
	// Each component is finite; mesh includes the (negative) self term.
	for name, v := range map[string]float64{
		"range-limited": b.RangeLimited, "bonded": b.Bonded,
		"mesh": b.Mesh, "correction": b.Correction,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s energy %v", name, v)
		}
	}
	if b.Bonded < 0 {
		t.Errorf("bonded energy %g negative (harmonic + periodic terms are non-negative-ish)", b.Bonded)
	}
}

func TestStatesEqualHelper(t *testing.T) {
	a := []vec.V3{{X: 1}, {Y: 2}}
	if !statesEqual(a, []vec.V3{{X: 1}, {Y: 2}}) {
		t.Error("equal states reported unequal")
	}
	if statesEqual(a, []vec.V3{{X: 1}, {Y: 3}}) {
		t.Error("unequal states reported equal")
	}
}

func TestMTSIntervalKeepsStability(t *testing.T) {
	// The regression behind the r-RESPA note in EXPERIMENTS.md: with the
	// scaled 1-4 terms in the fast loop, MTS=2 must stay as stable as
	// MTS=1 on a protein system over hundreds of steps.
	if testing.Short() {
		t.Skip("long stability check")
	}
	for _, k := range []int{1, 2} {
		e := smallWaterEngine(t, 8, func(c *Config) { c.MTSInterval = k })
		e.Step(300)
		if T := e.Temperature(); T > 1500 || math.IsNaN(T) {
			t.Fatalf("MTS=%d unstable: T=%g", k, T)
		}
	}
}
