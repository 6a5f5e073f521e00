package refmd

import (
	"math"
	"math/rand"
	"testing"

	"anton/internal/ff"
	"anton/internal/system"
	"anton/internal/vec"
)

func smallEngine(t *testing.T, protein bool, cfgEdit func(*Config)) *Engine {
	t.Helper()
	s, err := system.Small(protein, 21)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(s)
	if cfgEdit != nil {
		cfgEdit(&cfg)
	}
	e, err := NewEngine(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	e.SetVelocities(system.InitVelocities(s.Top, 300, rng))
	return e
}

func TestPairListMatchesBruteForce(t *testing.T) {
	s, err := system.Small(false, 5)
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPairList(6.0, 1.0)
	pl.Build(s.Box, s.R, nil)
	// Brute force count of pairs within cutoff+skin.
	want := make(map[uint64]bool)
	reach2 := 7.0 * 7.0
	for i := 0; i < len(s.R); i++ {
		for j := i + 1; j < len(s.R); j++ {
			if s.Box.Dist2(s.R[i], s.R[j]) <= reach2 {
				want[pairKey(i, j)] = true
			}
		}
	}
	got := make(map[uint64]bool)
	for _, p := range pl.Pairs() {
		k := pairKey(int(p[0]), int(p[1]))
		if got[k] {
			t.Fatalf("pair %v duplicated", p)
		}
		got[k] = true
	}
	if len(got) != len(want) {
		t.Fatalf("pair count: got %d, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("missing pair %x", k)
		}
	}
}

func TestPairListRebuildCriterion(t *testing.T) {
	s, _ := system.Small(false, 6)
	pl := NewPairList(6.0, 1.0)
	pl.Build(s.Box, s.R, nil)
	if pl.NeedsRebuild(s.Box, s.R) {
		t.Error("fresh list claims rebuild")
	}
	r2 := append([]vec.V3(nil), s.R...)
	r2[0] = r2[0].Add(vec.V3{X: 0.6}) // > skin/2
	if !pl.NeedsRebuild(s.Box, r2) {
		t.Error("movement beyond skin/2 not detected")
	}
	r3 := append([]vec.V3(nil), s.R...)
	r3[0] = r3[0].Add(vec.V3{X: 0.3}) // < skin/2
	if pl.NeedsRebuild(s.Box, r3) {
		t.Error("movement within skin/2 triggered rebuild")
	}
}

func TestForcesMatchNumericalGradient(t *testing.T) {
	// The engine's total force must be the negative gradient of its total
	// potential energy (with MTS disabled so everything is evaluated).
	e := smallEngine(t, true, func(c *Config) {
		c.MTSInterval = 1
		c.TauT = 0
	})
	e.ComputeForces()
	f := append([]vec.V3(nil), e.F...)
	const h = 1e-5
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 12; trial++ {
		a := rng.Intn(e.Sys.NAtoms())
		if e.Sys.Top.Atoms[a].Mass == 0 {
			continue // vsite forces are spread to parents
		}
		c := rng.Intn(3)
		orig := e.R[a]
		e.R[a] = orig.SetComp(c, orig.Comp(c)+h)
		ff.PlaceVSites(e.Sys.Top, e.Sys.Box, e.R)
		e.ComputeForces()
		ep := e.PotentialEnergy
		e.R[a] = orig.SetComp(c, orig.Comp(c)-h)
		ff.PlaceVSites(e.Sys.Top, e.Sys.Box, e.R)
		e.ComputeForces()
		em := e.PotentialEnergy
		e.R[a] = orig
		ff.PlaceVSites(e.Sys.Top, e.Sys.Box, e.R)
		e.ComputeForces()
		want := -(ep - em) / (2 * h)
		got := f[a].Comp(c)
		// Tolerance is loose because the pair list cutoff truncation and
		// mesh interpolation are not smooth to machine precision.
		if math.Abs(got-want) > 2e-2*(1+math.Abs(want)) {
			t.Errorf("atom %d comp %d: force %g vs numerical %g", a, c, got, want)
		}
	}
}

func TestNVEEnergyConservation(t *testing.T) {
	// Without a thermostat, total energy should be conserved to a small
	// drift over hundreds of steps.
	e := smallEngine(t, false, func(c *Config) {
		c.TauT = 0 // NVE
		c.MTSInterval = 1
		c.Dt = 1.0
	})
	e.Step(1) // settle constraints
	e0 := e.TotalEnergy()
	e.Step(400)
	e1 := e.TotalEnergy()
	drift := math.Abs(e1 - e0)
	perDof := drift / float64(e.Sys.Top.DegreesOfFreedom())
	// kcal/mol per DoF over 0.4 ps; generous bound (kT ~ 0.6).
	if perDof > 0.05 {
		t.Errorf("NVE drift %g kcal/mol/DoF over 400 fs (total %g)", perDof, drift)
	}
}

func TestConstraintsHoldDuringDynamics(t *testing.T) {
	e := smallEngine(t, true, nil)
	e.Step(50)
	top := e.Sys.Top
	for _, c := range top.Constraints {
		d := e.Sys.Box.Dist(e.R[c.I], e.R[c.J])
		if math.Abs(d-c.R)/c.R > 1e-6 {
			t.Fatalf("constraint (%d,%d): length %g, want %g", c.I, c.J, d, c.R)
		}
	}
}

func TestThermostatRegulatesTemperature(t *testing.T) {
	e := smallEngine(t, false, func(c *Config) {
		c.TargetT = 350
		c.TauT = 50
	})
	e.Step(300)
	T := e.Temperature()
	if math.Abs(T-350) > 60 {
		t.Errorf("temperature %g, want ~350", T)
	}
}

func TestMomentumConserved(t *testing.T) {
	e := smallEngine(t, false, func(c *Config) {
		c.TauT = 0
		c.MTSInterval = 1
	})
	e.Step(100)
	var p vec.V3
	for i, a := range e.Sys.Top.Atoms {
		p = p.Add(e.V[i].Scale(a.Mass))
	}
	// Compare to thermal momentum scale.
	scale := math.Sqrt(float64(e.Sys.NAtoms())) * 18 * 0.02
	if p.Norm() > 0.05*scale {
		t.Errorf("net momentum %v grew", p)
	}
}

func TestMTSInterval(t *testing.T) {
	// MTS=2 should roughly halve the FFT task count versus MTS=1 over the
	// same number of steps, and stay stable.
	e1 := smallEngine(t, false, func(c *Config) { c.MTSInterval = 1; c.Dt = 1 })
	e2 := smallEngine(t, false, func(c *Config) { c.MTSInterval = 2; c.Dt = 1 })
	e1.Step(40)
	e2.Step(40)
	if e2.Profile[TaskFFT] >= e1.Profile[TaskFFT] {
		t.Errorf("MTS=2 FFT time %v not below MTS=1 %v", e2.Profile[TaskFFT], e1.Profile[TaskFFT])
	}
	if math.IsNaN(e2.TotalEnergy()) {
		t.Error("MTS=2 went unstable")
	}
}

func TestGSEAndSPMEEnginesAgree(t *testing.T) {
	eS := smallEngine(t, true, func(c *Config) { c.Method = UseSPME; c.MTSInterval = 1 })
	eG := smallEngine(t, true, func(c *Config) { c.Method = UseGSE; c.MTSInterval = 1 })
	eS.ComputeForces()
	eG.ComputeForces()
	var rms, diff float64
	for i := range eS.F {
		rms += eS.F[i].Norm2()
		diff += eS.F[i].Sub(eG.F[i]).Norm2()
	}
	if math.Sqrt(diff/rms) > 0.02 {
		t.Errorf("GSE and SPME engines disagree: rel force diff %g", math.Sqrt(diff/rms))
	}
	if math.Abs(eS.PotentialEnergy-eG.PotentialEnergy) > 0.01*math.Abs(eS.PotentialEnergy) {
		t.Errorf("energies differ: %g vs %g", eS.PotentialEnergy, eG.PotentialEnergy)
	}
}

func TestProfileShape(t *testing.T) {
	// On the commodity path with typical parameters, range-limited work
	// dominates the per-step profile (Table 2's first column: 64%).
	e := smallEngine(t, true, nil)
	e.Step(20)
	var total float64
	for task := Task(0); task < numTasks; task++ {
		total += e.Profile[task].Seconds()
	}
	rl := e.Profile[TaskRangeLimited].Seconds()
	if rl/total < 0.25 {
		t.Errorf("range-limited fraction %.2f implausibly small", rl/total)
	}
}

func TestEngineRejectsBadConfig(t *testing.T) {
	s, _ := system.Small(false, 1)
	if _, err := NewEngine(s, Config{Dt: 0}); err == nil {
		t.Error("zero dt accepted")
	}
	cfg := DefaultConfig(s)
	cfg.Mesh = 30 // not a power of two
	if _, err := NewEngine(s, cfg); err == nil {
		t.Error("non-pow2 mesh accepted")
	}
}

func TestExpectedPairsPerAtom(t *testing.T) {
	// Water at 0.1 atoms/Å^3 and 9 Å cutoff: ~153 pairs/atom (half list).
	got := ExpectedPairsPerAtom(0.1, 9)
	if math.Abs(got-152.7) > 1 {
		t.Errorf("expected pairs: got %g", got)
	}
	// The built list should be in that ballpark for a water box.
	s, _ := system.Small(false, 2)
	pl := NewPairList(7.0, 0)
	pl.Build(s.Box, s.R, nil)
	rho := float64(s.NAtoms()) / s.Box.Volume()
	want := ExpectedPairsPerAtom(rho, 7.0)
	if math.Abs(pl.MeanPairsPerAtom()-want) > 0.25*want {
		t.Errorf("pairs per atom %g, analytic %g", pl.MeanPairsPerAtom(), want)
	}
}

func TestExactMethodEngine(t *testing.T) {
	// The O(N*K^3) structure-factor path ("extremely conservative
	// parameters" reference of §5.2) must agree with the mesh engines.
	s, err := system.IonicFluid(20, 12.0, 5.0, 16, 91)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(m LongRangeMethod) *Engine {
		cfg := DefaultConfig(s)
		cfg.Method = m
		cfg.MTSInterval = 1
		cfg.KMax = 14
		e, err := NewEngine(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.ComputeForces()
		return e
	}
	exact := mk(UseExact)
	spme := mk(UseSPME)
	var rms, diff float64
	for i := range exact.F {
		rms += exact.F[i].Norm2()
		diff += exact.F[i].Sub(spme.F[i]).Norm2()
	}
	if rel := math.Sqrt(diff / rms); rel > 5e-3 {
		t.Errorf("exact vs SPME force difference %.3g", rel)
	}
}
