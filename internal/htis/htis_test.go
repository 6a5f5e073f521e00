package htis

import (
	"math"
	"math/rand"
	"testing"

	"anton/internal/ewald"
	"anton/internal/ff"
	"anton/internal/fixp"
	"anton/internal/vec"
)

func TestMatchUnitNeverDropsTruePairs(t *testing.T) {
	// The conservative low-precision check must never reject a pair that
	// the full-precision cutoff would accept.
	boxL := 64.0
	cutoff := 13.0
	mu := NewMatchUnit(boxL, cutoff, 8)
	rng := rand.New(rand.NewSource(61))
	accepted, rejected := 0, 0
	for i := 0; i < 200000; i++ {
		// Sample displacements clustered near the cutoff shell.
		d := vec.V3{
			X: (rng.Float64()*2 - 1) * 0.4,
			Y: (rng.Float64()*2 - 1) * 0.4,
			Z: (rng.Float64()*2 - 1) * 0.4,
		}
		fd := fixp.Vec3FromFloat(d)
		exact := fd.Dot(fd).Float() * boxL * boxL
		may := mu.MayInteract(fd)
		if exact <= cutoff*cutoff && !may {
			t.Fatalf("false negative: |d|=%g Å rejected", math.Sqrt(exact))
		}
		if may {
			accepted++
		} else {
			rejected++
		}
	}
	if rejected == 0 {
		t.Error("match unit never rejects anything — not filtering at all")
	}
}

func TestMatchUnitFalsePositiveRateBounded(t *testing.T) {
	// With 8-bit checks the margin is 1/256 of the box; false positives
	// should be a thin shell around the cutoff.
	boxL := 64.0
	cutoff := 13.0
	mu := NewMatchUnit(boxL, cutoff, 8)
	rng := rand.New(rand.NewSource(67))
	falsePos, trueNeg := 0, 0
	for i := 0; i < 200000; i++ {
		d := vec.V3{
			X: (rng.Float64()*2 - 1) * 0.45,
			Y: (rng.Float64()*2 - 1) * 0.45,
			Z: (rng.Float64()*2 - 1) * 0.45,
		}
		fd := fixp.Vec3FromFloat(d)
		exact := fd.Dot(fd).Float() * boxL * boxL
		if exact <= cutoff*cutoff {
			continue
		}
		if mu.MayInteract(fd) {
			falsePos++
		} else {
			trueNeg++
		}
	}
	rate := float64(falsePos) / float64(falsePos+trueNeg)
	if rate > 0.15 {
		t.Errorf("false positive rate %g too high", rate)
	}
}

func newTestPipeline(t testing.TB) *Pipeline {
	t.Helper()
	split := ewald.Split{Sigma: ewald.SigmaForCutoff(13, 1e-6), Cutoff: 13}
	p, err := NewPipeline(64, split)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPairForceMatchesAnalytic(t *testing.T) {
	p := newTestPipeline(t)
	params := PairParams{QQ: ff.CoulombK * 0.4 * -0.4, Sigma: 3.15, Epsilon: 0.15}
	rng := rand.New(rand.NewSource(71))
	var rmsForce, maxErr float64
	n := 0
	for i := 0; i < 3000; i++ {
		r := 2.6 + rng.Float64()*10 // inside cutoff, outside core
		dir := vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Unit()
		d := dir.Scale(r / 64) // box fractions
		fd := fixp.Vec3FromFloat(d)
		res := p.PairForce(fd, params)
		if !res.Within {
			continue
		}
		// Analytic force.
		df := fd.Float().Scale(64)
		r2 := df.Norm2()
		_, fsE := p.Split.RealSpacePair(r2, 0.4, -0.4)
		_, fsL := ff.LJ126(r2, params.Sigma, params.Epsilon)
		want := df.Scale(fsE + fsL)
		got := vec.V3{X: ForceValue(res.FX), Y: ForceValue(res.FY), Z: ForceValue(res.FZ)}
		if e := got.Sub(want).Norm() / math.Max(want.Norm(), 1); e > maxErr {
			maxErr = e
		}
		rmsForce += want.Norm2()
		n++
	}
	rmsForce = math.Sqrt(rmsForce / float64(n))
	// The paper's numerical force error is ~1e-5 of the rms force
	// system-wide; per-pair errors relative to the pair's own magnitude
	// (floored at 1 kcal/mol/Å) must stay below 1e-3.
	if maxErr > 1e-3 {
		t.Errorf("pipeline relative force error %g (rms force %g)", maxErr, rmsForce)
	}
}

func TestPairForceCutoff(t *testing.T) {
	p := newTestPipeline(t)
	params := PairParams{QQ: 100}
	// Outside the cutoff: no interaction.
	d := fixp.Vec3FromFloat(vec.V3{X: 14.0 / 64})
	if res := p.PairForce(d, params); res.Within {
		t.Error("pair beyond cutoff interacted")
	}
	// Inside: interacts.
	d = fixp.Vec3FromFloat(vec.V3{X: 5.0 / 64})
	if res := p.PairForce(d, params); !res.Within {
		t.Error("pair inside cutoff ignored")
	}
	// Coincident points do not blow up.
	if res := p.PairForce(fixp.Vec3{}, params); res.Within {
		t.Error("coincident pair interacted")
	}
}

func TestPairForceDeterministicAndAntisymmetric(t *testing.T) {
	p := newTestPipeline(t)
	params := PairParams{QQ: -30, Sigma: 3.0, Epsilon: 0.2}
	d := fixp.Vec3FromFloat(vec.V3{X: 4.0 / 64, Y: -2.5 / 64, Z: 1.0 / 64})
	a := p.PairForce(d, params)
	b := p.PairForce(d, params)
	if a != b {
		t.Error("pipeline not deterministic")
	}
	// Swapping the pair (negating d) must exactly negate the force: the
	// equal-and-opposite property the NT method relies on.
	n := p.PairForce(d.Neg(), params)
	if n.FX != -a.FX || n.FY != -a.FY || n.FZ != -a.FZ {
		t.Errorf("force not antisymmetric: %+v vs %+v", a, n)
	}
}

func TestQuantizeForceSymmetry(t *testing.T) {
	for _, f := range []float64{0, 1.5, -1.5, 0.123456, 1e-9, 1e4} {
		if QuantizeForce(-f) != -QuantizeForce(f) {
			t.Errorf("quantization asymmetric at %g", f)
		}
	}
	// Round trip within half a quantum.
	for _, f := range []float64{0.25, -17.3, 1234.5678} {
		if math.Abs(ForceValue(QuantizeForce(f))-f) > ForceQuantum/2 {
			t.Errorf("round trip error at %g", f)
		}
	}
}

func TestQuantizeEnergy(t *testing.T) {
	// Ties at ±0.5 quanta round to the even count, symmetrically.
	for _, c := range []struct {
		quanta float64
		want   int64
	}{{0.5, 0}, {1.5, 2}, {2.5, 2}, {3.5, 4}, {-0.5, 0}, {-1.5, -2}, {-2.5, -2}, {-3.5, -4}} {
		if got := QuantizeEnergy(c.quanta * EnergyQuantum); got != c.want {
			t.Errorf("QuantizeEnergy(%g quanta) = %d, want %d", c.quanta, got, c.want)
		}
	}
	// A negated energy quantizes to the negated count, and the round trip
	// stays within half a quantum.
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 1000; i++ {
		e := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(12)-6))
		if QuantizeEnergy(-e) != -QuantizeEnergy(e) {
			t.Fatalf("quantization asymmetric at %g", e)
		}
		if d := math.Abs(EnergyValue(QuantizeEnergy(e)) - e); d > EnergyQuantum/2 {
			t.Fatalf("round trip of %g off by %g", e, d)
		}
	}
}

// TestEnergySumOrderInvariance: quantized term energies summed with
// wrapping int64 adds give one result for every order and grouping.
func TestEnergySumOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	terms := make([]float64, 4000)
	for i := range terms {
		terms[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(9)-4))
	}
	sum := func(ts []float64) int64 {
		var s int64
		for _, e := range ts {
			s += QuantizeEnergy(e)
		}
		return s
	}
	want := sum(terms)
	for trial := 0; trial < 20; trial++ {
		rng.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
		cut := rng.Intn(len(terms))
		if got := sum(terms[:cut]) + sum(terms[cut:]); got != want {
			t.Fatalf("trial %d: shuffled sum %d, want %d", trial, got, want)
		}
	}
}
