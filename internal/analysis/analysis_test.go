package analysis

import (
	"math"
	"math/rand"
	"testing"

	"anton/internal/vec"
)

func TestLinearFit(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := []float64{1, 3.1, 4.9, 7.1, 8.9}
	slope, icept, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-2) > 0.05 || math.Abs(icept-1) > 0.15 {
		t.Errorf("fit: slope %g intercept %g", slope, icept)
	}
	if _, _, err := LinearFit([]float64{1}, []float64{2}); err == nil {
		t.Error("single point accepted")
	}
	if _, _, err := LinearFit([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("degenerate x accepted")
	}
}

func TestEnergyDrift(t *testing.T) {
	// 0.01 kcal/mol per 1000 fs on 100 DoF = 1e-5 kcal/mol/fs
	// = 1e4 kcal/mol/us = 100 kcal/mol/DoF/us.
	times := []float64{0, 1000, 2000, 3000}
	energies := []float64{50, 50.01, 50.02, 50.03}
	d, err := EnergyDrift(times, energies, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-100) > 1e-6 {
		t.Errorf("drift: got %g, want 100", d)
	}
	if _, err := EnergyDrift(times, energies, 0); err == nil {
		t.Error("zero DoF accepted")
	}
}

func TestForceError(t *testing.T) {
	ref := []vec.V3{{X: 3}, {Y: 4}}
	same := []vec.V3{{X: 3}, {Y: 4}}
	e, err := ForceError(same, ref)
	if err != nil || e != 0 {
		t.Errorf("identical forces: error %g (%v)", e, err)
	}
	off := []vec.V3{{X: 3.05}, {Y: 4}}
	e, _ = ForceError(off, ref)
	want := 0.05 / 5.0
	if math.Abs(e-want) > 1e-12 {
		t.Errorf("force error: got %g, want %g", e, want)
	}
	if _, err := ForceError(ref, []vec.V3{{X: 1}}); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

func TestSuperposeRecoversRotation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var pts []vec.V3
	for i := 0; i < 20; i++ {
		pts = append(pts, vec.V3{X: rng.NormFloat64() * 3, Y: rng.NormFloat64() * 3, Z: rng.NormFloat64() * 3})
	}
	rot := vec.RotationZ(0.7)
	shift := vec.V3{X: 5, Y: -2, Z: 1}
	moved := make([]vec.V3, len(pts))
	for i := range pts {
		moved[i] = rot.MulV(pts[i]).Add(shift)
	}
	_, rmsd, err := Superpose(pts, moved, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rmsd > 1e-10 {
		t.Errorf("rigid transform not removed: rmsd %g", rmsd)
	}
}

func TestRMSDWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var a, b []vec.V3
	for i := 0; i < 50; i++ {
		p := vec.V3{X: rng.NormFloat64() * 4, Y: rng.NormFloat64() * 4, Z: rng.NormFloat64() * 4}
		a = append(a, p)
		b = append(b, p.Add(vec.V3{X: rng.NormFloat64() * 0.1, Y: rng.NormFloat64() * 0.1, Z: rng.NormFloat64() * 0.1}))
	}
	r, err := RMSD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r <= 0 || r > 0.3 {
		t.Errorf("noisy rmsd %g out of expected range", r)
	}
}

func TestOrderParameterRigid(t *testing.T) {
	// A fixed bond direction has S^2 = 1.
	series := BondVectorSeries{}
	u := vec.V3{X: 1, Y: 2, Z: -0.5}
	for i := 0; i < 100; i++ {
		series = append(series, u)
	}
	s2, err := OrderParameter(series)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s2-1) > 1e-12 {
		t.Errorf("rigid S2: got %g", s2)
	}
}

func TestOrderParameterIsotropic(t *testing.T) {
	// An isotropically tumbling bond has S^2 -> 0.
	rng := rand.New(rand.NewSource(7))
	series := BondVectorSeries{}
	for i := 0; i < 20000; i++ {
		v := vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		series = append(series, v)
	}
	s2, _ := OrderParameter(series)
	if s2 > 0.05 {
		t.Errorf("isotropic S2: got %g, want ~0", s2)
	}
}

func TestOrderParameterConeModel(t *testing.T) {
	// Diffusion in a cone of half-angle theta has the closed form
	// S = cos(theta)*(1+cos(theta))/2; check the wobble ordering: larger
	// cones give smaller S^2.
	rng := rand.New(rand.NewSource(9))
	prev := 1.1
	for _, theta := range []float64{0.2, 0.5, 0.9} {
		series := BondVectorSeries{}
		for i := 0; i < 30000; i++ {
			// Uniform within the cone about +z.
			c := 1 - rng.Float64()*(1-math.Cos(theta))
			s := math.Sqrt(1 - c*c)
			phi := rng.Float64() * 2 * math.Pi
			series = append(series, vec.V3{X: s * math.Cos(phi), Y: s * math.Sin(phi), Z: c})
		}
		s2, _ := OrderParameter(series)
		sExpected := math.Cos(theta) * (1 + math.Cos(theta)) / 2
		if math.Abs(s2-sExpected*sExpected) > 0.03 {
			t.Errorf("cone %g: S2 %g, closed form %g", theta, s2, sExpected*sExpected)
		}
		if s2 >= prev {
			t.Errorf("S2 should decrease with cone angle")
		}
		prev = s2
	}
}

func TestOrderParametersFromTrajectory(t *testing.T) {
	// Two bonds: one rigid, one wobbling; the whole frame also translates
	// and rotates, which superposition must remove.
	rng := rand.New(rand.NewSource(11))
	base := []vec.V3{
		{X: 0, Y: 0, Z: 0}, {X: 1, Y: 0, Z: 0}, // rigid bond 0-1
		{X: 3, Y: 0, Z: 0}, {X: 4, Y: 0, Z: 0}, // wobbling bond 2-3
		{X: 0, Y: 3, Z: 0}, {X: 3, Y: 3, Z: 0}, {X: 1.5, Y: 5, Z: 0}, // alignment anchors
	}
	var frames [][]vec.V3
	for f := 0; f < 400; f++ {
		rot := vec.RotationZ(rng.Float64() * 2 * math.Pi)
		shift := vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		frame := make([]vec.V3, len(base))
		for i, p := range base {
			frame[i] = rot.MulV(p).Add(shift)
		}
		// Wobble bond 2-3 in the body frame before the global motion:
		// redo atom 3 with a cone wobble.
		ang := rng.NormFloat64() * 0.5
		wob := vec.V3{X: math.Cos(ang), Y: math.Sin(ang), Z: 0}
		frame[3] = rot.MulV(base[2].Add(wob)).Add(shift)
		frames = append(frames, frame)
	}
	s2, err := OrderParametersFromTrajectory(frames, []int{0, 2, 4, 5, 6}, [][2]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if s2[0] < 0.98 {
		t.Errorf("rigid bond S2 %g, want ~1", s2[0])
	}
	if s2[1] > 0.9 || s2[1] < 0.3 {
		t.Errorf("wobbling bond S2 %g, want intermediate", s2[1])
	}
	if s2[1] >= s2[0] {
		t.Error("wobbling bond should have lower S2 than rigid bond")
	}
}

func TestNativeContactsAndQ(t *testing.T) {
	// A square of 4 points with unit sides: contacts at distance 1 with
	// minSep 1: (0,1),(1,2),(2,3) and diagonals sqrt(2) excluded by
	// cutoff 1.2; (0,3) at distance 1 but sep 3.
	ref := []vec.V3{{X: 0}, {X: 1}, {X: 1, Y: 1}, {Y: 1}}
	contacts := NativeContacts(ref, 1.2, 1)
	if len(contacts) != 3+1 { // includes (0,3) at separation 3
		t.Fatalf("contacts: got %v", contacts)
	}
	// Fully native: Q = 1.
	if q := ContactFraction(ref, ref, contacts, 1.2); q != 1 {
		t.Errorf("native Q: got %g", q)
	}
	// Stretch one side: Q drops.
	cur := append([]vec.V3(nil), ref...)
	cur[1] = vec.V3{X: 2.5}
	q := ContactFraction(ref, cur, contacts, 1.2)
	if q >= 1 || q <= 0 {
		t.Errorf("stretched Q: got %g", q)
	}
}

func TestTransitionCount(t *testing.T) {
	q := []float64{0.9, 0.85, 0.5, 0.2, 0.15, 0.5, 0.9, 0.88, 0.1, 0.9}
	// folded >= 0.8, unfolded <= 0.3: transitions F->U, U->F, F->U, U->F = 4.
	if got := TransitionCount(q, 0.8, 0.3); got != 4 {
		t.Errorf("transitions: got %d, want 4", got)
	}
	// Hysteresis: mid-range wiggles don't count.
	q2 := []float64{0.9, 0.5, 0.6, 0.5, 0.9}
	if got := TransitionCount(q2, 0.8, 0.3); got != 0 {
		t.Errorf("hysteresis violated: %d transitions", got)
	}
}

func TestMeanVariance(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if Mean(x) != 2.5 {
		t.Errorf("mean: %g", Mean(x))
	}
}
