package ff

import (
	"math"
	"math/rand"
	"testing"

	"anton/internal/vec"
)

var testBox = vec.Cube(100)

// numGrad computes -dE/dr numerically for atom a, component c.
func numGrad(e func([]vec.V3) float64, r []vec.V3, a, c int) float64 {
	const h = 1e-6
	rp := append([]vec.V3(nil), r...)
	rm := append([]vec.V3(nil), r...)
	rp[a] = rp[a].SetComp(c, rp[a].Comp(c)+h)
	rm[a] = rm[a].SetComp(c, rm[a].Comp(c)-h)
	return -(e(rp) - e(rm)) / (2 * h)
}

// checkForcesMatchGradient verifies analytic forces against numerical
// differentiation of the energy for every atom and component.
func checkForcesMatchGradient(t *testing.T, name string, r []vec.V3,
	eval func(r []vec.V3, f []vec.V3) float64, tol float64) {
	t.Helper()
	f := make([]vec.V3, len(r))
	eval(r, f)
	energyOnly := func(rr []vec.V3) float64 {
		ff := make([]vec.V3, len(rr))
		return eval(rr, ff)
	}
	for a := range r {
		for c := 0; c < 3; c++ {
			want := numGrad(energyOnly, r, a, c)
			got := f[a].Comp(c)
			if math.Abs(got-want) > tol*(1+math.Abs(want)) {
				t.Errorf("%s: force[%d].%c = %g, numerical %g", name, a, "xyz"[c], got, want)
			}
		}
	}
}

// at returns the first (up to) four positions of r as a term kernel takes
// them: the unit tests number a term's atoms 0, 1, ... in term order.
func at(r []vec.V3) *[4]vec.V3 {
	var rk [4]vec.V3
	copy(rk[:], r)
	return &rk
}

// pure adapts a term kernel over atoms 0, 1, ... to the accumulating form
// checkForcesMatchGradient evaluates.
func pure(kernel func(r *[4]vec.V3) (float64, [4]vec.V3)) func(r, f []vec.V3) float64 {
	return func(r, f []vec.V3) float64 {
		e, fk := kernel(at(r))
		for i := range r {
			f[i] = f[i].Add(fk[i])
		}
		return e
	}
}

func TestBondForceGradient(t *testing.T) {
	b := Bond{I: 0, J: 1, R0: 1.0, K: 300}
	r := []vec.V3{{X: 0.1, Y: 0.2, Z: -0.1}, {X: 1.2, Y: -0.3, Z: 0.4}}
	checkForcesMatchGradient(t, "bond", r, pure(func(r *[4]vec.V3) (float64, [4]vec.V3) {
		return BondForce(&b, testBox, r)
	}), 1e-5)
}

func TestBondEquilibriumZeroForce(t *testing.T) {
	b := Bond{I: 0, J: 1, R0: 1.5, K: 300}
	r := []vec.V3{{}, {X: 1.5}}
	e, f := BondForce(&b, testBox, at(r))
	if e != 0 {
		t.Errorf("energy at equilibrium: %g", e)
	}
	if f[0].Norm() > 1e-12 || f[1].Norm() > 1e-12 {
		t.Errorf("force at equilibrium: %v %v", f[0], f[1])
	}
}

func TestBondAcrossPeriodicBoundary(t *testing.T) {
	box := vec.Cube(10)
	b := Bond{I: 0, J: 1, R0: 1.0, K: 100}
	// Atoms separated by 1 Å through the boundary.
	r := []vec.V3{{X: 9.5}, {X: 0.5}}
	e, _ := BondForce(&b, box, at(r))
	if e > 1e-10 {
		t.Errorf("bond across boundary should be at equilibrium, E=%g", e)
	}
}

func TestAngleForceGradient(t *testing.T) {
	a := Angle{I: 0, J: 1, K: 2, Theta0: 109.5 * math.Pi / 180, KTheta: 50}
	r := []vec.V3{{X: 1.1, Y: 0.1}, {}, {X: -0.3, Y: 1.0, Z: 0.2}}
	checkForcesMatchGradient(t, "angle", r, pure(func(r *[4]vec.V3) (float64, [4]vec.V3) {
		return AngleForce(&a, testBox, r)
	}), 1e-5)
}

func TestAngleEquilibrium(t *testing.T) {
	theta0 := 104.52 * math.Pi / 180
	a := Angle{I: 0, J: 1, K: 2, Theta0: theta0, KTheta: 55}
	r := []vec.V3{
		{X: math.Cos(theta0 / 2), Y: math.Sin(theta0 / 2)},
		{},
		{X: math.Cos(theta0 / 2), Y: -math.Sin(theta0 / 2)},
	}
	if e, _ := AngleForce(&a, testBox, at(r)); e > 1e-20 {
		t.Errorf("energy at equilibrium: %g", e)
	}
}

func TestDihedralForceGradient(t *testing.T) {
	for n := 1; n <= 4; n++ {
		d := Dihedral{I: 0, J: 1, K: 2, L: 3, N: n, Phase: 0.4, KPhi: 2.5}
		r := []vec.V3{
			{X: 0.2, Y: 1.1, Z: 0.1},
			{},
			{X: 1.5, Y: 0.1, Z: -0.1},
			{X: 1.8, Y: 0.9, Z: 0.9},
		}
		checkForcesMatchGradient(t, "dihedral", r, pure(func(r *[4]vec.V3) (float64, [4]vec.V3) {
			return DihedralForce(&d, testBox, r)
		}), 1e-4)
	}
}

func TestDihedralNetForceAndTorqueZero(t *testing.T) {
	d := Dihedral{I: 0, J: 1, K: 2, L: 3, N: 3, Phase: 0, KPhi: 1.4}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		r := make([]vec.V3, 4)
		for i := range r {
			r[i] = vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		}
		_, f := DihedralForce(&d, testBox, at(r))
		var net, torque vec.V3
		for i := range f {
			net = net.Add(f[i])
			torque = torque.Add(r[i].Cross(f[i]))
		}
		if net.Norm() > 1e-10 {
			t.Errorf("trial %d: net force %v", trial, net)
		}
		if torque.Norm() > 1e-9 {
			t.Errorf("trial %d: net torque %v", trial, torque)
		}
	}
}

func TestBondedForcesSum(t *testing.T) {
	// A 4-atom chain exercising all three term types at once.
	top := &Topology{
		Atoms: make([]Atom, 4),
		Bonds: []Bond{{0, 1, 1.0, 300}, {1, 2, 1.0, 300}, {2, 3, 1.0, 300}},
		Angles: []Angle{
			{I: 0, J: 1, K: 2, Theta0: 1.9, KTheta: 40},
			{I: 1, J: 2, K: 3, Theta0: 1.9, KTheta: 40},
		},
		Dihedrals: []Dihedral{{I: 0, J: 1, K: 2, L: 3, N: 3, Phase: 0, KPhi: 1.4}},
	}
	r := []vec.V3{
		{X: 0.1, Y: 1.0, Z: 0.3},
		{},
		{X: 1.05, Y: 0.05},
		{X: 1.5, Y: 0.8, Z: 0.7},
	}
	checkForcesMatchGradient(t, "all bonded", r, func(r, f []vec.V3) float64 {
		return BondedForces(top, testBox, r, f)
	}, 1e-4)
	if e := BondedForces(top, testBox, r, make([]vec.V3, len(r))); e <= 0 {
		t.Errorf("bonded energy should be positive off equilibrium: %g", e)
	}
}

func TestLJ126(t *testing.T) {
	sigma, eps := 3.15, 0.15
	// Minimum at r = 2^(1/6) sigma with depth -eps and zero force.
	rmin := math.Pow(2, 1.0/6.0) * sigma
	e, fs := LJ126(rmin*rmin, sigma, eps)
	if math.Abs(e+eps) > 1e-12 {
		t.Errorf("LJ minimum energy: got %g, want %g", e, -eps)
	}
	if math.Abs(fs) > 1e-12 {
		t.Errorf("LJ force at minimum: got %g", fs)
	}
	// Zero crossing at r = sigma.
	e, _ = LJ126(sigma*sigma, sigma, eps)
	if math.Abs(e) > 1e-10 {
		t.Errorf("LJ at sigma: got %g, want 0", e)
	}
	// Repulsive inside, attractive outside.
	_, fs = LJ126(0.8*0.8*sigma*sigma, sigma, eps)
	if fs <= 0 {
		t.Errorf("LJ force scale inside sigma should be positive (repulsive), got %g", fs)
	}
	_, fs = LJ126(2*2*sigma*sigma, sigma, eps)
	if fs >= 0 {
		t.Errorf("LJ force scale at 2 sigma should be negative (attractive), got %g", fs)
	}
}

func TestLJGradient(t *testing.T) {
	sigma, eps := 3.0, 0.2
	for _, r := range []float64{2.8, 3.2, 4.0, 6.0} {
		const h = 1e-6
		ep, _ := LJ126((r+h)*(r+h), sigma, eps)
		em, _ := LJ126((r-h)*(r-h), sigma, eps)
		wantF := -(ep - em) / (2 * h) // -dV/dr
		_, fs := LJ126(r*r, sigma, eps)
		gotF := fs * r // force magnitude along +r
		if math.Abs(gotF-wantF) > 1e-5*(1+math.Abs(wantF)) {
			t.Errorf("r=%g: force %g, numerical %g", r, gotF, wantF)
		}
	}
}

func TestCoulomb(t *testing.T) {
	// Two unit charges at 1 Å: V = CoulombK.
	e, fs := Coulomb(1, 1, 1)
	if math.Abs(e-CoulombK) > 1e-12 {
		t.Errorf("Coulomb energy: got %g", e)
	}
	if math.Abs(fs-CoulombK) > 1e-12 {
		t.Errorf("Coulomb force scale: got %g", fs)
	}
	// Opposite charges attract.
	_, fs = Coulomb(4, 1, -1)
	if fs >= 0 {
		t.Errorf("opposite charges should attract: %g", fs)
	}
}

func TestLJPairCombination(t *testing.T) {
	p := &ParamSet{LJTypes: []LJType{
		{Name: "A", Sigma: 3.0, Epsilon: 0.16},
		{Name: "B", Sigma: 2.0, Epsilon: 0.04},
	}}
	s, e := p.LJPair(0, 1)
	if s != 2.5 {
		t.Errorf("combined sigma: got %g, want 2.5", s)
	}
	if math.Abs(e-0.08) > 1e-15 {
		t.Errorf("combined epsilon: got %g, want 0.08", e)
	}
	// Self-combination returns the original parameters.
	s, e = p.LJPair(0, 0)
	if s != 3.0 || math.Abs(e-0.16) > 1e-15 {
		t.Errorf("self combination: got %g, %g", s, e)
	}
}

func TestImproperForceGradient(t *testing.T) {
	im := Improper{I: 0, J: 1, K: 2, L: 3, Chi0: 0.3, KChi: 12}
	r := []vec.V3{
		{X: 0.2, Y: 1.1, Z: 0.1},
		{},
		{X: 1.5, Y: 0.1, Z: -0.1},
		{X: 1.8, Y: 0.9, Z: 0.9},
	}
	checkForcesMatchGradient(t, "improper", r, pure(func(r *[4]vec.V3) (float64, [4]vec.V3) {
		return ImproperForce(&im, testBox, r)
	}), 1e-4)
}

func TestImproperEquilibrium(t *testing.T) {
	// Build a quadruple, measure its dihedral, set Chi0 there: zero
	// energy and force.
	r := []vec.V3{
		{X: 0.1, Y: 1.0, Z: 0.3},
		{},
		{X: 1.05, Y: 0.05},
		{X: 1.5, Y: 0.8, Z: 0.7},
	}
	chi := vec.Dihedral(r[0], r[1], r[2], r[3])
	im := Improper{I: 0, J: 1, K: 2, L: 3, Chi0: chi, KChi: 12}
	e, f := ImproperForce(&im, testBox, at(r))
	if e > 1e-18 {
		t.Errorf("energy at equilibrium: %g", e)
	}
	for i := range f {
		if f[i].Norm() > 1e-9 {
			t.Errorf("force at equilibrium on atom %d: %v", i, f[i])
		}
	}
}

func TestImproperWrapsPeriodically(t *testing.T) {
	// Chi0 near +pi with a configuration near -pi: the deviation must
	// wrap through the branch cut, not register as ~2*pi.
	r := []vec.V3{
		{Y: 1}, {}, {X: 1}, {X: 1, Y: -1, Z: 0.05}, // nearly trans: chi ~ +-pi
	}
	chi := vec.Dihedral(r[0], r[1], r[2], r[3])
	im := Improper{I: 0, J: 1, K: 2, L: 3, Chi0: -chi, KChi: 12} // opposite branch
	e, _ := ImproperForce(&im, testBox, at(r))
	// |chi - (-chi)| unwrapped would be ~2*pi -> energy ~ 12*(2pi)^2 = 474;
	// wrapped it is tiny.
	if e > 1.0 {
		t.Errorf("improper did not wrap: energy %g", e)
	}
}
