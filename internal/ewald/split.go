// Package ewald implements the fast electrostatics methods used in the
// paper: the Ewald decomposition of the Coulomb interaction into a rapidly
// decaying real-space part and a smooth long-range part (paper §2.1), the
// Gaussian Split Ewald (GSE) mesh method co-designed for Anton's HTIS
// (paper §3.1, reference [31]), the Smooth Particle Mesh Ewald (SPME)
// method used by commodity codes as the baseline (reference [7]), an exact
// structure-factor k-space sum as a correctness oracle, and the
// excluded-pair correction terms evaluated by Anton's correction pipeline.
//
// Conventions: the splitting parameter is the Gaussian width sigma (Å);
// the real-space kernel is erfc(r/(sqrt(2)*sigma))/r, equivalent to the
// textbook alpha parameterization with alpha = 1/(sqrt(2)*sigma). Energies
// are kcal/mol, forces kcal/mol/Å.
package ewald

import (
	"math"

	"anton/internal/ff"
	"anton/internal/vec"
)

// Split holds the Ewald decomposition parameters. Increasing Sigma makes
// the long-range component smoother (allowing a coarser mesh) but the
// real-space component decay more slowly (requiring a larger cutoff) —
// the trade-off at the heart of the paper's Table 2: Anton prefers a large
// cutoff and a coarse mesh because its PPIPs make range-limited
// interactions two orders of magnitude cheaper, while commodity x86 codes
// prefer a small cutoff and a fine mesh.
type Split struct {
	Sigma  float64 // Gaussian splitting width, Å
	Cutoff float64 // real-space interaction cutoff, Å
}

// SigmaForCutoff chooses the splitting width such that the real-space
// kernel at the cutoff has decayed to the requested relative tolerance:
// erfc(rc/(sqrt2*sigma)) ~ tol. Typical tol 1e-5..1e-6.
func SigmaForCutoff(cutoff, tol float64) float64 {
	// Solve erfc(x) = tol by bisection; then sigma = rc/(sqrt2*x).
	lo, hi := 0.0, 30.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if math.Erfc(mid) > tol {
			lo = mid
		} else {
			hi = mid
		}
	}
	x := (lo + hi) / 2
	return cutoff / (math.Sqrt2 * x)
}

// RealSpacePair evaluates the screened (short-range) Coulomb interaction
// of the Ewald decomposition for a pair at squared distance r2:
// V = k*qi*qj*erfc(r/(sqrt2*sigma))/r, and the force scale fScale such
// that F_i = fScale * (r_i - r_j).
func (s Split) RealSpacePair(r2, qi, qj float64) (energy, fScale float64) {
	r := math.Sqrt(r2)
	a := r / (math.Sqrt2 * s.Sigma)
	qq := ff.CoulombK * qi * qj
	erfc := math.Erfc(a)
	energy = qq * erfc / r
	// dV/dr = -qq*erfc/r^2 - qq*(2/sqrt(pi))*exp(-a^2)/(sqrt2*sigma*r)
	// F = -dV/dr * rhat => fScale = -dV/dr / r.
	fScale = qq * (erfc/r + math.Sqrt(2/math.Pi)/s.Sigma*math.Exp(-a*a)) / r2
	return
}

// RealSpaceShift returns the real-space pair energy at the cutoff,
// k*qi*qj*erfc(rc/(sqrt2*sigma))/rc. Subtracting it from each within-
// cutoff pair energy ("potential shift") makes the reported energy the
// exact integral of the truncated forces the dynamics actually uses, so
// energy-drift measurements see the integrator, not bookkeeping jumps at
// the cutoff sphere.
func (s Split) RealSpaceShift(qi, qj float64) float64 {
	a := s.Cutoff / (math.Sqrt2 * s.Sigma)
	return ff.CoulombK * qi * qj * math.Erfc(a) / s.Cutoff
}

// SmoothPair evaluates the complementary smooth (long-range) component for
// an explicit pair: V = k*qi*qj*erf(r/(sqrt2*sigma))/r. The sum of
// RealSpacePair and SmoothPair is the bare Coulomb interaction. SmoothPair
// is what the mesh computes implicitly for all pairs — including excluded
// ones, which is why correction forces subtract exactly this term.
func (s Split) SmoothPair(r2, qi, qj float64) (energy, fScale float64) {
	r := math.Sqrt(r2)
	a := r / (math.Sqrt2 * s.Sigma)
	qq := ff.CoulombK * qi * qj
	erf := math.Erf(a)
	energy = qq * erf / r
	fScale = qq * (erf/r - math.Sqrt(2/math.Pi)/s.Sigma*math.Exp(-a*a)) / r2
	return
}

// SelfEnergy returns the Ewald self-interaction energy that must be
// subtracted once: -k/(sqrt(2*pi)*sigma) * sum q_i^2.
func (s Split) SelfEnergy(atoms []ff.Atom) float64 {
	var q2 float64
	for _, a := range atoms {
		q2 += a.Charge * a.Charge
	}
	return -ff.CoulombK * q2 / (math.Sqrt(2*math.Pi) * s.Sigma)
}

// CorrectionForces subtracts the smooth-component interaction for every
// excluded pair and applies the 1-4 electrostatic scaling: for excluded
// pairs the mesh computed a contribution that should not exist at all; for
// 1-4 pairs the full interaction is scaled by Scale14Elec, so the
// remainder (1 - scale) of the *bare* interaction must be removed, which
// decomposes into a real-space part handled by the pair kernels and a
// smooth part handled here. This is the workload of Anton's correction
// pipeline (paper §3.1, §3.2.3). Returns the total correction energy
// added to the system (negative of what is subtracted).
//
// This implementation handles only full exclusions; scaled 1-4 handling
// lives with the engines because it needs the LJ tables too. The pairs
// are summed in the ascending order of t.Exclusions, so the result
// repeats bit for bit.
func (s Split) CorrectionForces(t *ff.Topology, box vec.Box, r []vec.V3, f []vec.V3) float64 {
	energy := 0.0
	for _, p := range t.Exclusions {
		i, j := p[0], p[1]
		d := box.MinImage(r[i].Sub(r[j]))
		r2 := d.Norm2()
		if r2 < 1e-12 {
			continue // coincident (should not happen for physical systems)
		}
		e, fs := s.SmoothPair(r2, t.Atoms[i].Charge, t.Atoms[j].Charge)
		energy -= e
		fv := d.Scale(-fs)
		f[i] = f[i].Add(fv)
		f[j] = f[j].Sub(fv)
	}
	return energy
}
