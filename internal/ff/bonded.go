package ff

import (
	"math"

	"anton/internal/vec"
)

// The flat bonded-term index numbers every bonded term of a topology
// once: its bonds, then its angles, then its dihedrals, then its
// impropers, each in slice order. BondedForces sums in that order, the
// engines split it across workers and shards, and the geometry-core
// assignment places its terms (paper §3.2.3).

// NumBondedTerms returns the length of the flat bonded-term index.
func (t *Topology) NumBondedTerms() int {
	return len(t.Bonds) + len(t.Angles) + len(t.Dihedrals) + len(t.Impropers)
}

// BondedTermAtoms returns the atoms of flat term k: the first n of
// atoms (2 for a bond, 3 for an angle, 4 for a torsion).
func (t *Topology) BondedTermAtoms(k int) (atoms [4]int, n int) {
	switch nb, na, nd := len(t.Bonds), len(t.Angles), len(t.Dihedrals); {
	case k < nb:
		b := &t.Bonds[k]
		return [4]int{b.I, b.J}, 2
	case k < nb+na:
		a := &t.Angles[k-nb]
		return [4]int{a.I, a.J, a.K}, 3
	case k < nb+na+nd:
		d := &t.Dihedrals[k-nb-na]
		return [4]int{d.I, d.J, d.K, d.L}, 4
	default:
		im := &t.Impropers[k-nb-na-nd]
		return [4]int{im.I, im.J, im.K, im.L}, 4
	}
}

// BondedTermForce evaluates flat term k at the positions r of its atoms,
// given in BondedTermAtoms order, and returns its energy and the force on
// each of those atoms, in the same order.
func (t *Topology) BondedTermForce(k int, box vec.Box, r *[4]vec.V3) (float64, [4]vec.V3) {
	switch nb, na, nd := len(t.Bonds), len(t.Angles), len(t.Dihedrals); {
	case k < nb:
		return BondForce(&t.Bonds[k], box, r)
	case k < nb+na:
		return AngleForce(&t.Angles[k-nb], box, r)
	case k < nb+na+nd:
		return DihedralForce(&t.Dihedrals[k-nb-na], box, r)
	default:
		return ImproperForce(&t.Impropers[k-nb-na-nd], box, r)
	}
}

// BondedForces evaluates all bonded terms of the topology in flat-index
// order, adding each term's forces into f (which must have length NAtoms)
// in its atoms' order, and returns the total bonded energy. Positions are
// taken minimum-image in the given box, so bonded terms behave correctly
// for molecules straddling the periodic boundary.
//
// On Anton these terms run on the geometry cores of the flexible
// subsystem; on commodity hardware they are a small part of the profile
// (Table 2: ~3-4%).
func BondedForces(t *Topology, box vec.Box, r []vec.V3, f []vec.V3) float64 {
	e := 0.0
	for k := range t.NumBondedTerms() {
		atoms, n := t.BondedTermAtoms(k)
		var rk [4]vec.V3
		for i, a := range atoms[:n] {
			rk[i] = r[a]
		}
		ek, fk := t.BondedTermForce(k, box, &rk)
		for i, a := range atoms[:n] {
			f[a] = f[a].Add(fk[i])
		}
		e += ek
	}
	return e
}

// The term kernels are pure: each takes the positions of its term's atoms
// in the term's order (I, J, ... in r[0], r[1], ...) and returns the
// energy and the force on each of those atoms, in the same order.

// BondForce evaluates one harmonic bond, V = K*(r - R0)^2.
func BondForce(b *Bond, box vec.Box, r *[4]vec.V3) (float64, [4]vec.V3) {
	d := box.MinImage(r[0].Sub(r[1]))
	dist := d.Norm()
	dr := dist - b.R0
	// F_i = -dV/dr_i = -2K*dr * d/|d|
	scale := -2 * b.K * dr / dist
	fv := d.Scale(scale)
	return b.K * dr * dr, [4]vec.V3{fv, fv.Neg()}
}

// AngleForce evaluates one harmonic angle, V = K*(theta - Theta0)^2, with
// J the vertex atom.
func AngleForce(a *Angle, box vec.Box, r *[4]vec.V3) (float64, [4]vec.V3) {
	rij := box.MinImage(r[0].Sub(r[1]))
	rkj := box.MinImage(r[2].Sub(r[1]))
	lij, lkj := rij.Norm(), rkj.Norm()
	c := rij.Dot(rkj) / (lij * lkj)
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	theta := math.Acos(c)
	dt := theta - a.Theta0
	// dV/dtheta
	dVdT := 2 * a.KTheta * dt
	// Guard sin(theta) ~ 0 (collinear): force direction degenerates.
	s := math.Sin(theta)
	if s < 1e-8 {
		s = 1e-8
	}
	// dtheta/dr_i = -1/sin * d(cos)/dr_i
	// d(cos)/dr_i = rkj/(lij*lkj) - cos * rij/lij^2
	dcdi := rkj.Scale(1 / (lij * lkj)).Sub(rij.Scale(c / (lij * lij)))
	dcdk := rij.Scale(1 / (lij * lkj)).Sub(rkj.Scale(c / (lkj * lkj)))
	fi := dcdi.Scale(dVdT / s)
	fk := dcdk.Scale(dVdT / s)
	return a.KTheta * dt * dt, [4]vec.V3{fi, fi.Add(fk).Neg(), fk}
}

// DihedralForce evaluates one periodic torsion, V = K*(1 + cos(n*phi - phase)),
// using the standard analytic gradient decomposition.
func DihedralForce(d *Dihedral, box vec.Box, r *[4]vec.V3) (float64, [4]vec.V3) {
	b1 := box.MinImage(r[1].Sub(r[0]))
	b2 := box.MinImage(r[2].Sub(r[1]))
	b3 := box.MinImage(r[3].Sub(r[2]))

	n1 := b1.Cross(b2) // normal of plane (i,j,k)
	n2 := b2.Cross(b3) // normal of plane (j,k,l)
	n1sq := n1.Norm2()
	n2sq := n2.Norm2()
	lb2 := b2.Norm()
	if n1sq < 1e-12 || n2sq < 1e-12 {
		return 0, [4]vec.V3{} // degenerate (collinear) configuration: no defined torque
	}

	x := n1.Dot(n2)
	y := b2.Norm() * b1.Dot(n2)
	phi := math.Atan2(y, x)

	dVdPhi := -float64(d.N) * d.KPhi * math.Sin(float64(d.N)*phi-d.Phase)

	// Analytic gradients (see e.g. Allen & Tildesley): forces on i and l
	// act along the plane normals.
	fi := n1.Scale(dVdPhi * lb2 / n1sq)
	fl := n2.Scale(-dVdPhi * lb2 / n2sq)
	// Distribute onto j and k preserving zero net force and torque
	// (Bekker-style decomposition).
	p := b1.Dot(b2) / (lb2 * lb2)
	q := b3.Dot(b2) / (lb2 * lb2)
	sv := fl.Scale(q).Sub(fi.Scale(p))
	fj := sv.Sub(fi)
	fk := sv.Neg().Sub(fl)

	return d.KPhi * (1 + math.Cos(float64(d.N)*phi-d.Phase)), [4]vec.V3{fi, fj, fk, fl}
}

// ImproperForce evaluates one harmonic improper torsion,
// V = K*(chi - Chi0)^2, sharing the dihedral-angle gradient machinery.
func ImproperForce(im *Improper, box vec.Box, r *[4]vec.V3) (float64, [4]vec.V3) {
	b1 := box.MinImage(r[1].Sub(r[0]))
	b2 := box.MinImage(r[2].Sub(r[1]))
	b3 := box.MinImage(r[3].Sub(r[2]))
	n1 := b1.Cross(b2)
	n2 := b2.Cross(b3)
	n1sq := n1.Norm2()
	n2sq := n2.Norm2()
	lb2 := b2.Norm()
	if n1sq < 1e-12 || n2sq < 1e-12 {
		return 0, [4]vec.V3{}
	}
	x := n1.Dot(n2)
	y := lb2 * b1.Dot(n2)
	chi := math.Atan2(y, x)
	// Wrap the deviation into (-pi, pi] so the harmonic well is periodic.
	dChi := chi - im.Chi0
	for dChi > math.Pi {
		dChi -= 2 * math.Pi
	}
	for dChi <= -math.Pi {
		dChi += 2 * math.Pi
	}
	dVdChi := 2 * im.KChi * dChi

	fi := n1.Scale(dVdChi * lb2 / n1sq)
	fl := n2.Scale(-dVdChi * lb2 / n2sq)
	p := b1.Dot(b2) / (lb2 * lb2)
	q := b3.Dot(b2) / (lb2 * lb2)
	sv := fl.Scale(q).Sub(fi.Scale(p))
	fj := sv.Sub(fi)
	fk := sv.Neg().Sub(fl)
	return im.KChi * dChi * dChi, [4]vec.V3{fi, fj, fk, fl}
}
