// Package system builds the chemical systems the paper benchmarks:
// protein-in-water systems with the exact particle counts, box sizes and
// water models of Table 4 and section 5.3 (gpW, DHFR, aSFP, NADHOx, FtsZ,
// T7Lig, BPTI, GB3), matching water-only systems (Figure 5), and the
// initial velocity distributions.
//
// Real crystal structures and force-field parameter databases are not
// available offline, so proteins are synthesized: a compact self-avoiding
// backbone walk carrying a realistic all-atom residue template (backbone
// N/H/CA/HA/C/O plus a short side chain), with bonds, angles, torsions,
// exclusions and H-bond constraints generated from the built geometry.
// Performance and numerics depend on particle counts, densities, cutoffs
// and topology statistics — all preserved — not on biological identity
// (see DESIGN.md, substitutions).
package system

import (
	"math"
	"math/rand"

	"anton/internal/ff"
	"anton/internal/vec"
)

// residueTemplate is the per-residue atom layout in the local frame:
// CA at the origin, +x toward the next residue, +z "up".
type templAtom struct {
	name   string
	mass   float64
	charge float64
	lj     string // LJ class name
	pos    vec.V3
}

var residueTemplate = []templAtom{
	{"N", ff.MassN, -0.40, "N", vec.V3{X: -1.45}},
	{"HN", ff.MassH, +0.30, "H", vec.V3{X: -1.80, Y: 0.90}},
	{"CA", ff.MassC, +0.10, "C", vec.V3{}},
	{"HA", ff.MassH, +0.05, "H", vec.V3{Y: -0.70, Z: 0.80}},
	{"C", ff.MassC, +0.55, "C", vec.V3{X: 0.75, Y: 1.25}},
	{"O", ff.MassO, -0.55, "O", vec.V3{X: 0.60, Y: 2.45}},
	{"CB", ff.MassC, -0.10, "C", vec.V3{X: 0.50, Y: -0.80, Z: -1.20}},
	{"HB1", ff.MassH, +0.05, "H", vec.V3{X: 1.20, Y: -0.30, Z: -1.85}},
	{"HB2", ff.MassH, +0.05, "H", vec.V3{X: -0.30, Y: -1.10, Z: -1.85}},
	{"CG", ff.MassC, -0.15, "C", vec.V3{X: 1.20, Y: -2.00, Z: -0.80}},
	{"HG", ff.MassH, +0.10, "H", vec.V3{X: 1.80, Y: -2.50, Z: -1.50}},
}

// AtomsPerResidue is the size of the residue template.
var AtomsPerResidue = len(residueTemplate)

// caSpacing is the distance between consecutive alpha carbons.
const caSpacing = 3.8

// templateBonds are intra-residue bonds as template-index pairs; a
// hydrogen is always the second atom of its pair.
var templateBonds = [][2]int{
	{0, 1}, {0, 2}, {2, 3}, {2, 4}, {4, 5}, {2, 6}, {6, 7}, {6, 8}, {6, 9}, {9, 10},
}

// ljClasses registers the protein LJ classes on first use.
func ljClass(p *ff.ParamSet, name string) int {
	switch name {
	case "C":
		return ensure(p, "prot-C", 3.40, 0.086)
	case "N":
		return ensure(p, "prot-N", 3.25, 0.170)
	case "O":
		return ensure(p, "prot-O", 2.96, 0.210)
	case "H":
		return ensure(p, "prot-H", 1.00, 0.015)
	case "ION":
		return ensure(p, "ion", 4.40, 0.100)
	}
	panic("system: unknown LJ class " + name)
}

func ensure(p *ff.ParamSet, name string, sigma, eps float64) int {
	for i, t := range p.LJTypes {
		if t.Name == name {
			return i
		}
	}
	p.LJTypes = append(p.LJTypes, ff.LJType{Name: name, Sigma: sigma, Epsilon: eps})
	return len(p.LJTypes) - 1
}

// backboneWalk returns nRes CA positions on a compact serpentine lattice
// walk (self-avoiding by construction) centered at the origin.
func backboneWalk(nRes int) []vec.V3 {
	// Fill a near-cubic lattice of spacing caSpacing in serpentine order.
	side := int(math.Ceil(math.Cbrt(float64(nRes))))
	pos := make([]vec.V3, 0, nRes)
	n := 0
	for k := 0; k < side && n < nRes; k++ {
		for jj := 0; jj < side && n < nRes; jj++ {
			j := jj
			if k%2 == 1 {
				j = side - 1 - jj
			}
			for ii := 0; ii < side && n < nRes; ii++ {
				i := ii
				if (jj+k)%2 == 1 {
					i = side - 1 - ii
				}
				pos = append(pos, vec.V3{
					X: float64(i) * caSpacing,
					Y: float64(j) * caSpacing,
					Z: float64(k) * caSpacing,
				})
				n++
			}
		}
	}
	// Center at the origin.
	var c vec.V3
	for _, p := range pos {
		c = c.Add(p)
	}
	c = c.Scale(1 / float64(len(pos)))
	for i := range pos {
		pos[i] = pos[i].Sub(c)
	}
	return pos
}

// BuildProtein fills an empty topology with a synthetic protein of
// exactly nAtoms atoms, centered at `center`, and returns the atom
// positions. The protein consists of nAtoms/AtomsPerResidue template
// residues plus nAtoms%AtomsPerResidue carbon cap atoms chained to the
// final side chain, so any target atom count is reachable.
// chargedResidues of the first residues carry +1 (on the side-chain
// carbon), modelling basic residues balanced by counterions elsewhere.
func BuildProtein(t *ff.Topology, p *ff.ParamSet, nAtoms int, center vec.V3, chargedResidues int) []vec.V3 {
	nRes := nAtoms / AtomsPerResidue
	caps := nAtoms % AtomsPerResidue
	if nRes == 0 {
		panic("system: protein too small for one residue")
	}
	if len(t.Atoms) != 0 {
		panic("system: BuildProtein needs an empty topology")
	}
	cas := backboneWalk(nRes)
	r := make([]vec.V3, 0, nAtoms)

	// Local frames: forward toward the next CA; up chosen stably.
	for i := 0; i < nRes; i++ {
		var fwd vec.V3
		if i+1 < nRes {
			fwd = cas[i+1].Sub(cas[i]).Unit()
		} else {
			fwd = cas[i].Sub(cas[i-1]).Unit()
		}
		up := vec.V3{Z: 1}
		if math.Abs(fwd.Z) > 0.9 {
			up = vec.V3{Y: 1}
		}
		side := fwd.Cross(up).Unit()
		up = side.Cross(fwd).Unit()
		frame := func(local vec.V3) vec.V3 {
			return center.Add(cas[i]).
				Add(fwd.Scale(local.X)).
				Add(up.Scale(local.Y)).
				Add(side.Scale(local.Z))
		}
		for j, ta := range residueTemplate {
			q := ta.charge
			if j == 9 && i < chargedResidues { // CG of a "basic" residue
				q += 1.0
			}
			t.Atoms = append(t.Atoms, ff.Atom{
				Name:    ta.name,
				Mass:    ta.mass,
				Charge:  q,
				LJType:  ljClass(p, ta.lj),
				Residue: i,
			})
			r = append(r, frame(ta.pos))
		}
	}

	// The covalent graph, recorded once as topology terms at the built
	// distances: each residue's template bonds, then its peptide link
	// C(i)-N(i+1), then the cap chain. Bonds to hydrogens become
	// constraints (Table 4: "bond lengths to hydrogen atoms were
	// constrained"), parent first; every other pair is a harmonic bond.
	link := func(i, j int) {
		d := vec.Dist(r[i], r[j])
		if t.Atoms[j].Name[0] == 'H' {
			t.Constraints = append(t.Constraints, ff.Constraint{I: i, J: j, R: d})
			return
		}
		t.Bonds = append(t.Bonds, ff.Bond{I: i, J: j, R0: d, K: 300})
	}
	for i := 0; i < nRes; i++ {
		o := i * AtomsPerResidue
		for _, tb := range templateBonds {
			link(o+tb[0], o+tb[1])
		}
		if i+1 < nRes {
			link(o+4, o+AtomsPerResidue)
		}
	}
	// Cap atoms: a short carbon tail off the last residue's CG.
	prev := (nRes-1)*AtomsPerResidue + 9
	for c := 0; c < caps; c++ {
		idx := len(t.Atoms)
		t.Atoms = append(t.Atoms, ff.Atom{
			Name: "CT", Mass: ff.MassC, Charge: 0,
			LJType: ljClass(p, "C"), Residue: nRes - 1,
		})
		dir := vec.V3{X: 1.25, Y: 0.45 * float64(1-2*(c%2)), Z: 0.3}
		r = append(r, r[prev].Add(dir))
		link(prev, idx)
		prev = idx
	}
	adj := t.Adjacency()

	// Push apart steric clashes between heavy atoms that are not covalent
	// neighbors (local frames rotate at walk turns, where side chains can
	// collide), holding the bonds at their built lengths. Hydrogens ride
	// rigidly on their parent heavy atom so the X-H geometry stays at the
	// template values. Then every R0 and constraint length is taken from
	// the relaxed geometry, so it is the mechanical equilibrium of the
	// topology.
	prePos := append([]vec.V3(nil), r...)
	relaxProteinClashes(r, adj, t.Bonds, t.Constraints, 2.6, 60)
	for _, c := range t.Constraints {
		r[c.J] = prePos[c.J].Add(r[c.I].Sub(prePos[c.I]))
	}
	relaxHydrogens(r, adj, t.Constraints, 1.5, 40)
	for k := range t.Bonds {
		b := &t.Bonds[k]
		b.R0 = vec.Dist(r[b.I], r[b.J])
	}
	for k := range t.Constraints {
		c := &t.Constraints[k]
		c.R = vec.Dist(r[c.I], r[c.J])
	}

	// Angles for every pair of covalent neighbors of a vertex, in
	// adjacency order, with the equilibrium at the built geometry.
	for j, nbrs := range adj {
		for a, i := range nbrs {
			for _, k := range nbrs[a+1:] {
				t.Angles = append(t.Angles, ff.Angle{I: i, J: j, K: k, Theta0: vec.Angle(r[i], r[j], r[k]), KTheta: 50})
			}
		}
	}
	// Carbonyl planarity: an improper torsion at each backbone C keeps
	// (C, CA, N', O) planar, with the equilibrium at the built geometry.
	for i := 0; i+1 < nRes; i++ {
		o := i * AtomsPerResidue
		quad := [4]int{o + 4, o + 2, o + AtomsPerResidue, o + 5} // C, CA, N', O
		chi := vec.Dihedral(r[quad[0]], r[quad[1]], r[quad[2]], r[quad[3]])
		t.Impropers = append(t.Impropers, ff.Improper{
			I: quad[0], J: quad[1], K: quad[2], L: quad[3], Chi0: chi, KChi: 10,
		})
	}

	// Backbone torsions with the phase chosen so the built geometry is a
	// minimum: V = K*(1 + cos(n*phi - phase)) minimized at phase = n*phi - pi.
	for i := 0; i+1 < nRes; i++ {
		o := i * AtomsPerResidue
		quads := [][4]int{
			{o, o + 2, o + 4, o + AtomsPerResidue},                       // N-CA-C-N'
			{o + 2, o + 4, o + AtomsPerResidue, o + AtomsPerResidue + 2}, // CA-C-N'-CA'
		}
		for _, q := range quads {
			phi := vec.Dihedral(r[q[0]], r[q[1]], r[q[2]], r[q[3]])
			phase := math.Mod(3*phi-math.Pi, 2*math.Pi)
			t.Dihedrals = append(t.Dihedrals, ff.Dihedral{
				I: q[0], J: q[1], K: q[2], L: q[3], N: 3, Phase: phase, KPhi: 0.6,
			})
		}
	}
	return r
}

// InitVelocities draws Maxwell-Boltzmann velocities at temperature T (K)
// for every massive atom and removes the center-of-mass momentum. The rng
// makes initialization reproducible.
func InitVelocities(t *ff.Topology, T float64, rng *rand.Rand) []vec.V3 {
	v := make([]vec.V3, len(t.Atoms))
	for i, a := range t.Atoms {
		if a.Mass == 0 {
			continue
		}
		s := math.Sqrt(ff.KB * T / a.Mass * ff.ForceToAccel)
		v[i] = vec.V3{X: s * rng.NormFloat64(), Y: s * rng.NormFloat64(), Z: s * rng.NormFloat64()}
	}
	// Remove net momentum.
	var p vec.V3
	var m float64
	for i, a := range t.Atoms {
		p = p.Add(v[i].Scale(a.Mass))
		m += a.Mass
	}
	drift := p.Scale(1 / m)
	for i, a := range t.Atoms {
		if a.Mass > 0 {
			v[i] = v[i].Sub(drift)
		}
	}
	return v
}
