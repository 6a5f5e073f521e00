package ff

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Atom describes one particle of the chemical system. A particle need not
// be a physical atom: the TIP4P-Ew water model's M site is a massless
// charged particle (the paper's BPTI system counts 4 particles per water
// molecule for this reason).
type Atom struct {
	Name    string  // display name, e.g. "O", "HW1", "CA"
	Mass    float64 // amu; 0 marks a massless virtual site
	Charge  float64 // elementary charges
	LJType  int     // index into ParamSet.LJTypes
	Residue int     // residue (amino acid / water molecule) index
}

// LJType holds Lennard-Jones parameters for one atom class.
type LJType struct {
	Name    string
	Sigma   float64 // Å
	Epsilon float64 // kcal/mol
}

// Bond is a harmonic bond term: V = K*(r - R0)^2.
type Bond struct {
	I, J int
	R0   float64 // Å
	K    float64 // kcal/mol/Å^2
}

// Angle is a harmonic angle term: V = K*(theta - Theta0)^2.
type Angle struct {
	I, J, K int     // J is the vertex
	Theta0  float64 // radians
	KTheta  float64 // kcal/mol/rad^2
}

// Dihedral is a periodic torsion term: V = K*(1 + cos(n*phi - Phase)).
type Dihedral struct {
	I, J, K, L int
	N          int     // periodicity
	Phase      float64 // radians
	KPhi       float64 // kcal/mol
}

// Improper is a harmonic improper torsion keeping four atoms planar:
// V = K*(chi - Chi0)^2, with chi the dihedral angle of the I-J-K-L
// quadruple (conventionally the central atom first). Used for carbonyl
// and aromatic planarity in protein force fields.
type Improper struct {
	I, J, K, L int
	Chi0       float64 // radians
	KChi       float64 // kcal/mol/rad^2
}

// Constraint fixes the distance between two atoms (bond-length constraints
// to hydrogens, rigid-water geometry). Applied by SHAKE/RATTLE during
// integration.
type Constraint struct {
	I, J int
	R    float64 // constrained distance, Å
}

// VSite defines a massless virtual site whose position is a linear
// combination of three parent atoms: r_s = r_i + A*(r_j - r_i) + B*(r_k - r_i).
// TIP4P-Ew's M site uses A = B = a/2 along the H-O-H bisector.
type VSite struct {
	Site    int // index of the virtual particle
	I, J, K int // parents (O, H1, H2 for water)
	A, B    float64
}

// Pair14 is a scaled 1-4 nonbonded pair (atoms separated by exactly three
// covalent bonds). In most force fields the LJ and electrostatic
// interactions of such pairs are scaled down rather than eliminated.
type Pair14 struct {
	I, J int
}

// Topology is the complete static description of a chemical system's
// interactions. It is immutable during a simulation, except that Anton
// recomputes the *assignment* of its terms to hardware every ~100k steps
// (paper §3.2.3) — the terms themselves never change.
type Topology struct {
	Atoms     []Atom
	Bonds     []Bond
	Angles    []Angle
	Dihedrals []Dihedral
	Impropers []Improper

	// Constraints are grouped: all atoms of one group are kept on one node
	// by the Anton engine (paper §3.2.4). Groups are maximal connected
	// components of the constraint graph.
	Constraints []Constraint

	VSites  []VSite
	Pairs14 []Pair14

	// Scale factors applied to 1-4 pairs (AMBER: 1/1.2 elec, 1/2 LJ).
	Scale14Elec float64
	Scale14LJ   float64

	// Exclusions lists the pairs whose nonbonded interaction is
	// eliminated (1-2 and 1-3 neighbors, constrained pairs, each virtual
	// site with its three parents), once each as {i, j} with i < j, in
	// ascending order. Skip[i] lists, ascending, every atom whose pair
	// with i the range-limited pair loop leaves out: i's exclusions and
	// its 1-4 partners. BuildExclusions builds both tables; neither
	// changes after it returns. The engines' pair scans, excluded-pair
	// corrections and shard views read them directly.
	Exclusions [][2]int32
	Skip       [][]int32

	// constraintGroups caches the connected components of the constraint
	// graph, as sorted atom-index slices.
	constraintGroups [][]int
}

// NAtoms returns the number of particles.
func (t *Topology) NAtoms() int { return len(t.Atoms) }

// DegreesOfFreedom returns the number of kinetic degrees of freedom:
// 3 per massive particle, minus one per constraint, minus 3 for the
// conserved total momentum. Used to normalize temperature and the paper's
// per-DoF energy-drift metric.
func (t *Topology) DegreesOfFreedom() int {
	n := 0
	for _, a := range t.Atoms {
		if a.Mass > 0 {
			n += 3
		}
	}
	return n - len(t.Constraints) - 3
}

// TotalMass returns the system mass in amu.
func (t *Topology) TotalMass() float64 {
	var m float64
	for _, a := range t.Atoms {
		m += a.Mass
	}
	return m
}

// TotalCharge returns the net charge in e.
func (t *Topology) TotalCharge() float64 {
	var q float64
	for _, a := range t.Atoms {
		q += a.Charge
	}
	return q
}

// BuildExclusions derives the static exclusion index from the covalent
// structure. All 1-2 (bonded or constrained) and 1-3 (angle-spanning)
// pairs are excluded, and each virtual site is excluded from its three
// parents (a site is not excluded from its parents' other neighbors).
// 1-4 pairs are recorded in Pairs14 for scaled interaction. Call once
// after the topology's terms are assembled: it replaces Exclusions and
// Skip with new tables, keeping the pairs Exclusions already held.
func (t *Topology) BuildExclusions() {
	excl := slices.Clone(t.Exclusions)
	exclude := func(i, j int) { excl = append(excl, orderedPair(i, j)) }
	adj := t.Adjacency()
	for i, nbrs := range adj {
		for a, j := range nbrs {
			exclude(i, j) // 1-2
			for _, k := range nbrs[a+1:] {
				if k != j {
					exclude(j, k) // 1-3, via i
				}
			}
		}
	}
	excl = sortPairs(excl)
	// 1-4: walk three bonds, listing each pair not already excluded
	// (rings) after the pairs already recorded (rebuild); a pair listed
	// more than once is recorded at its first listing only.
	recorded := len(t.Pairs14)
	found := make([][2]int32, recorded)
	for n, p := range t.Pairs14 {
		found[n] = orderedPair(p.I, p.J)
	}
	for _, b := range t.Bonds {
		for _, end := range [2][2]int{{b.I, b.J}, {b.J, b.I}} {
			i, j := end[0], end[1]
			for _, k := range adj[j] {
				if k == i {
					continue
				}
				for _, l := range adj[k] {
					if l == j || l == i {
						continue
					}
					key := orderedPair(i, l)
					if _, ex := slices.BinarySearchFunc(excl, key, comparePairs); !ex {
						found = append(found, key)
					}
				}
			}
		}
	}
	set := sortPairs(slices.Clone(found))
	listed := make([]bool, len(set))
	for n, p := range found {
		k, _ := slices.BinarySearchFunc(set, p, comparePairs)
		if !listed[k] && n >= recorded {
			t.Pairs14 = append(t.Pairs14, Pair14{I: int(p[0]), J: int(p[1])})
		}
		listed[k] = true
	}
	// Each virtual site with its three parents.
	for _, v := range t.VSites {
		for _, p := range []int{v.I, v.J, v.K} {
			exclude(v.Site, p)
		}
	}

	t.Exclusions = sortPairs(excl)
	t.Skip = make([][]int32, len(t.Atoms))
	skip := func(i, j int32) {
		t.Skip[i] = append(t.Skip[i], j)
		t.Skip[j] = append(t.Skip[j], i)
	}
	for _, p := range t.Exclusions {
		skip(p[0], p[1])
	}
	for _, p := range t.Pairs14 {
		skip(int32(p.I), int32(p.J))
	}
	for i, l := range t.Skip {
		slices.Sort(l)
		t.Skip[i] = slices.Compact(l)
	}
	t.constraintGroups = nil // invalidate cache
}

// comparePairs orders atom pairs by first atom, then second.
func comparePairs(a, b [2]int32) int {
	return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
}

// sortPairs sorts ps ascending and drops repeats, in place.
func sortPairs(ps [][2]int32) [][2]int32 {
	slices.SortFunc(ps, comparePairs)
	return slices.Compact(ps)
}

// Adjacency is the covalent graph: for each atom, the other atom of every
// bond, then of every constraint, in term order (constrained bonds often
// replace the bond term; rigid water has constraints only). The
// exclusions, the 1-4 pairs and the protein builder's generated angles
// and clash relaxation all read this one graph.
func (t *Topology) Adjacency() [][]int {
	adj := make([][]int, len(t.Atoms))
	link := func(i, j int) {
		adj[i] = append(adj[i], j)
		adj[j] = append(adj[j], i)
	}
	for _, b := range t.Bonds {
		link(b.I, b.J)
	}
	for _, c := range t.Constraints {
		link(c.I, c.J)
	}
	return adj
}

// orderedPair is the {min, max} form of an atom pair.
func orderedPair(i, j int) [2]int32 {
	return [2]int32{int32(min(i, j)), int32(max(i, j))}
}

// ConstraintGroups returns the connected components of the constraint
// graph as sorted atom-index slices, including each group's virtual sites
// (a TIP4P-Ew molecule is one group of four particles). Atoms with no
// constraints are not listed.
func (t *Topology) ConstraintGroups() [][]int {
	if t.constraintGroups != nil {
		return t.constraintGroups
	}
	parent := make([]int, len(t.Atoms))
	for i := range parent {
		parent[i] = -1 // not in any group
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] < 0 {
			parent[x] = x
		}
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, c := range t.Constraints {
		union(c.I, c.J)
	}
	for _, v := range t.VSites {
		union(v.Site, v.I)
		union(v.I, v.J)
		union(v.J, v.K)
	}
	// One ascending pass: each group comes out sorted, and the groups in
	// order of their first atom. slot maps a root to its group's index
	// plus one.
	out := make([][]int, 0)
	slot := make([]int, len(t.Atoms))
	for x := range parent {
		if parent[x] < 0 {
			continue
		}
		r := find(x)
		if slot[r] == 0 {
			out = append(out, nil)
			slot[r] = len(out)
		}
		out[slot[r]-1] = append(out[slot[r]-1], x)
	}
	t.constraintGroups = out
	return out
}

// Validate checks internal consistency: indices in range, positive
// parameters, no bonded term naming an atom twice, vsites massless. It
// returns the first problem found.
func (t *Topology) Validate() error {
	n := len(t.Atoms)
	chk := func(idx int, what string) error {
		if idx < 0 || idx >= n {
			return fmt.Errorf("ff: %s index %d out of range [0,%d)", what, idx, n)
		}
		return nil
	}
	for _, b := range t.Bonds {
		if err := firstErr(chk(b.I, "bond"), chk(b.J, "bond")); err != nil {
			return err
		}
		if b.R0 <= 0 || b.K < 0 {
			return fmt.Errorf("ff: bond (%d,%d) has invalid parameters R0=%g K=%g", b.I, b.J, b.R0, b.K)
		}
	}
	for _, a := range t.Angles {
		if err := firstErr(chk(a.I, "angle"), chk(a.J, "angle"), chk(a.K, "angle")); err != nil {
			return err
		}
		if a.Theta0 < 0 || a.Theta0 > math.Pi {
			return fmt.Errorf("ff: angle (%d,%d,%d) Theta0=%g out of [0,pi]", a.I, a.J, a.K, a.Theta0)
		}
	}
	for _, d := range t.Dihedrals {
		if err := firstErr(chk(d.I, "dihedral"), chk(d.J, "dihedral"), chk(d.K, "dihedral"), chk(d.L, "dihedral")); err != nil {
			return err
		}
		if d.N < 1 || d.N > 6 {
			return fmt.Errorf("ff: dihedral periodicity %d out of [1,6]", d.N)
		}
	}
	for _, im := range t.Impropers {
		if err := firstErr(chk(im.I, "improper"), chk(im.J, "improper"), chk(im.K, "improper"), chk(im.L, "improper")); err != nil {
			return err
		}
		if im.KChi < 0 {
			return fmt.Errorf("ff: improper (%d,%d,%d,%d) has negative force constant", im.I, im.J, im.K, im.L)
		}
	}
	// A bonded term's kernel returns one force per listed atom and the
	// engine quantizes each on its own, so a term naming an atom twice
	// would round that atom's force unlike the reference engine's one sum.
	for k := range t.NumBondedTerms() {
		atoms, n := t.BondedTermAtoms(k)
		for i, a := range atoms[:n] {
			if slices.Contains(atoms[i+1:n], a) {
				return fmt.Errorf("ff: bonded term %d %v names atom %d twice", k, atoms[:n], a)
			}
		}
	}
	for _, c := range t.Constraints {
		if err := firstErr(chk(c.I, "constraint"), chk(c.J, "constraint")); err != nil {
			return err
		}
		if c.R <= 0 {
			return fmt.Errorf("ff: constraint (%d,%d) has non-positive length %g", c.I, c.J, c.R)
		}
	}
	for _, v := range t.VSites {
		if err := firstErr(chk(v.Site, "vsite"), chk(v.I, "vsite"), chk(v.J, "vsite"), chk(v.K, "vsite")); err != nil {
			return err
		}
		if t.Atoms[v.Site].Mass != 0 {
			return fmt.Errorf("ff: virtual site %d has nonzero mass %g", v.Site, t.Atoms[v.Site].Mass)
		}
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
