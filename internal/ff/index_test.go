package ff_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"anton/internal/ff"
	"anton/internal/system"
	"anton/internal/vec"
)

// The static interaction index of built systems: the exclusion table,
// the per-atom skip lists and the flat bonded-term index, on the small
// protein-in-water system, a four-site (TIP4P-Ew) water box with virtual
// sites, and DHFR (full size, skipped under -short).

type indexCase struct {
	name  string
	build func() (*system.System, error)
	long  bool
}

var indexCases = []indexCase{
	{"small", func() (*system.System, error) { return system.Small(true, 21) }, false},
	{"tip4p-ew", func() (*system.System, error) {
		return system.Build(system.Spec{
			Name: "tip4p-small", TotalAtoms: 648, Side: 18.2, Cutoff: 7.0, Mesh: 16,
			Model: ff.TIP4PEw, Seed: 13,
		})
	}, false},
	{"DHFR", func() (*system.System, error) { return system.ByName("DHFR") }, true},
}

func forEachIndexCase(t *testing.T, fn func(t *testing.T, c indexCase, s *system.System)) {
	for _, c := range indexCases {
		t.Run(c.name, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("full-size system; runs without -short")
			}
			s, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			fn(t, c, s)
		})
	}
}

// TestExclusionTableSorted: Exclusions is strictly ascending, each pair
// stored once as i < j, and it is not empty on these systems.
func TestExclusionTableSorted(t *testing.T) {
	forEachIndexCase(t, func(t *testing.T, _ indexCase, s *system.System) {
		ex := s.Top.Exclusions
		if len(ex) == 0 {
			t.Fatal("no exclusions")
		}
		for k, p := range ex {
			if p[0] < 0 || p[0] >= p[1] || int(p[1]) >= s.NAtoms() {
				t.Fatalf("exclusion %d = %v: want 0 <= i < j < %d", k, p, s.NAtoms())
			}
			if k > 0 {
				q := ex[k-1]
				if q[0] > p[0] || q[0] == p[0] && q[1] >= p[1] {
					t.Fatalf("exclusions %d, %d = %v, %v: not strictly ascending", k-1, k, q, p)
				}
			}
		}
	})
}

// TestSkipListsAreExclusionsAnd14: the per-atom skip lists are sorted,
// symmetric, and hold exactly the exclusions and the 1-4 pairs.
func TestSkipListsAreExclusionsAnd14(t *testing.T) {
	forEachIndexCase(t, func(t *testing.T, _ indexCase, s *system.System) {
		top := s.Top
		if len(top.Skip) != s.NAtoms() {
			t.Fatalf("%d skip lists for %d atoms", len(top.Skip), s.NAtoms())
		}
		want := make(map[[2]int32]bool)
		for _, p := range top.Exclusions {
			want[p] = true
		}
		for _, p := range top.Pairs14 {
			want[[2]int32{int32(min(p.I, p.J)), int32(max(p.I, p.J))}] = true
		}
		got := 0
		for i, l := range top.Skip {
			for k, j := range l {
				if k > 0 && l[k-1] >= j {
					t.Fatalf("atom %d: skip list %v not strictly sorted", i, l)
				}
				if !slices.Contains(top.Skip[j], int32(i)) {
					t.Fatalf("skip %d-%d not symmetric", i, j)
				}
				if int32(i) < j {
					if !want[[2]int32{int32(i), j}] {
						t.Fatalf("skip %d-%d is neither an exclusion nor a 1-4 pair", i, j)
					}
					got++
				}
			}
		}
		if got != len(want) {
			t.Fatalf("skip lists hold %d pairs, exclusions and 1-4 pairs %d", got, len(want))
		}
	})
}

// TestIndexBuildDeterministic: two builds of one system give equal
// tables, and BuildExclusions run again on a built topology changes none
// of them.
func TestIndexBuildDeterministic(t *testing.T) {
	forEachIndexCase(t, func(t *testing.T, c indexCase, s *system.System) {
		again, err := c.build()
		if err != nil {
			t.Fatal(err)
		}
		same := func(label string, a, b *ff.Topology) {
			t.Helper()
			if !slices.Equal(a.Exclusions, b.Exclusions) {
				t.Errorf("%s: exclusion tables differ", label)
			}
			if !slices.Equal(a.Pairs14, b.Pairs14) {
				t.Errorf("%s: 1-4 pairs differ", label)
			}
			if !slices.EqualFunc(a.Skip, b.Skip, slices.Equal[[]int32]) {
				t.Errorf("%s: skip lists differ", label)
			}
		}
		same("two builds", s.Top, again.Top)
		again.Top.BuildExclusions()
		same("rebuild", s.Top, again.Top)
	})
}

// TestBondedTermIndexBitwise: the flat index visits every bond, angle,
// dihedral and improper exactly once, in that order, and BondedForces is
// the sum of the per-type evaluations in that order, bit for bit.
func TestBondedTermIndexBitwise(t *testing.T) {
	forEachIndexCase(t, func(t *testing.T, _ indexCase, s *system.System) {
		top := s.Top
		var want [][]int
		for _, b := range top.Bonds {
			want = append(want, []int{b.I, b.J})
		}
		for _, a := range top.Angles {
			want = append(want, []int{a.I, a.J, a.K})
		}
		for _, d := range top.Dihedrals {
			want = append(want, []int{d.I, d.J, d.K, d.L})
		}
		for _, im := range top.Impropers {
			want = append(want, []int{im.I, im.J, im.K, im.L})
		}
		if top.NumBondedTerms() != len(want) {
			t.Fatalf("%d flat terms, want %d", top.NumBondedTerms(), len(want))
		}
		for k, w := range want {
			atoms, n := top.BondedTermAtoms(k)
			if !slices.Equal(atoms[:n], w) {
				t.Fatalf("term %d: atoms %v, want %v", k, atoms[:n], w)
			}
		}

		// Jiggle the structure so every term has a nonzero force.
		rng := rand.New(rand.NewSource(3))
		r := slices.Clone(s.R)
		for i := range r {
			r[i] = r[i].Add(vec.V3{X: 0.05 * rng.NormFloat64(), Y: 0.05 * rng.NormFloat64(), Z: 0.05 * rng.NormFloat64()})
		}
		fWant := make([]vec.V3, len(r))
		eWant := 0.0
		add := func(atoms []int, e float64, f [4]vec.V3) {
			for i, a := range atoms {
				fWant[a] = fWant[a].Add(f[i])
			}
			eWant += e
		}
		pos := func(atoms ...int) *[4]vec.V3 {
			var rk [4]vec.V3
			for i, a := range atoms {
				rk[i] = r[a]
			}
			return &rk
		}
		for i := range top.Bonds {
			b := &top.Bonds[i]
			e, f := ff.BondForce(b, s.Box, pos(b.I, b.J))
			add([]int{b.I, b.J}, e, f)
		}
		for i := range top.Angles {
			a := &top.Angles[i]
			e, f := ff.AngleForce(a, s.Box, pos(a.I, a.J, a.K))
			add([]int{a.I, a.J, a.K}, e, f)
		}
		for i := range top.Dihedrals {
			d := &top.Dihedrals[i]
			e, f := ff.DihedralForce(d, s.Box, pos(d.I, d.J, d.K, d.L))
			add([]int{d.I, d.J, d.K, d.L}, e, f)
		}
		for i := range top.Impropers {
			im := &top.Impropers[i]
			e, f := ff.ImproperForce(im, s.Box, pos(im.I, im.J, im.K, im.L))
			add([]int{im.I, im.J, im.K, im.L}, e, f)
		}
		fGot := make([]vec.V3, len(r))
		eGot := ff.BondedForces(top, s.Box, r, fGot)
		if math.Float64bits(eGot) != math.Float64bits(eWant) {
			t.Fatalf("bonded energy %v, want %v", eGot, eWant)
		}
		for i := range fGot {
			if fGot[i] != fWant[i] {
				t.Fatalf("atom %d: bonded force %v, want %v", i, fGot[i], fWant[i])
			}
		}
	})
}
