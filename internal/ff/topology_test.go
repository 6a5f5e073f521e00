package ff

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"anton/internal/vec"
)

// chainTopology builds a linear 5-atom chain 0-1-2-3-4.
func chainTopology() *Topology {
	t := &Topology{Atoms: make([]Atom, 5)}
	for i := range t.Atoms {
		t.Atoms[i].Mass = 12
	}
	for i := 0; i < 4; i++ {
		t.Bonds = append(t.Bonds, Bond{I: i, J: i + 1, R0: 1.5, K: 300})
	}
	return t
}

func TestBuildExclusions12And13(t *testing.T) {
	top := chainTopology()
	top.BuildExclusions()
	// 1-2 pairs.
	for i := 0; i < 4; i++ {
		if !excluded(top, i, i+1) {
			t.Errorf("1-2 pair (%d,%d) not excluded", i, i+1)
		}
	}
	// 1-3 pairs.
	for i := 0; i < 3; i++ {
		if !excluded(top, i, i+2) {
			t.Errorf("1-3 pair (%d,%d) not excluded", i, i+2)
		}
	}
	// 1-4 pairs are NOT excluded but listed in Pairs14.
	if excluded(top, 0, 3) {
		t.Error("1-4 pair (0,3) should not be fully excluded")
	}
	want14 := map[[2]int]bool{{0, 3}: true, {1, 4}: true}
	if len(top.Pairs14) != 2 {
		t.Fatalf("Pairs14: got %v, want two pairs", top.Pairs14)
	}
	for _, p := range top.Pairs14 {
		if !want14[[2]int{p.I, p.J}] {
			t.Errorf("unexpected 1-4 pair %v", p)
		}
	}
	// 1-5 pair fully interacting.
	if excluded(top, 0, 4) {
		t.Error("1-5 pair should interact fully")
	}
	// Symmetry of lookup.
	if !excluded(top, 1, 0) {
		t.Error("exclusion lookup is not symmetric")
	}
}

// excluded reports whether the pair (i, j), in either order, is in the
// sorted exclusion table.
func excluded(top *Topology, i, j int) bool {
	p := [2]int32{int32(min(i, j)), int32(max(i, j))}
	_, ok := slices.BinarySearchFunc(top.Exclusions, p, func(a, b [2]int32) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	return ok
}

func TestBuildExclusionsIdempotentish(t *testing.T) {
	top := chainTopology()
	top.BuildExclusions()
	n := len(top.Exclusions)
	p := len(top.Pairs14)
	top.BuildExclusions()
	if len(top.Exclusions) != n {
		t.Errorf("exclusion count changed on rebuild: %d -> %d", n, len(top.Exclusions))
	}
	// Pairs14 is deduplicated within one build; the second build finds the
	// same physical pairs again but must not create interacting duplicates
	// of excluded pairs.
	if len(top.Pairs14) != p {
		t.Errorf("Pairs14 grew on rebuild: %d -> %d", p, len(top.Pairs14))
	}
}

func TestConstraintGroups(t *testing.T) {
	top := &Topology{Atoms: make([]Atom, 9)}
	for i := range top.Atoms {
		top.Atoms[i].Mass = 1
	}
	// Two disjoint groups: {0,1,2} (water-like triangle) and {5,6}.
	top.Constraints = []Constraint{
		{I: 0, J: 1, R: 1}, {I: 0, J: 2, R: 1}, {I: 1, J: 2, R: 1.5},
		{I: 5, J: 6, R: 1.1},
	}
	groups := top.ConstraintGroups()
	if len(groups) != 2 {
		t.Fatalf("groups: got %d, want 2: %v", len(groups), groups)
	}
	if !equalInts(groups[0], []int{0, 1, 2}) || !equalInts(groups[1], []int{5, 6}) {
		t.Errorf("groups wrong: %v", groups)
	}
}

func TestConstraintGroupsIncludeVSites(t *testing.T) {
	top := &Topology{}
	p := &ParamSet{}
	AddWater(top, p, TIP4PEw, vec.Zero, vec.V3{X: 1}, vec.V3{Y: 1}, 0)
	top.BuildExclusions()
	groups := top.ConstraintGroups()
	if len(groups) != 1 || len(groups[0]) != 4 {
		t.Fatalf("TIP4P-Ew group: got %v, want one group of 4", groups)
	}
}

func TestDegreesOfFreedom(t *testing.T) {
	top := &Topology{}
	p := &ParamSet{}
	for i := 0; i < 10; i++ {
		AddWater(top, p, TIP3P, vec.V3{X: float64(i) * 3}, vec.V3{X: 1}, vec.V3{Y: 1}, i)
	}
	// 30 massive atoms * 3 - 30 constraints - 3 = 57.
	if got := top.DegreesOfFreedom(); got != 57 {
		t.Errorf("DoF: got %d, want 57", got)
	}
}

func TestValidate(t *testing.T) {
	top := chainTopology()
	if err := top.Validate(); err != nil {
		t.Errorf("valid topology rejected: %v", err)
	}
	bad := chainTopology()
	bad.Bonds[0].J = 99
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range bond accepted")
	}
	bad2 := chainTopology()
	bad2.Bonds[0].R0 = -1
	if err := bad2.Validate(); err == nil {
		t.Error("negative R0 accepted")
	}
	bad3 := chainTopology()
	bad3.Dihedrals = []Dihedral{{I: 0, J: 1, K: 2, L: 3, N: 9}}
	if err := bad3.Validate(); err == nil {
		t.Error("periodicity 9 accepted")
	}
}

func TestTotalChargeAndMass(t *testing.T) {
	top := &Topology{}
	p := &ParamSet{}
	AddWater(top, p, TIP3P, vec.Zero, vec.V3{X: 1}, vec.V3{Y: 1}, 0)
	if q := top.TotalCharge(); math.Abs(q) > 1e-12 {
		t.Errorf("water not neutral: %g", q)
	}
	wantM := MassO + 2*MassH
	if m := top.TotalMass(); math.Abs(m-wantM) > 1e-9 {
		t.Errorf("mass: got %g, want %g", m, wantM)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
