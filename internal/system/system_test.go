package system

import (
	"math"
	"math/rand"
	"testing"

	"anton/internal/ff"
	"anton/internal/vec"
)

func TestSmallSystemBuilds(t *testing.T) {
	for _, protein := range []bool{false, true} {
		s, err := Small(protein, 1)
		if err != nil {
			t.Fatalf("Small(%v): %v", protein, err)
		}
		if s.NAtoms() != 645 {
			t.Errorf("atoms: got %d, want 645", s.NAtoms())
		}
		if len(s.R) != s.NAtoms() {
			t.Errorf("positions %d != atoms %d", len(s.R), s.NAtoms())
		}
		if q := s.Top.TotalCharge(); math.Abs(q) > 1e-9 {
			t.Errorf("net charge %g", q)
		}
	}
}

func TestNamedSystemsMatchPaperCounts(t *testing.T) {
	// Particle counts and box sizes from Table 4 and section 5.3.
	want := map[string]struct {
		atoms int
		side  float64
	}{
		"gpW":    {9865, 46.8},
		"DHFR":   {23558, 62.2},
		"aSFP":   {48423, 78.8},
		"NADHOx": {78017, 92.6},
		"FtsZ":   {98236, 99.8},
		"T7Lig":  {116650, 105.6},
		"BPTI":   {17758, 51.3},
	}
	for name, w := range want {
		spec, ok := SpecFor(name)
		if !ok {
			t.Fatalf("missing system %s", name)
		}
		if spec.TotalAtoms != w.atoms || spec.Side != w.side {
			t.Errorf("%s: spec %d/%g, want %d/%g", name, spec.TotalAtoms, spec.Side, w.atoms, w.side)
		}
	}
}

func TestBuildGpW(t *testing.T) {
	s, err := ByName("gpW")
	if err != nil {
		t.Fatal(err)
	}
	if s.NAtoms() != 9865 {
		t.Fatalf("gpW atoms: got %d, want 9865", s.NAtoms())
	}
	if s.Waters != 3001 || s.ProteinAtoms != 862 {
		t.Errorf("composition: %d waters, %d protein atoms", s.Waters, s.ProteinAtoms)
	}
	// Positions are inside the box.
	for i, p := range s.R {
		if p.X < 0 || p.X >= s.Box.L.X || p.Y < 0 || p.Y >= s.Box.L.Y || p.Z < 0 || p.Z >= s.Box.L.Z {
			t.Fatalf("atom %d outside box: %v", i, p)
		}
	}
	// Water density in the free volume is near liquid density.
	density := float64(s.Waters) / (s.Box.Volume() - float64(s.ProteinAtoms)/0.14)
	if density < 0.8*WaterNumberDensity || density > 1.2*WaterNumberDensity {
		t.Errorf("water density %g far from %g", density, WaterNumberDensity)
	}
}

func TestBuildBPTIComposition(t *testing.T) {
	// The paper's exact composition: 892 protein atoms, 6 chloride ions,
	// 4215 four-site waters (section 5.3).
	s, err := ByName("BPTI")
	if err != nil {
		t.Fatal(err)
	}
	if s.ProteinAtoms != 892 || s.Ions != 6 || s.Waters != 4215 {
		t.Errorf("BPTI: protein %d ions %d waters %d", s.ProteinAtoms, s.Ions, s.Waters)
	}
	if s.Model != ff.TIP4PEw {
		t.Error("BPTI must use TIP4P-Ew")
	}
	if s.NAtoms() != 17758 {
		t.Errorf("BPTI particles: %d", s.NAtoms())
	}
	if q := s.Top.TotalCharge(); math.Abs(q) > 1e-9 {
		t.Errorf("BPTI net charge %g (protein +6 should balance 6 Cl-)", q)
	}
	// Virtual sites: one per water.
	if len(s.Top.VSites) != 4215 {
		t.Errorf("vsites: %d", len(s.Top.VSites))
	}
}

func TestProteinTopologyConsistency(t *testing.T) {
	s, err := Small(true, 3)
	if err != nil {
		t.Fatal(err)
	}
	top := s.Top
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every bond's equilibrium matches the built geometry.
	for _, b := range top.Bonds {
		d := s.Box.Dist(s.R[b.I], s.R[b.J])
		if math.Abs(d-b.R0) > 1e-9 {
			t.Fatalf("bond (%d,%d): geometry %g vs R0 %g", b.I, b.J, d, b.R0)
		}
	}
	// Every angle too.
	for _, a := range top.Angles {
		th := vec.Angle(
			s.Box.MinImage(s.R[a.I].Sub(s.R[a.J])),
			vec.Zero,
			s.Box.MinImage(s.R[a.K].Sub(s.R[a.J])))
		if math.Abs(th-a.Theta0) > 1e-9 {
			t.Fatalf("angle (%d,%d,%d): geometry %g vs Theta0 %g", a.I, a.J, a.K, th, a.Theta0)
		}
	}
	// Initial bonded energy is essentially zero (relaxed geometry), and
	// dihedrals are at their minima.
	e := ff.BondedEnergy(top, s.Box, s.R)
	if e > 1e-6*float64(len(top.Bonds)+len(top.Angles)+1) {
		t.Errorf("initial bonded energy %g not relaxed", e)
	}
}

func TestProteinHydrogensConstrained(t *testing.T) {
	s, err := Small(true, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range s.Top.Bonds {
		if s.Top.Atoms[b.I].Name[0] == 'H' || s.Top.Atoms[b.J].Name[0] == 'H' {
			t.Fatalf("bond (%d,%d) to hydrogen should be a constraint", b.I, b.J)
		}
	}
	// And constraints to H exist.
	nH := 0
	for _, c := range s.Top.Constraints {
		if s.Top.Atoms[c.I].Name[0] == 'H' || s.Top.Atoms[c.J].Name[0] == 'H' {
			nH++
		}
	}
	if nH == 0 {
		t.Error("no hydrogen constraints found")
	}
}

func TestNoInitialClashes(t *testing.T) {
	s, err := Small(true, 7)
	if err != nil {
		t.Fatal(err)
	}
	// No nonbonded (non-excluded, different-residue) pair should start
	// closer than ~1.6 Å.
	excluded := make(map[[2]int32]bool, len(s.Top.Exclusions))
	for _, p := range s.Top.Exclusions {
		excluded[p] = true
	}
	minD := math.Inf(1)
	for i := 0; i < s.NAtoms(); i++ {
		for j := i + 1; j < s.NAtoms(); j++ {
			if s.Top.Atoms[i].Residue == s.Top.Atoms[j].Residue {
				continue
			}
			if excluded[[2]int32{int32(i), int32(j)}] {
				continue
			}
			if d := s.Box.Dist(s.R[i], s.R[j]); d < minD {
				minD = d
			}
		}
	}
	if minD < 1.45 {
		t.Errorf("closest nonbonded inter-residue contact %g Å — clash", minD)
	}
}

func TestInitVelocitiesTemperature(t *testing.T) {
	s, err := Small(false, 9)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	v := InitVelocities(s.Top, 300, rng)
	// Kinetic temperature ~300 K: KE = (3N-3)/2 kT for unconstrained
	// counting (constraints are applied later; the raw draw is 3N-3 DoF).
	ke := 0.0
	nDof := 0
	for i, a := range s.Top.Atoms {
		if a.Mass == 0 {
			continue
		}
		ke += 0.5 * ff.VelToKinetic * a.Mass * v[i].Norm2()
		nDof += 3
	}
	T := 2 * ke / (float64(nDof-3) * ff.KB)
	if math.Abs(T-300) > 25 {
		t.Errorf("initial temperature %g, want ~300", T)
	}
	// Zero net momentum.
	var p vec.V3
	for i, a := range s.Top.Atoms {
		p = p.Add(v[i].Scale(a.Mass))
	}
	if p.Norm() > 1e-9 {
		t.Errorf("net momentum %v", p)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(Spec{Name: "bad", TotalAtoms: 100, Side: 20, Model: ff.TIP3P}); err == nil {
		t.Error("non-divisible atom count accepted")
	}
	if _, err := Build(Spec{Name: "toodense", TotalAtoms: 3000, Side: 10, Model: ff.TIP3P}); err == nil {
		t.Error("over-dense system accepted")
	}
	if _, err := ByName("nonexistent"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Small(true, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Small(true, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.R {
		if a.R[i] != b.R[i] {
			t.Fatalf("position %d differs between identical builds", i)
		}
	}
}

// TestByNameSmall: "small" resolves to Small(true, 1), is accepted by
// SpecFor and listed by Accepted, and stays out of the catalog's listing;
// an unknown name is refused by both.
func TestByNameSmall(t *testing.T) {
	a, err := ByName("small")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Small(true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != b.Name || len(a.R) != len(b.R) {
		t.Fatalf("ByName(small) built %s (%d atoms), want %s (%d)", a.Name, len(a.R), b.Name, len(b.R))
	}
	for i := range a.R {
		if a.R[i] != b.R[i] {
			t.Fatalf("position %d differs from Small(true, 1)", i)
		}
	}
	for _, n := range Names() {
		if n == "small" {
			t.Error("Names lists small")
		}
	}
	if spec, ok := SpecFor("small"); !ok || spec.TotalAtoms != len(a.R) {
		t.Errorf("SpecFor(small) = %+v, %v", spec, ok)
	}
	if acc := Accepted(); acc[len(acc)-1] != "small" || len(acc) != len(Names())+1 {
		t.Errorf("Accepted() = %v", acc)
	}
	if _, ok := SpecFor("nonesuch"); ok {
		t.Error("SpecFor accepted an unknown name")
	}
}

func TestCATraceAndSelections(t *testing.T) {
	s, err := Small(true, 3)
	if err != nil {
		t.Fatal(err)
	}
	cas, err := s.CATrace()
	if err != nil {
		t.Fatal(err)
	}
	nRes := s.ProteinAtoms / AtomsPerResidue
	if len(cas) != nRes {
		t.Fatalf("CA trace: %d, want %d", len(cas), nRes)
	}
	sel, err := s.CASelection()
	if err != nil {
		t.Fatal(err)
	}
	for i, idx := range sel {
		if s.Top.Atoms[idx].Name != "CA" {
			t.Fatalf("selection %d points at %s", i, s.Top.Atoms[idx].Name)
		}
		if s.R[idx] != cas[i] {
			t.Fatalf("trace/selection mismatch at %d", i)
		}
	}
	bonds, err := s.BackboneNHBonds()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bonds {
		if s.Top.Atoms[b[0]].Name != "N" || s.Top.Atoms[b[1]].Name != "HN" {
			t.Fatalf("NH bond names: %s-%s", s.Top.Atoms[b[0]].Name, s.Top.Atoms[b[1]].Name)
		}
	}
	// Water-only systems have no protein selections.
	w, _ := Small(false, 3)
	if _, err := w.CATrace(); err == nil {
		t.Error("water-only CA trace accepted")
	}
}
