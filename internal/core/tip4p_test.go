package core

import (
	"math"
	"testing"

	"anton/internal/ff"
	"anton/internal/refmd"
	"anton/internal/system"
)

// tip4pSmall builds a 162-molecule four-site water box.
func tip4pSmall(t *testing.T) *system.System {
	t.Helper()
	s, err := system.Build(system.Spec{
		Name: "tip4p-small", TotalAtoms: 648, Side: 18.2, Cutoff: 7.0, Mesh: 16,
		Model: ff.TIP4PEw, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTIP4PForcesMatchReference exercises the four-site water path (the
// BPTI model of §5.3: massless charged M sites, virtual-site placement
// and force spreading) through both engines and compares forces.
func TestTIP4PForcesMatchReference(t *testing.T) {
	s := tip4pSmall(t)
	if len(s.Top.VSites) != 162 {
		t.Fatalf("expected 162 virtual sites, got %d", len(s.Top.VSites))
	}
	cfg := DefaultConfig(8)
	cfg.MTSInterval = 1
	eng, err := NewEngine(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Step(0)
	antonF := eng.Forces()

	rcfg := refmd.DefaultConfig(s)
	rcfg.Method = refmd.UseGSE
	rcfg.MTSInterval = 1
	ref, err := refmd.NewEngine(s, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.ComputeForces()

	var rms, errSum float64
	n := 0
	for i := range antonF {
		if s.Top.Atoms[i].Mass == 0 {
			continue
		}
		rms += ref.F[i].Norm2()
		errSum += antonF[i].Sub(ref.F[i]).Norm2()
		n++
	}
	rel := math.Sqrt(errSum / rms)
	if rel > 2e-2 {
		t.Errorf("TIP4P force error %.3g of rms", rel)
	}
	// Virtual sites carry no residual force in either engine.
	for _, v := range s.Top.VSites {
		if antonF[v.Site].Norm() != 0 {
			t.Fatalf("vsite %d retains force %v", v.Site, antonF[v.Site])
		}
	}
}

// TestTIP4PDynamicsStable runs short dynamics on the four-site water box:
// the M sites must track their parents and the temperature stay sane.
func TestTIP4PDynamicsStable(t *testing.T) {
	s, err := system.Build(system.Spec{
		Name: "tip4p-dyn", TotalAtoms: 648, Side: 18.2, Cutoff: 7.0, Mesh: 16,
		Model: ff.TIP4PEw, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(s, DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	eng.Step(30)
	if T := eng.Temperature(); T > 2000 || math.IsNaN(T) {
		t.Fatalf("TIP4P box unstable: T = %g", T)
	}
	r := eng.Positions()
	for _, v := range s.Top.VSites {
		d := s.Box.Dist(r[v.I], r[v.Site])
		if math.Abs(d-ff.TIP4PEwDOM) > 1e-6 {
			t.Fatalf("M site %d at %g Å from O, want %g", v.Site, d, ff.TIP4PEwDOM)
		}
	}
}
