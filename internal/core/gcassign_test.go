package core

import (
	"testing"

	"anton/internal/machine"
)

// checkSpansGCs fails unless every node of the assignment has exactly
// machine.NumGCs geometry cores.
func checkSpansGCs(t *testing.T, a *GCAssignment) {
	t.Helper()
	for n, gcs := range a.load {
		if len(gcs) != machine.NumGCs {
			t.Fatalf("node %d spans %d GCs, want machine.NumGCs = %d", n, len(gcs), machine.NumGCs)
		}
	}
}

func TestAssignBondTermsCoversAllTerms(t *testing.T) {
	e := smallWaterEngine(t, 8, nil)
	top := e.Sys.Top
	a := AssignBondTerms(top, e.boxOf, e.grid)
	want := len(top.Bonds) + len(top.Angles) + len(top.Dihedrals) + len(top.Impropers)
	if a.Terms() != want {
		t.Fatalf("terms assigned: %d, want %d", a.Terms(), want)
	}
	checkSpansGCs(t, a)
	// Total load equals the summed term costs.
	wantLoad := len(top.Bonds)*2 + len(top.Angles)*3 + (len(top.Dihedrals)+len(top.Impropers))*5
	total := 0
	for n := 0; n < e.grid.NumBoxes(); n++ {
		total += a.NodeLoad(n)
	}
	if total != wantLoad {
		t.Errorf("total load %d, want %d", total, wantLoad)
	}
}

func TestAssignBondTermsBalanced(t *testing.T) {
	// Greedy LPT keeps the worst GC within ~2x of the mean (and typically
	// much closer) — the §3.2.3 objective of minimizing worst-case load.
	e := smallWaterEngine(t, 1, nil) // one node: all terms on its GCs
	a := AssignBondTerms(e.Sys.Top, e.boxOf, e.grid)
	checkSpansGCs(t, a)
	s := a.Stats()
	if s.Imbalance > 1.5 {
		t.Errorf("GC imbalance %.2f too high (worst %d, mean %.1f)", s.Imbalance, s.WorstGC, s.MeanGC)
	}
}

func TestBondDestinationsAreDeduplicated(t *testing.T) {
	e := smallWaterEngine(t, 8, nil)
	a := AssignBondTerms(e.Sys.Top, e.boxOf, e.grid)
	for atom := 0; atom < e.Sys.NAtoms(); atom++ {
		seen := map[int32]bool{}
		for _, d := range a.BondDestinations(atom) {
			if seen[d] {
				t.Fatalf("atom %d has duplicate destination %d", atom, d)
			}
			seen[d] = true
		}
	}
	// Atoms with bonded terms have at least one destination; pure water
	// systems have none (constraints are not bonded terms).
	protein := 0
	for atom := 0; atom < e.Sys.ProteinAtoms; atom++ {
		if len(a.BondDestinations(atom)) > 0 {
			protein++
		}
	}
	if protein == 0 {
		t.Error("no protein atom has bond destinations")
	}
}

func TestCommReport(t *testing.T) {
	e := smallWaterEngine(t, 8, nil)
	rep, err := e.Comm()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ImportStats.Messages == 0 {
		t.Error("no import messages")
	}
	if rep.ExportStats.Messages == 0 {
		t.Error("no export messages")
	}
	if rep.MessagesPerNode <= 0 {
		t.Error("no per-node message estimate")
	}
	// The paper: thousands of messages per ASIC per step (for real-sized
	// systems; the small demo box lands lower but must be substantial).
	if rep.MessagesPerNode < 50 {
		t.Errorf("messages per node %.0f implausibly low", rep.MessagesPerNode)
	}
	if rep.String() == "" {
		t.Error("empty report")
	}
}
