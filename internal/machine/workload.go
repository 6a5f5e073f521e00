package machine

import (
	"anton/internal/ff"
	"anton/internal/system"
)

// WorkloadFromSystem derives the exact per-step workload statistics from a
// built system, with the paper's standard 2.5-fs step and long-range
// evaluation every other step (Table 4).
func WorkloadFromSystem(s *system.System) Workload {
	charged := 0
	for _, a := range s.Top.Atoms {
		if a.Charge != 0 {
			charged++
		}
	}
	return Workload{
		Atoms:        s.NAtoms(),
		ChargedAtoms: charged,
		Side:         s.Box.L.X,
		Cutoff:       s.Cutoff,
		Mesh:         s.Mesh,
		RSpread:      s.RSpread,
		BondTerms:    len(s.Top.Bonds) + len(s.Top.Angles) + len(s.Top.Dihedrals) + len(s.Top.Impropers),
		Exclusions:   s.Top.NumExclusions(),
		Dt:           2.5,
		MTSInterval:  2,
	}
}

// WorkloadFromSpec estimates the workload analytically from a system spec
// without paying the cost of building it — per-residue topology statistics
// of the synthetic protein plus per-molecule water counts.
func WorkloadFromSpec(spec system.Spec) Workload {
	sites := spec.Model.SitesPerMolecule()
	waters := (spec.TotalAtoms - spec.ProteinAtoms - spec.Ions) / sites
	residues := spec.ProteinAtoms / system.AtomsPerResidue

	// Synthetic residue statistics: ~6 heavy bonds, ~16 angles and 2
	// torsions per residue; ~27 exclusions. Waters: 3 intra exclusions
	// (plus 3 vsite exclusions for 4-site models), no bond terms.
	bondTerms := residues * 24
	exclusions := residues*27 + waters*3
	charged := spec.ProteinAtoms + waters*3 // protein fully charged; 3 charged sites/water
	if spec.Model == ff.TIP4PEw {
		exclusions += waters * 3
	}
	return Workload{
		Atoms:        spec.TotalAtoms,
		ChargedAtoms: charged + spec.Ions,
		Side:         spec.Side,
		Cutoff:       spec.Cutoff,
		Mesh:         spec.Mesh,
		RSpread:      system.RSpreadFor(spec.Cutoff),
		BondTerms:    bondTerms,
		Exclusions:   exclusions,
		Dt:           2.5,
		MTSInterval:  2,
	}
}
