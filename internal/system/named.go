package system

import (
	"fmt"
	"sort"

	"anton/internal/ff"
)

// Named specs reproduce the paper's benchmark systems exactly by particle
// count, box size, cutoff and mesh (Table 4, section 5.3). Protein atom
// counts are chosen so the remainder divides into whole water molecules;
// where the real protein size is known (DHFR 2489 atoms, BPTI 892 atoms +
// 6 Cl-) the real value is used.
var catalog = map[string]Spec{
	"gpW": {
		Name: "gpW", TotalAtoms: 9865, Side: 46.8, Cutoff: 10.5, Mesh: 32,
		ProteinAtoms: 862, Model: ff.TIP3P, Seed: 101,
	},
	"DHFR": {
		Name: "DHFR", TotalAtoms: 23558, Side: 62.2, Cutoff: 13.0, Mesh: 32,
		ProteinAtoms: 2489, Model: ff.TIP3P, Seed: 102,
	},
	"aSFP": {
		Name: "aSFP", TotalAtoms: 48423, Side: 78.8, Cutoff: 15.5, Mesh: 32,
		ProteinAtoms: 1743, Model: ff.TIP3P, Seed: 103,
	},
	"NADHOx": {
		Name: "NADHOx", TotalAtoms: 78017, Side: 92.6, Cutoff: 10.5, Mesh: 64,
		ProteinAtoms: 3002, Model: ff.TIP3P, Seed: 104,
	},
	"FtsZ": {
		Name: "FtsZ", TotalAtoms: 98236, Side: 99.8, Cutoff: 11.0, Mesh: 64,
		ProteinAtoms: 5350, Model: ff.TIP3P, Seed: 105,
	},
	"T7Lig": {
		Name: "T7Lig", TotalAtoms: 116650, Side: 105.6, Cutoff: 11.0, Mesh: 64,
		ProteinAtoms: 5602, Model: ff.TIP3P, Seed: 106,
	},
	// BPTI, the millisecond system (section 5.3): 17,758 particles = 892
	// protein atoms + 6 chloride ions + 4215 TIP4P-Ew waters x 4 sites,
	// 51.3-Å cube, 10.4-Å cutoff, 32^3 mesh.
	"BPTI": {
		Name: "BPTI", TotalAtoms: 17758, Side: 51.3, Cutoff: 10.4, Mesh: 32,
		ProteinAtoms: 892, Ions: 6, Model: ff.TIP4PEw, Seed: 107,
	},
	// GB3, the 55-residue order-parameter benchmark (Figure 6).
	"GB3": {
		Name: "GB3", TotalAtoms: 4999, Side: 36.5, Cutoff: 10.0, Mesh: 32,
		ProteinAtoms: 605, Ions: 2, Model: ff.TIP3P, Seed: 108,
	},
}

// Names lists the available named systems in a stable order.
func Names() []string {
	out := make([]string, 0, len(catalog))
	for n := range catalog {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Table4Names lists the six protein systems of Table 4/Figure 5 in the
// paper's size order.
func Table4Names() []string {
	return []string{"gpW", "DHFR", "aSFP", "NADHOx", "FtsZ", "T7Lig"}
}

// Accepted lists every name ByName builds: the catalog (Names), then
// "small", the fast demo system Small(true, 1), which is not a paper
// system and so not in Names.
func Accepted() []string { return append(Names(), "small") }

// ByName builds the named system (any of Accepted).
func ByName(name string) (*System, error) {
	spec, ok := SpecFor(name)
	if !ok {
		return nil, fmt.Errorf("system: unknown system %q (have %v)", name, Accepted())
	}
	return Build(spec)
}

// SpecFor returns the spec ByName builds for name (for inspection without
// the cost of building it), and whether the name is accepted.
func SpecFor(name string) (Spec, bool) {
	if name == "small" {
		return smallSpec(true, 1), true
	}
	s, ok := catalog[name]
	return s, ok
}

// Small builds a reduced system for fast tests: a water box with an
// optional mini-protein, a few hundred atoms.
func Small(protein bool, seed int64) (*System, error) {
	return Build(smallSpec(protein, seed))
}

func smallSpec(protein bool, seed int64) Spec {
	spec := Spec{
		Name: "small", TotalAtoms: 645, Side: 18.6, Cutoff: 7.0, Mesh: 16,
		Model: ff.TIP3P, Seed: seed,
	}
	if protein {
		spec.Name = "small-protein"
		spec.ProteinAtoms = 45 // 4 residues + 1 cap
	}
	return spec
}
