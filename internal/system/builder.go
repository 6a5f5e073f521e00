package system

import (
	"fmt"
	"math"
	"math/rand"

	"anton/internal/ff"
	"anton/internal/vec"
)

// WaterNumberDensity is liquid water's molecular number density at 300 K,
// molecules/Å^3 (0.997 g/cm^3).
const WaterNumberDensity = 0.0334

// System is a fully assembled chemical system plus the simulation
// parameters the paper used for it (Table 4).
type System struct {
	Name   string
	Top    *ff.Topology
	Params *ff.ParamSet
	Box    vec.Box
	R      []vec.V3 // initial positions (wrapped into the box)

	ProteinAtoms int
	Ions         int
	Waters       int
	Model        ff.WaterModel

	// Paper simulation parameters.
	Cutoff  float64 // range-limited cutoff, Å
	Mesh    int     // FFT mesh points per axis
	RSpread float64 // GSE spreading cutoff, Å
}

// NAtoms returns the total particle count.
func (s *System) NAtoms() int { return s.Top.NAtoms() }

// Spec describes a system to build.
type Spec struct {
	Name         string
	TotalAtoms   int
	Side         float64 // cubic box edge, Å
	Cutoff       float64
	Mesh         int
	ProteinAtoms int // 0 for water-only
	Ions         int // negative counterions; protein carries +Ions
	Model        ff.WaterModel
	Seed         int64
}

// Build assembles the system: protein at the box center (if any), ions
// and water on a jittered lattice filling the rest of the box at liquid
// density, topology exclusions built, and everything wrapped into the
// box.
func Build(spec Spec) (*System, error) {
	sites := spec.Model.SitesPerMolecule()
	waterAtoms := spec.TotalAtoms - spec.ProteinAtoms - spec.Ions
	if waterAtoms < 0 || waterAtoms%sites != 0 {
		return nil, fmt.Errorf("system %s: %d atoms cannot split into protein %d + ions %d + %d-site waters",
			spec.Name, spec.TotalAtoms, spec.ProteinAtoms, spec.Ions, sites)
	}
	nWater := waterAtoms / sites
	box := vec.Cube(spec.Side)
	rng := rand.New(rand.NewSource(spec.Seed))

	top := &ff.Topology{Scale14Elec: 1.0 / 1.2, Scale14LJ: 0.5}
	params := &ff.ParamSet{}
	var r []vec.V3

	center := vec.V3{X: spec.Side / 2, Y: spec.Side / 2, Z: spec.Side / 2}
	if spec.ProteinAtoms > 0 {
		pr := BuildProtein(top, params, spec.ProteinAtoms, center, spec.Ions)
		r = append(r, pr...)
	}

	// Occupancy grid of protein atoms for clash-free water placement.
	occ := newClashGrid(box, 2.6)
	for _, p := range r {
		occ.add(box.Wrap(p))
	}

	// Water lattice: spacing chosen so sites clear of the protein
	// comfortably exceed the required count; the first nWater clash-free
	// sites in scan order are used. If the carve-out around the protein
	// eats too many sites, retry on a denser lattice.
	free := box.Volume() - float64(spec.ProteinAtoms)/0.14 // ~protein atom density
	if free < float64(nWater)/WaterNumberDensity*0.8 {
		return nil, fmt.Errorf("system %s: box too small for %d waters", spec.Name, nWater)
	}
	needed := nWater + spec.Ions
	var cand []vec.V3
	for _, factor := range []float64{0.96, 0.9, 0.84, 0.76} {
		cand = cand[:0]
		spacing := math.Cbrt(free/float64(needed)) * factor
		n := int(spec.Side / spacing)
		if n < 1 {
			n = 1
		}
		actual := spec.Side / float64(n)
		for k := 0; k < n && len(cand) < needed; k++ {
			for j := 0; j < n && len(cand) < needed; j++ {
				for i := 0; i < n && len(cand) < needed; i++ {
					p := vec.V3{
						X: (float64(i) + 0.5) * actual,
						Y: (float64(j) + 0.5) * actual,
						Z: (float64(k) + 0.5) * actual,
					}
					if occ.near(p, 2.3) {
						continue
					}
					cand = append(cand, p)
				}
			}
		}
		if len(cand) >= needed {
			break
		}
	}
	if len(cand) < needed {
		return nil, fmt.Errorf("system %s: found only %d of %d solvent sites", spec.Name, len(cand), needed)
	}
	resID := spec.ProteinAtoms/AtomsPerResidue + 1
	for s := 0; s < needed; s++ {
		// Small jitter breaks lattice artifacts.
		p := cand[s].Add(vec.V3{
			X: (rng.Float64() - 0.5) * 0.3,
			Y: (rng.Float64() - 0.5) * 0.3,
			Z: (rng.Float64() - 0.5) * 0.3,
		})
		if s < spec.Ions {
			top.Atoms = append(top.Atoms, ff.Atom{
				Name: "CL", Mass: ff.MassCl, Charge: -1,
				LJType: ljClass(params, "ION"), Residue: resID,
			})
			r = append(r, p)
			occ.add(box.Wrap(p))
			resID++
			continue
		}
		// Random orientation, retried until the hydrogens clear all
		// previously placed atoms; if no trial clears the threshold, keep
		// the orientation with the largest clearance (a cheap
		// deterministic packing pass).
		var bestU, bestV vec.V3
		bestClear := -1.0
		for try := 0; try < 80; try++ {
			u := randomUnit(rng)
			v := perpUnit(u, rng)
			clear := math.Inf(1)
			for _, gp := range ff.WaterGeometry(spec.Model, p, u, v) {
				if d := occ.minDist(box.Wrap(gp), 2.0); d < clear {
					clear = d
				}
			}
			if clear > bestClear {
				bestU, bestV, bestClear = u, v, clear
			}
			if bestClear >= 1.65 {
				break
			}
		}
		wr := ff.AddWater(top, params, spec.Model, p, bestU, bestV, resID)
		r = append(r, wr...)
		for _, gp := range wr {
			occ.add(box.Wrap(gp))
		}
		resID++
	}

	top.BuildExclusions()
	if err := top.Validate(); err != nil {
		return nil, fmt.Errorf("system %s: %w", spec.Name, err)
	}
	if top.NAtoms() != spec.TotalAtoms {
		return nil, fmt.Errorf("system %s: built %d atoms, want %d", spec.Name, top.NAtoms(), spec.TotalAtoms)
	}
	for i := range r {
		r[i] = box.Wrap(r[i])
	}
	return &System{
		Name:         spec.Name,
		Top:          top,
		Params:       params,
		Box:          box,
		R:            r,
		ProteinAtoms: spec.ProteinAtoms,
		Ions:         spec.Ions,
		Waters:       nWater,
		Model:        spec.Model,
		Cutoff:       spec.Cutoff,
		Mesh:         spec.Mesh,
		RSpread:      RSpreadFor(spec.Cutoff),
	}, nil
}

// RSpreadFor is the charge-spreading cutoff for a range-limited cutoff:
// roughly 0.68 of it, the ratio of the paper's BPTI run (7.1 / 10.4).
// Every system builder, workload model and experiment uses this one rule.
func RSpreadFor(cutoff float64) float64 { return cutoff * 7.1 / 10.4 }

func randomUnit(rng *rand.Rand) vec.V3 {
	for {
		v := vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
		if n := v.Norm(); n > 1e-6 {
			return v.Scale(1 / n)
		}
	}
}

func perpUnit(u vec.V3, rng *rand.Rand) vec.V3 {
	for {
		w := randomUnit(rng)
		p := w.Sub(u.Scale(w.Dot(u)))
		if n := p.Norm(); n > 1e-3 {
			return p.Scale(1 / n)
		}
	}
}
