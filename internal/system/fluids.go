package system

import (
	"fmt"
	"math/rand"

	"anton/internal/ff"
	"anton/internal/vec"
)

// IonicFluid builds a neutral fluid of nPairs (+1, -1) ion pairs with
// LJ cores and no bonds, constraints or virtual sites — the simplest
// system exercising every force path (range-limited, mesh, none of the
// correction terms) while remaining exactly time-reversible on the Anton
// engine (no SHAKE).
func IonicFluid(nPairs int, side float64, cutoff float64, mesh int, seed int64) (*System, error) {
	if nPairs < 1 {
		return nil, fmt.Errorf("system: need at least one ion pair")
	}
	box := vec.Cube(side)
	rng := rand.New(rand.NewSource(seed))
	top := &ff.Topology{Scale14Elec: 1, Scale14LJ: 1}
	params := &ff.ParamSet{}
	ljP := ensure(params, "cation", 3.3, 0.10)
	ljM := ensure(params, "anion", 4.4, 0.10)

	n := 2 * nPairs
	r := make([]vec.V3, 0, n)
	occ := newClashGrid(box, 3.0)
	// Jittered lattice placement, alternating charges.
	lat := 1
	for lat*lat*lat < n {
		lat++
	}
	a := side / float64(lat)
	placed := 0
	for k := 0; k < lat && placed < n; k++ {
		for j := 0; j < lat && placed < n; j++ {
			for i := 0; i < lat && placed < n; i++ {
				p := vec.V3{
					X: (float64(i)+0.5)*a + (rng.Float64()-0.5)*0.3,
					Y: (float64(j)+0.5)*a + (rng.Float64()-0.5)*0.3,
					Z: (float64(k)+0.5)*a + (rng.Float64()-0.5)*0.3,
				}
				p = box.Wrap(p)
				if occ.near(p, 2.4) {
					continue
				}
				q := 1.0
				lj := ljP
				name := "NA"
				mass := 22.99
				if placed%2 == 1 {
					q, lj, name, mass = -1.0, ljM, "CL", ff.MassCl
				}
				top.Atoms = append(top.Atoms, ff.Atom{
					Name: name, Mass: mass, Charge: q, LJType: lj, Residue: placed,
				})
				r = append(r, p)
				occ.add(p)
				placed++
			}
		}
	}
	if placed < n {
		return nil, fmt.Errorf("system: placed only %d of %d ions", placed, n)
	}
	top.BuildExclusions()
	return &System{
		Name:    fmt.Sprintf("ionic-%d", nPairs),
		Top:     top,
		Params:  params,
		Box:     box,
		R:       r,
		Cutoff:  cutoff,
		Mesh:    mesh,
		RSpread: RSpreadFor(cutoff),
	}, nil
}
