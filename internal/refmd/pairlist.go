// Package refmd implements a complete reference MD engine of the kind the
// paper benchmarks against (GROMACS/Desmond-class, §3.1 Table 2 and §5.1):
// double-precision floating point, O(N) cell lists feeding a Verlet pair
// list with a skin, SPME (or exact Ewald) long-range electrostatics,
// velocity-Verlet integration with SHAKE/RATTLE constraints and rigid
// water, a Berendsen thermostat, and RESPA-style multiple time stepping.
// It provides the force-error reference (§5.2), the x86 execution-profile
// shape (Table 2's left columns), and the cross-engine check for the
// Anton engine in internal/core.
package refmd

import (
	"math"
	"slices"

	"anton/internal/vec"
)

// PairList is a Verlet neighbor list built from a cell decomposition. It
// stores half the pairs (i < j) within cutoff+skin, excluding topological
// exclusions and scaled 1-4 pairs (those are handled analytically).
type PairList struct {
	Cutoff float64
	Skin   float64

	pairs   [][2]int32
	refPos  []vec.V3 // positions at build time, for displacement tracking
	maxDisp float64
}

// NewPairList creates a pair list manager.
func NewPairList(cutoff, skin float64) *PairList {
	return &PairList{Cutoff: cutoff, Skin: skin}
}

// Pairs returns the current pair set.
func (pl *PairList) Pairs() [][2]int32 { return pl.pairs }

// NeedsRebuild reports whether any atom has moved more than half the skin
// since the last build (the standard safety criterion).
func (pl *PairList) NeedsRebuild(box vec.Box, r []vec.V3) bool {
	if pl.refPos == nil || len(pl.refPos) != len(r) {
		return true
	}
	lim := pl.Skin / 2
	lim2 := lim * lim
	for i := range r {
		if box.Dist2(r[i], pl.refPos[i]) > lim2 {
			return true
		}
	}
	return false
}

// Build reconstructs the pair list with an O(N) cell decomposition. skip
// holds each atom's sorted list of partners to omit (the topology's Skip
// lists: exclusions and 1-4s); nil omits nothing.
func (pl *PairList) Build(box vec.Box, r []vec.V3, skip [][]int32) {
	n := len(r)
	pl.pairs = pl.pairs[:0]
	pl.refPos = append(pl.refPos[:0], r...)

	reach := pl.Cutoff + pl.Skin
	// Cell grid: at least 3 cells per axis for the half-neighbor sweep to
	// be valid; otherwise fall back to the O(N^2) loop (tiny systems).
	nx := int(box.L.X / reach)
	ny := int(box.L.Y / reach)
	nz := int(box.L.Z / reach)
	if nx < 3 || ny < 3 || nz < 3 {
		pl.buildN2(box, r, skip)
		return
	}
	cx, cy, cz := box.L.X/float64(nx), box.L.Y/float64(ny), box.L.Z/float64(nz)
	cells := make([][]int32, nx*ny*nz)
	cellOf := func(p vec.V3) (int, int, int) {
		w := box.Wrap(p)
		i, j, k := int(w.X/cx), int(w.Y/cy), int(w.Z/cz)
		if i >= nx {
			i = nx - 1
		}
		if j >= ny {
			j = ny - 1
		}
		if k >= nz {
			k = nz - 1
		}
		return i, j, k
	}
	lin := func(i, j, k int) int { return (k*ny+j)*nx + i }
	for a := 0; a < n; a++ {
		i, j, k := cellOf(r[a])
		cells[lin(i, j, k)] = append(cells[lin(i, j, k)], int32(a))
	}

	reach2 := reach * reach
	// Half-stencil over neighboring cells: each unordered cell pair
	// visited once; within a cell, i<j ordering.
	type off struct{ dx, dy, dz int }
	var stencil []off
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if dz > 0 || (dz == 0 && dy > 0) || (dz == 0 && dy == 0 && dx > 0) {
					stencil = append(stencil, off{dx, dy, dz})
				}
			}
		}
	}
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				home := cells[lin(i, j, k)]
				// Intra-cell pairs.
				for a := 0; a < len(home); a++ {
					for b := a + 1; b < len(home); b++ {
						pl.consider(box, r, home[a], home[b], reach2, skip)
					}
				}
				// Cross-cell pairs over the half stencil.
				for _, o := range stencil {
					ni := (i + o.dx + nx) % nx
					nj := (j + o.dy + ny) % ny
					nk := (k + o.dz + nz) % nz
					other := cells[lin(ni, nj, nk)]
					for _, a := range home {
						for _, b := range other {
							pl.consider(box, r, a, b, reach2, skip)
						}
					}
				}
			}
		}
	}
}

func (pl *PairList) consider(box vec.Box, r []vec.V3, a, b int32, reach2 float64, skip [][]int32) {
	if box.Dist2(r[a], r[b]) > reach2 {
		return
	}
	i, j := a, b
	if i > j {
		i, j = j, i
	}
	if skipped(skip, i, j) {
		return
	}
	pl.pairs = append(pl.pairs, [2]int32{i, j})
}

func (pl *PairList) buildN2(box vec.Box, r []vec.V3, skip [][]int32) {
	reach2 := (pl.Cutoff + pl.Skin) * (pl.Cutoff + pl.Skin)
	n := len(r)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if box.Dist2(r[i], r[j]) > reach2 {
				continue
			}
			if skipped(skip, int32(i), int32(j)) {
				continue
			}
			pl.pairs = append(pl.pairs, [2]int32{int32(i), int32(j)})
		}
	}
}

// skipped reports whether j is on i's skip list.
func skipped(skip [][]int32, i, j int32) bool {
	if skip == nil {
		return false
	}
	_, ok := slices.BinarySearch(skip[i], j)
	return ok
}

// MeanPairsPerAtom returns the average half-list length per atom, a
// workload statistic for the performance models.
func (pl *PairList) MeanPairsPerAtom() float64 {
	if len(pl.refPos) == 0 {
		return 0
	}
	return float64(len(pl.pairs)) / float64(len(pl.refPos))
}

// ExpectedPairsPerAtom returns the analytic half-count of pairs within the
// cutoff for a uniform density rho: (2*pi/3)*rho*rc^3.
func ExpectedPairsPerAtom(rho, rc float64) float64 {
	return 2 * math.Pi / 3 * rho * rc * rc * rc
}
