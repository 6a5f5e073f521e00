package system

import (
	"math"

	"anton/internal/vec"
)

// clashGrid is a uniform cell grid over the periodic box used to test
// candidate water sites against already-placed atoms.
type clashGrid struct {
	box   vec.Box
	n     [3]int
	cell  [3]float64
	cells [][]vec.V3 // stored atoms per cell, x fastest
}

func newClashGrid(box vec.Box, cellSize float64) *clashGrid {
	g := &clashGrid{box: box}
	dims := [3]float64{box.L.X, box.L.Y, box.L.Z}
	for a := 0; a < 3; a++ {
		g.n[a] = int(math.Max(1, math.Floor(dims[a]/cellSize)))
		g.cell[a] = dims[a] / float64(g.n[a])
	}
	g.cells = make([][]vec.V3, g.n[0]*g.n[1]*g.n[2])
	return g
}

func (g *clashGrid) index(p vec.V3) (int, int, int) {
	w := g.box.Wrap(p)
	i := int(w.X / g.cell[0])
	j := int(w.Y / g.cell[1])
	k := int(w.Z / g.cell[2])
	if i >= g.n[0] {
		i = g.n[0] - 1
	}
	if j >= g.n[1] {
		j = g.n[1] - 1
	}
	if k >= g.n[2] {
		k = g.n[2] - 1
	}
	return i, j, k
}

func (g *clashGrid) lin(i, j, k int) int {
	return (k*g.n[1]+j)*g.n[0] + i
}

func (g *clashGrid) add(p vec.V3) {
	i, j, k := g.index(p)
	l := g.lin(i, j, k)
	g.cells[l] = append(g.cells[l], p)
}

// walk calls fn for each stored atom in the cells within reach of p
// (periodic; the cell size may be below reach, so a radius of cells
// covering it is searched) until fn returns false, and reports whether
// every call returned true.
func (g *clashGrid) walk(p vec.V3, reach float64, fn func(q vec.V3) bool) bool {
	i0, j0, k0 := g.index(p)
	ri := int(math.Ceil(reach / g.cell[0]))
	rj := int(math.Ceil(reach / g.cell[1]))
	rk := int(math.Ceil(reach / g.cell[2]))
	for dk := -rk; dk <= rk; dk++ {
		k := ((k0+dk)%g.n[2] + g.n[2]) % g.n[2]
		for dj := -rj; dj <= rj; dj++ {
			j := ((j0+dj)%g.n[1] + g.n[1]) % g.n[1]
			for di := -ri; di <= ri; di++ {
				i := ((i0+di)%g.n[0] + g.n[0]) % g.n[0]
				for _, q := range g.cells[g.lin(i, j, k)] {
					if !fn(q) {
						return false
					}
				}
			}
		}
	}
	return true
}

// minDist returns the distance from p to the nearest stored atom within
// the search horizon, or horizon if none is closer (periodic).
func (g *clashGrid) minDist(p vec.V3, horizon float64) float64 {
	best := horizon * horizon
	g.walk(p, horizon, func(q vec.V3) bool {
		best = min(best, g.box.Dist2(p, q))
		return true
	})
	return math.Sqrt(best)
}

// near reports whether any stored atom lies within dist of p (periodic).
func (g *clashGrid) near(p vec.V3, dist float64) bool {
	d2 := dist * dist
	return !g.walk(p, dist, func(q vec.V3) bool { return g.box.Dist2(p, q) > d2 })
}
