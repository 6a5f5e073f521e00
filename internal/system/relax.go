package system

import (
	"sort"

	"anton/internal/ff"
	"anton/internal/vec"
)

// cellIndex is a non-periodic cell list over a set of positions: cell
// (a, b, c) holds, in ascending order, the atoms whose position p has
// int(p.X/d) == a, int(p.Y/d) == b and int(p.Z/d) == c. The keys
// truncate toward zero, so the cells straddling 0 are twice as wide; the
// relaxation's pushes, and so the built geometry, depend on exactly these
// cells and this order.
type cellIndex struct {
	d     float64
	lo, n [3]int
	start []int32 // cell l's atoms are atoms[start[l]:start[l+1]]
	atoms []int32
}

func (c *cellIndex) key(p vec.V3) [3]int {
	return [3]int{int(p.X / c.d), int(p.Y / c.d), int(p.Z / c.d)}
}

// newCellIndex indexes r on a d-sized grid spanning r's cells.
func newCellIndex(r []vec.V3, d float64) *cellIndex {
	c := &cellIndex{d: d}
	keys := make([][3]int, len(r))
	var hi [3]int
	for i, p := range r {
		keys[i] = c.key(p)
		for a, k := range keys[i] {
			if i == 0 || k < c.lo[a] {
				c.lo[a] = k
			}
			if i == 0 || k > hi[a] {
				hi[a] = k
			}
		}
	}
	for a := range c.n {
		c.n[a] = hi[a] - c.lo[a] + 1
	}
	cells := c.n[0] * c.n[1] * c.n[2]
	c.start = make([]int32, cells+1)
	for _, k := range keys {
		c.start[c.lin(k)+1]++
	}
	for l := 0; l < cells; l++ {
		c.start[l+1] += c.start[l]
	}
	c.atoms = make([]int32, len(r))
	fill := append([]int32(nil), c.start[:cells]...)
	for i, k := range keys {
		l := c.lin(k)
		c.atoms[fill[l]] = int32(i)
		fill[l]++
	}
	return c
}

// lin is the cell number of key k, or -1 outside the indexed range.
func (c *cellIndex) lin(k [3]int) int {
	for a := range k {
		k[a] -= c.lo[a]
		if k[a] < 0 || k[a] >= c.n[a] {
			return -1
		}
	}
	return (k[0]*c.n[1]+k[1])*c.n[2] + k[2]
}

// near calls fn for every atom in the 27 cells around p's cell, walking
// the offsets dx, dy, dz from -1 to 1 (dz fastest) and each cell in
// ascending order.
func (c *cellIndex) near(p vec.V3, fn func(j int)) {
	k := c.key(p)
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				l := c.lin([3]int{k[0] + dx, k[1] + dy, k[2] + dz})
				if l < 0 {
					continue
				}
				for _, j := range c.atoms[c.start[l]:c.start[l+1]] {
					fn(int(j))
				}
			}
		}
	}
}

// covalentNeighbors reports whether atoms i and j are within two
// covalent bonds of each other (1-2 or 1-3), pairs the clash relaxation
// leaves alone.
func covalentNeighbors(adj [][]int, i, j int) bool {
	for _, a := range adj[i] {
		if a == j {
			return true
		}
		for _, b := range adj[j] {
			if a == b {
				return true
			}
		}
	}
	return false
}

// relaxHydrogens resolves remaining hydrogen clashes by rotating each
// hydrogen about its parent heavy atom (preserving the X-H distance that
// the constraints will be derived from): the hydrogen is pushed away from
// clash partners and re-projected onto its bond sphere. Each constraint
// joins a parent I to its hydrogen J; the hydrogens are visited in
// constraint order, which is ascending.
func relaxHydrogens(r []vec.V3, adj [][]int, cons []ff.Constraint, dmin float64, maxIter int) {
	for iter := 0; iter < maxIter; iter++ {
		cells := newCellIndex(r, dmin)
		moved := false
		for _, c := range cons {
			h, parent := c.J, c.I
			bondLen := vec.Dist(r[h], r[parent])
			var push vec.V3
			cells.near(r[h], func(j int) {
				if j == h {
					return
				}
				d := r[h].Sub(r[j])
				dist := d.Norm()
				if dist >= dmin || dist < 1e-9 || covalentNeighbors(adj, h, j) {
					return
				}
				push = push.Add(d.Scale((dmin - dist) / dist))
			})
			if push.Norm() == 0 {
				continue
			}
			moved = true
			// Push, then re-project onto the bond sphere around the parent.
			cand := r[h].Add(push.Scale(0.5))
			dir := cand.Sub(r[parent])
			if dn := dir.Norm(); dn > 1e-9 {
				r[h] = r[parent].Add(dir.Scale(bondLen / dn))
			}
		}
		if !moved {
			return
		}
	}
}

// relaxProteinClashes iteratively pushes apart non-neighbor atom pairs
// closer than dmin, moving both atoms symmetrically along their axis.
// Hydrogens (each constraint's J) take no part — they are repositioned
// rigidly by the caller afterwards. After every sweep the bonds are
// restored to their R0, so the pushes cannot stretch or collapse the
// covalent skeleton. Deterministic: pairs are processed in sorted order
// each sweep.
func relaxProteinClashes(r []vec.V3, adj [][]int, bonds []ff.Bond, cons []ff.Constraint, dmin float64, maxIter int) {
	isH := make([]bool, len(r))
	for _, c := range cons {
		isH[c.J] = true
	}
	restoreBonds := func() {
		for pass := 0; pass < 8; pass++ {
			for _, b := range bonds {
				d := r[b.J].Sub(r[b.I])
				dist := d.Norm()
				if dist < 1e-9 {
					d = vec.V3{X: 1}
					dist = 1
				}
				corr := (b.R0 - dist) / 2
				u := d.Scale(1 / dist)
				r[b.I] = r[b.I].Sub(u.Scale(corr))
				r[b.J] = r[b.J].Add(u.Scale(corr))
			}
		}
	}
	type clash struct{ i, j int }
	var clashes []clash
	for iter := 0; iter < maxIter; iter++ {
		cells := newCellIndex(r, dmin)
		clashes = clashes[:0]
		for i := range r {
			if isH[i] {
				continue
			}
			cells.near(r[i], func(j int) {
				if j > i && !isH[j] && vec.Dist2(r[i], r[j]) < dmin*dmin && !covalentNeighbors(adj, i, j) {
					clashes = append(clashes, clash{i, j})
				}
			})
		}
		if len(clashes) == 0 {
			restoreBonds()
			return
		}
		sort.Slice(clashes, func(a, b int) bool {
			if clashes[a].i != clashes[b].i {
				return clashes[a].i < clashes[b].i
			}
			return clashes[a].j < clashes[b].j
		})
		for _, c := range clashes {
			d := r[c.j].Sub(r[c.i])
			dist := d.Norm()
			if dist < 1e-6 {
				// Coincident: separate along a fixed axis.
				d = vec.V3{X: 1}
				dist = 1
			}
			push := (dmin - dist) / 2 * 1.05
			if push <= 0 {
				continue
			}
			u := d.Scale(1 / dist)
			r[c.i] = r[c.i].Sub(u.Scale(push))
			r[c.j] = r[c.j].Add(u.Scale(push))
		}
		restoreBonds()
	}
}
