package nt

import "math"

// BoxCoord identifies a home box (equivalently a node) on the 3D torus.
type BoxCoord struct{ X, Y, Z int }

// Grid is the dimensions of the box/node grid.
type Grid struct{ Nx, Ny, Nz int }

// NumBoxes returns the total number of boxes.
func (g Grid) NumBoxes() int { return g.Nx * g.Ny * g.Nz }

// Index linearizes a box coordinate.
func (g Grid) Index(c BoxCoord) int { return (c.Z*g.Ny+c.Y)*g.Nx + c.X }

// Coord inverts Index.
func (g Grid) Coord(i int) BoxCoord {
	return BoxCoord{X: i % g.Nx, Y: (i / g.Nx) % g.Ny, Z: i / (g.Nx * g.Ny)}
}

// Wrap reduces a coordinate onto the torus.
func (g Grid) Wrap(c BoxCoord) BoxCoord {
	return BoxCoord{X: modInt(c.X, g.Nx), Y: modInt(c.Y, g.Ny), Z: modInt(c.Z, g.Nz)}
}

func modInt(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}

// wrapDelta returns the signed toroidal displacement from a to b in
// (-n/2, n/2]; for even n the ambiguous n/2 offset canonicalizes to +n/2.
func wrapDelta(a, b, n int) int {
	d := modInt(b-a, n)
	if d > n/2 {
		d -= n
	}
	return d
}

// AssignPairNode returns the box (node) responsible for computing
// interactions between atoms homed in boxes a and b under the NT method:
// the node whose (x, y) matches the *tower* box and whose z matches the
// *plate* box. The canonical upper-half-plane rule on the xy displacement
// decides which of the two boxes plays the tower role, so every unordered
// box pair maps to exactly one node. For a == b the box itself computes
// its internal interactions.
func AssignPairNode(g Grid, a, b BoxCoord) BoxCoord {
	ab := inHalfPlane(wrapDelta(a.X, b.X, g.Nx), wrapDelta(a.Y, b.Y, g.Ny))
	ba := inHalfPlane(wrapDelta(b.X, a.X, g.Nx), wrapDelta(b.Y, a.Y, g.Ny))
	switch {
	case ab && !ba:
		// b is the plate box, a the tower box: node shares a's column.
		return g.Wrap(BoxCoord{X: a.X, Y: a.Y, Z: b.Z})
	case ba && !ab:
		return g.Wrap(BoxCoord{X: b.X, Y: b.Y, Z: a.Z})
	default:
		// Ambiguous toroidal wrap (displacement of exactly half the grid,
		// possible only for even grids): break the tie deterministically by
		// linear index so both orderings agree.
		if g.Index(a) <= g.Index(b) {
			return g.Wrap(BoxCoord{X: a.X, Y: a.Y, Z: b.Z})
		}
		return g.Wrap(BoxCoord{X: b.X, Y: b.Y, Z: a.Z})
	}
}

// SubToBox maps a coordinate on a refined subbox grid to its enclosing
// home box on the coarse grid. Each subbox dimension must be an integer
// multiple of the corresponding box dimension (the way the engine refines
// home boxes into match-unit subboxes), so the mapping is an exact
// integer division of the per-box refinement factor.
func SubToBox(sub, boxes Grid, c BoxCoord) BoxCoord {
	return BoxCoord{
		X: c.X * boxes.Nx / sub.Nx,
		Y: c.Y * boxes.Ny / sub.Ny,
		Z: c.Z * boxes.Nz / sub.Nz,
	}
}

// BoxPairsWithinCutoff enumerates every unordered pair of boxes (including
// a box with itself) whose minimum footprint distance on the torus is
// within the cutoff, calling fn once per pair. boxSide is the box edge
// length in Å. Each pair is reported exactly once with a <= b in linear
// index order, ordered by a, then b.
//
// The distance depends only on the offset b-a reduced onto the torus, so
// it is decided once per offset into a table indexed like the boxes, and
// the pair walk reads the table.
func BoxPairsWithinCutoff(g Grid, boxSide [3]float64, cutoff float64, fn func(a, b BoxCoord)) {
	within := make([]bool, g.NumBoxes())
	for i := range within {
		within[i] = boxFootprintDist3(g, boxSide, BoxCoord{}, g.Coord(i)) <= cutoff
	}
	for ia := range within {
		a := g.Coord(ia)
		// b runs over the boxes from a on in linear order: z never wraps
		// below a.Z, y and x restart at 0 after a's own row and plane.
		x0, y0 := a.X, a.Y
		for bz := a.Z; bz < g.Nz; bz++ {
			for by := y0; by < g.Ny; by++ {
				dy := by - a.Y
				if dy < 0 {
					dy += g.Ny
				}
				row := within[((bz-a.Z)*g.Ny+dy)*g.Nx:][:g.Nx]
				for bx := x0; bx < g.Nx; bx++ {
					dx := bx - a.X
					if dx < 0 {
						dx += g.Nx
					}
					if row[dx] {
						fn(a, BoxCoord{X: bx, Y: by, Z: bz})
					}
				}
				x0 = 0
			}
			y0 = 0
		}
	}
}

// boxFootprintDist3 returns the minimum distance between two boxes on the
// torus (0 if they touch or overlap).
func boxFootprintDist3(g Grid, side [3]float64, a, b BoxCoord) float64 {
	gap := func(d, n int, s float64) float64 {
		d = modInt(d, n)
		if d > n/2 {
			d = n - d
		}
		if d <= 1 {
			return 0
		}
		return float64(d-1) * s
	}
	gx := gap(b.X-a.X, g.Nx, side[0])
	gy := gap(b.Y-a.Y, g.Ny, side[1])
	gz := gap(b.Z-a.Z, g.Nz, side[2])
	return math.Sqrt(gx*gx + gy*gy + gz*gz)
}
