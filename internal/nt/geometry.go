// Package nt implements the NT method (Shaw 2005, paper reference [32]) —
// the neutral-territory parallelization of the range-limited N-body
// problem that Anton's HTIS executes — together with the traditional
// half-shell method as a baseline, the mesh-interaction variant used for
// charge spreading (paper Figure 3c), subbox division for match
// efficiency (Table 3), and the box-level pair-to-node assignment used by
// the engine.
//
// In the NT method, each node imports a "tower" (its home-box column
// extended by the cutoff radius R in +z and -z) and a "plate" (the
// home-box slab extended by R in half of the xy-plane) and computes all
// interactions between tower atoms and plate atoms. The interaction
// between two atoms may be computed by a node on which neither resides —
// the neutral territory.
package nt

import "math"

// Config describes one node's share of the spatial decomposition.
type Config struct {
	BoxSide float64 // home-box edge length, Å (cubic boxes)
	Cutoff  float64 // interaction cutoff radius R, Å
	Subdiv  int     // subboxes per box edge (1, 2, or 4 in Table 3)
}

// subdiv returns the subdivision count, treating the zero value as 1.
func (c Config) subdiv() int {
	if c.Subdiv < 1 {
		return 1
	}
	return c.Subdiv
}

// SubboxSide returns the subbox edge length.
func (c Config) SubboxSide() float64 { return c.BoxSide / float64(c.subdiv()) }

// TowerImportVolume returns the rounded (distance-limited) volume imported
// for the tower region, excluding the home box: two caps of height R over
// the box footprint.
func (c Config) TowerImportVolume() float64 {
	b := c.BoxSide
	return 2 * b * b * c.Cutoff
}

// PlateImportVolume returns the rounded volume imported for the plate
// region, excluding the home box: the half xy-annulus of width R around
// the box footprint (two rectangular flanks plus two quarter-discs),
// extruded over the box height.
func (c Config) PlateImportVolume() float64 {
	b := c.BoxSide
	r := c.Cutoff
	halfAnnulus := 2*b*r + math.Pi*r*r/2
	return b * halfAnnulus
}

// ImportVolume returns the total rounded NT import volume (tower + plate,
// home box counted once and not imported).
func (c Config) ImportVolume() float64 {
	return c.TowerImportVolume() + c.PlateImportVolume()
}

// HalfShellImportVolume returns the rounded import volume of the
// traditional half-shell method (Figure 3b): half of the R-dilation shell
// around the home box.
func (c Config) HalfShellImportVolume() float64 {
	b := c.BoxSide
	r := c.Cutoff
	// Minkowski sum of a cube with a ball, minus the cube, halved:
	// faces 6*b^2*r, edges 3*pi*r^2*b, corners (4/3)*pi*r^3.
	shell := 6*b*b*r + 3*math.Pi*r*r*b + 4.0/3.0*math.Pi*r*r*r
	return shell / 2
}

// MeshPlateImportVolume returns the rounded plate volume for the charge
// spreading / force interpolation variant (Figure 3c): because the
// atom-mesh "interaction" is asymmetric (every atom must meet every mesh
// point within the spreading radius exactly once, and mesh points are
// computed locally rather than imported), the plate must cover the *full*
// xy-annulus rather than half of it. rspread is the spreading cutoff,
// typically smaller than the range-limited cutoff (BPTI: 7.1 vs 10.4 Å).
func (c Config) MeshPlateImportVolume(rspread float64) float64 {
	b := c.BoxSide
	fullAnnulus := 4*b*rspread + math.Pi*rspread*rspread
	return b * fullAnnulus
}

// SubboxImportVolume returns the import volume when the NT method is
// applied per subbox with whole-subbox (box-granular) import — Figures 3e
// and 3f. Each subbox column imports its own tower and plate built from
// whole subboxes; the union over a node's subboxes is the node's import
// region. Larger than the rounded volume, smaller than naive per-subbox
// sums because neighboring subboxes share imports.
func (c Config) SubboxImportVolume() float64 {
	s := c.SubboxSide()
	n := c.subdiv()
	r := c.Cutoff
	nr := int(math.Ceil(r / s)) // subbox reach in units of subboxes
	// Count unique subboxes in the union of all per-subbox import regions,
	// relative to the home box [0,n)^3, excluding home subboxes.
	type key [3]int
	seen := make(map[key]bool)
	for hx := 0; hx < n; hx++ {
		for hy := 0; hy < n; hy++ {
			for hz := 0; hz < n; hz++ {
				// Tower of subbox (hx,hy,hz): (hx,hy,z) for z within nr.
				for dz := -nr; dz <= nr; dz++ {
					seen[key{hx, hy, hz + dz}] = true
				}
				// Plate: same z, (x,y) within distance r of subbox footprint,
				// upper half-plane.
				for dx := -nr; dx <= nr; dx++ {
					for dy := 0; dy <= nr; dy++ {
						if !inHalfPlane(dx, dy) {
							continue
						}
						if footprintDist(dx, dy, s) > r {
							continue
						}
						seen[key{hx + dx, hy + dy, hz}] = true
					}
				}
			}
		}
	}
	// Remove home-box subboxes.
	cnt := 0
	for k := range seen {
		if k[0] >= 0 && k[0] < n && k[1] >= 0 && k[1] < n && k[2] >= 0 && k[2] < n {
			continue
		}
		cnt++
	}
	return float64(cnt) * s * s * s
}

// inHalfPlane reports whether the xy subbox offset lies in the canonical
// upper half-plane used to ensure each pair is computed once: dy > 0, or
// dy == 0 and dx >= 0.
func inHalfPlane(dx, dy int) bool {
	return dy > 0 || (dy == 0 && dx >= 0)
}

// footprintDist returns the minimum xy distance between two axis-aligned
// square footprints of side s whose offsets differ by (dx, dy) subboxes.
func footprintDist(dx, dy int, s float64) float64 {
	gap := func(d int) float64 {
		if d == 0 {
			return 0
		}
		return (math.Abs(float64(d)) - 1) * s
	}
	gx, gy := gap(dx), gap(dy)
	return math.Hypot(gx, gy)
}
