package nt

import (
	"math"
	"math/rand"
)

// point is a sample location in node-local coordinates (home subbox is
// [0, s)^3).
type point struct{ x, y, z float64 }

// Regions holds the box-granular tower and plate import regions for one
// subbox, as lists of subbox offsets (in subbox units) relative to the
// home subbox. Offset (0,0,0) is the home subbox itself, which belongs to
// both regions.
type Regions struct {
	Tower [][3]int
	Plate [][3]int
	Side  float64 // subbox side length
}

// BuildRegions constructs the whole-subbox tower and plate for the
// configuration (Figure 3f). The tower is the subbox column within the
// effective cutoff in z; the plate is the same-z layer of subboxes whose
// footprints lie within the effective cutoff in the canonical upper
// half-plane.
func BuildRegions(c Config) Regions {
	s := c.SubboxSide()
	r := c.Cutoff
	nr := int(math.Ceil(r / s))
	var reg Regions
	reg.Side = s
	for dz := -nr; dz <= nr; dz++ {
		reg.Tower = append(reg.Tower, [3]int{0, 0, dz})
	}
	for dy := 0; dy <= nr; dy++ {
		for dx := -nr; dx <= nr; dx++ {
			if !inHalfPlane(dx, dy) {
				continue
			}
			if footprintDist(dx, dy, s) > r {
				continue
			}
			reg.Plate = append(reg.Plate, [3]int{dx, dy, 0})
		}
	}
	return reg
}

// TowerAtomFraction returns |tower| / |tower x plate| normalization info:
// the subbox counts of the two regions.
func (r Regions) Counts() (tower, plate int) { return len(r.Tower), len(r.Plate) }

// samplePoint picks a uniform point within a uniformly chosen subbox of
// the region.
func sampleRegion(rng *rand.Rand, offsets [][3]int, s float64) point {
	o := offsets[rng.Intn(len(offsets))]
	return point{
		x: (float64(o[0]) + rng.Float64()) * s,
		y: (float64(o[1]) + rng.Float64()) * s,
		z: (float64(o[2]) + rng.Float64()) * s,
	}
}

// MatchEfficiency estimates, by Monte Carlo with the given sample count,
// the NT method's match efficiency: the ratio of necessary interactions
// (tower-plate pairs within the physical cutoff) to pairs of atoms
// considered (all tower-plate combinations) — Table 3 of the paper. Atoms
// are modelled as uniformly distributed, which is accurate for liquids at
// these scales. The tower is the whole-subbox column Anton imports (the
// column structure is inherently subbox-granular); the plate is the
// rounded (distance-limited) half-annulus region. This mixed geometry
// reproduces Table 3 across all nine box/subbox configurations.
func MatchEfficiency(c Config, rng *rand.Rand, samples int) float64 {
	s := c.SubboxSide()
	r := c.Cutoff
	r2 := r * r
	hits := 0
	for i := 0; i < samples; i++ {
		t := sampleGranularTower(rng, s, r)
		p := sampleRoundedPlate(rng, s, r)
		dx := t.x - p.x
		dy := t.y - p.y
		dz := t.z - p.z
		if dx*dx+dy*dy+dz*dz <= r2 {
			hits++
		}
	}
	return float64(hits) / float64(samples)
}

// sampleGranularTower draws a uniform point from the whole-subbox tower:
// the home-subbox column extended by ceil(r/s) whole subboxes both ways.
func sampleGranularTower(rng *rand.Rand, s, r float64) point {
	nr := math.Ceil(r / s)
	return point{
		x: rng.Float64() * s,
		y: rng.Float64() * s,
		z: rng.Float64()*(s+2*nr*s) - nr*s,
	}
}

// sampleRoundedPlate draws a uniform point from the rounded half-plate:
// the home subbox, the +x flank, and the +y band with rounded corners, all
// within xy footprint distance r, extruded over the subbox height.
func sampleRoundedPlate(rng *rand.Rand, s, r float64) point {
	for {
		x := rng.Float64()*(s+2*r) - r
		y := rng.Float64() * (s + r)
		var dx, dy float64
		if x < 0 {
			dx = -x
		} else if x > s {
			dx = x - s
		}
		if y > s {
			dy = y - s
		}
		// Half-plane: the region below the home row keeps only the +x flank.
		if y < s && x < 0 {
			continue
		}
		if dx*dx+dy*dy > r*r {
			continue
		}
		return point{x: x, y: y, z: rng.Float64() * s}
	}
}

// MatchEfficiencyBoxGranular is MatchEfficiency with the whole-subbox
// import regions Anton's multicast actually uses (Figure 3f). The larger
// considered set lowers the efficiency relative to the rounded regions.
func MatchEfficiencyBoxGranular(c Config, rng *rand.Rand, samples int) float64 {
	reg := BuildRegions(c)
	r2 := c.Cutoff * c.Cutoff
	hits := 0
	for i := 0; i < samples; i++ {
		t := sampleRegion(rng, reg.Tower, reg.Side)
		p := sampleRegion(rng, reg.Plate, reg.Side)
		dx := t.x - p.x
		dy := t.y - p.y
		dz := t.z - p.z
		if dx*dx+dy*dy+dz*dz <= r2 {
			hits++
		}
	}
	return float64(hits) / float64(samples)
}

// PairsConsideredPerNode returns the expected number of tower-plate pairs
// a node's HTIS examines per time step, for the given uniform atom number
// density (atoms/Å^3), using the rounded per-subbox regions. With n
// subboxes per edge, each of the n^3 subboxes runs the NT method
// independently.
func PairsConsideredPerNode(c Config, density float64) float64 {
	s := c.SubboxSide()
	r := c.Cutoff
	towerAtoms := s * s * (s + 2*math.Ceil(r/s)*s) * density
	plateArea := s*s + 2*s*r + math.Pi*r*r/2
	plateAtoms := s * plateArea * density
	n := float64(c.subdiv())
	return n * n * n * towerAtoms * plateAtoms
}

// NecessaryPairsPerNode returns the expected number of within-cutoff pairs
// a node must compute per time step: half the pairs in a cutoff sphere per
// atom, times atoms per node (each pair computed once machine-wide).
func NecessaryPairsPerNode(c Config, density float64) float64 {
	atomsPerNode := c.BoxSide * c.BoxSide * c.BoxSide * density
	sphere := 4.0 / 3.0 * math.Pi * math.Pow(c.Cutoff, 3) * density
	return atomsPerNode * sphere / 2
}
