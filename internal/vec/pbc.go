package vec

import "math"

// Box describes an orthorhombic periodic simulation cell with edge lengths
// L.X, L.Y, L.Z (in Å). Anton simulates systems with periodic boundary
// conditions on a regular 3D partition, so only orthorhombic (and in
// practice cubic) cells are supported, matching the paper.
type Box struct {
	L V3
}

// Cube returns a cubic box with side length l.
func Cube(l float64) Box { return Box{V3{l, l, l}} }

// Volume returns the box volume.
func (b Box) Volume() float64 { return b.L.X * b.L.Y * b.L.Z }

// Wrap returns r translated by integer multiples of the box edges into the
// primary cell [0, L).
func (b Box) Wrap(r V3) V3 {
	return V3{
		wrap1(r.X, b.L.X),
		wrap1(r.Y, b.L.Y),
		wrap1(r.Z, b.L.Z),
	}
}

func wrap1(x, l float64) float64 {
	x -= l * math.Floor(x/l)
	// Guard against x == l from rounding when x was a tiny negative value.
	if x >= l {
		x -= l
	}
	return x
}

// MinImage returns the minimum-image displacement d such that a + d is the
// periodic image of b nearest to a. Each component of d lies in [-L/2, L/2).
func (b Box) MinImage(d V3) V3 {
	return V3{
		MinImage1(d.X, b.L.X),
		MinImage1(d.Y, b.L.Y),
		MinImage1(d.Z, b.L.Z),
	}
}

// MinImage1 reduces a scalar displacement to its minimum image on a ring
// of circumference l, clamped to [-l/2, l/2). It is the single canonical
// implementation of periodic minimum-image math; callers should use it
// instead of re-deriving the round-and-wrap locally.
//
// Displacements well inside the half-ring — nearly every call: bonded
// neighbours, SHAKE sweeps — take an exact fast path. With |d| < 0.49*l the
// quotient rounds to zero, so the long form computes d - l*0 = d and both
// clamps miss; "+ 0" reproduces the one bit that subtraction changes
// (-0 becomes +0). TestMinImage1FastPathBitwise holds the two forms equal.
func MinImage1(d, l float64) float64 {
	if math.Abs(d) < 0.49*l {
		return d + 0
	}
	d -= l * math.Round(d/l)
	if d < -l/2 {
		d += l
	} else if d >= l/2 {
		d -= l
	}
	return d
}

// Dist2 returns the squared minimum-image distance between a and b.
func (b Box) Dist2(p, q V3) float64 { return b.MinImage(p.Sub(q)).Norm2() }

// Dist returns the minimum-image distance between a and b.
func (b Box) Dist(p, q V3) float64 { return math.Sqrt(b.Dist2(p, q)) }

// Frac converts an absolute position into fractional box coordinates in
// [0, 1) after wrapping.
func (b Box) Frac(r V3) V3 {
	w := b.Wrap(r)
	return V3{w.X / b.L.X, w.Y / b.L.Y, w.Z / b.L.Z}
}

// FromFrac converts fractional coordinates into absolute coordinates.
func (b Box) FromFrac(f V3) V3 {
	return V3{f.X * b.L.X, f.Y * b.L.Y, f.Z * b.L.Z}
}
