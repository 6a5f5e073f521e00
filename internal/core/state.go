// Package core implements the Anton MD engine — the paper's primary
// contribution. It runs molecular dynamics the way the machine does:
//
//   - positions, velocities and forces held in customized fixed-point
//     formats with wrapping (associative) accumulation (§4), giving
//     bitwise determinism, invariance to the number of nodes, and exact
//     time reversibility for unconstrained, unthermostatted runs;
//   - a spatial decomposition into home boxes on the node torus, with
//     range-limited forces parallelized by the NT method (§3.2.1):
//     box-pair interactions are assigned to neutral-territory nodes, the
//     match units prefilter candidates, and the PPIP pipelines evaluate
//     the tabulated interaction kernels;
//   - long-range electrostatics by Gaussian Split Ewald through the same
//     pipelines plus the distributed 3D FFT (§3.1, §3.2.2);
//   - correction forces for excluded and scaled 1-4 pairs on the
//     correction pipeline (§3.2.3), bonded terms statically assigned to
//     geometry cores, and deferred atom migration with an expanded NT
//     import region (§3.2.4), with constraint groups resident on a single
//     node and integrated there.
package core

import (
	"math"

	"anton/internal/fixp"
	"anton/internal/vec"
)

// Fixed-point unit definitions. Positions are box fractions scaled onto
// the full F32 wrap range so that twos-complement wrapping implements
// periodic boundary conditions and minimum-image subtraction for free:
// stored = 2*x/L - 1 in [-1, 1), so a stored difference wraps at +-1,
// i.e. at +-L/2.
const (
	// VelQuantum is the velocity resolution in Å/fs per count.
	VelQuantum = 1.0 / (1 << 36)
)

// PosCoder converts between physical coordinates and the fixed position
// format for a cubic box.
type PosCoder struct {
	L float64 // box edge, Å
}

// Encode quantizes an absolute position (Å) into the fixed format:
// stored = 2*x/L - 1, the exact inverse of Decode.
func (c PosCoder) Encode(r vec.V3) fixp.Vec3 {
	s := 2 / c.L
	return fixp.Vec3{
		X: fixp.FromFloat(math.Mod(r.X*s, 2) - 1),
		Y: fixp.FromFloat(math.Mod(r.Y*s, 2) - 1),
		Z: fixp.FromFloat(math.Mod(r.Z*s, 2) - 1),
	}
}

// Decode returns the absolute position in [0, L).
func (c PosCoder) Decode(p fixp.Vec3) vec.V3 {
	half := c.L / 2
	return vec.V3{
		X: wrap01(p.X.Float()*half+half, c.L),
		Y: wrap01(p.Y.Float()*half+half, c.L),
		Z: wrap01(p.Z.Float()*half+half, c.L),
	}
}

func wrap01(x, l float64) float64 {
	x -= l * math.Floor(x/l)
	if x >= l {
		x -= l
	}
	return x
}

// DeltaToPhys converts a fixed-point displacement (which wrapped at
// +-L/2) to Å.
func (c PosCoder) DeltaToPhys(d fixp.Vec3) vec.V3 {
	half := c.L / 2
	return vec.V3{X: d.X.Float() * half, Y: d.Y.Float() * half, Z: d.Z.Float() * half}
}

// PosQuantum returns the position resolution in Å.
func (c PosCoder) PosQuantum() float64 { return c.L / math.Exp2(float64(fixp.FracBits+1)) }

// Vel3 is a fixed-point velocity vector in VelQuantum counts.
type Vel3 struct{ X, Y, Z int64 }

// EncodeVel quantizes a velocity (Å/fs).
func EncodeVel(v vec.V3) Vel3 {
	return Vel3{
		X: int64(math.RoundToEven(v.X / VelQuantum)),
		Y: int64(math.RoundToEven(v.Y / VelQuantum)),
		Z: int64(math.RoundToEven(v.Z / VelQuantum)),
	}
}

// Float returns the velocity in Å/fs.
func (v Vel3) Float() vec.V3 {
	return vec.V3{X: float64(v.X) * VelQuantum, Y: float64(v.Y) * VelQuantum, Z: float64(v.Z) * VelQuantum}
}

// Neg returns the negated velocity (used for the reversibility test: the
// paper negated all instantaneous velocities and recovered the initial
// conditions bit-for-bit).
func (v Vel3) Neg() Vel3 { return Vel3{X: -v.X, Y: -v.Y, Z: -v.Z} }

// Force3 is a wrapping fixed-point force accumulator in
// htis.ForceQuantum counts. Accumulation order never affects the result.
type Force3 struct{ X, Y, Z int64 }

// Add accumulates with twos-complement wrapping.
func (f Force3) Add(o Force3) Force3 { return Force3{f.X + o.X, f.Y + o.Y, f.Z + o.Z} }

// AddRaw accumulates raw counts.
func (f Force3) AddRaw(x, y, z int64) Force3 { return Force3{f.X + x, f.Y + y, f.Z + z} }

// Scale multiplies by an integer factor (MTS impulse weighting, exact).
func (f Force3) Scale(k int64) Force3 { return Force3{f.X * k, f.Y * k, f.Z * k} }
