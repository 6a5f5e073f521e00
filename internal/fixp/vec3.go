package fixp

import (
	"fmt"

	"anton/internal/vec"
)

// Vec3 is a 3-vector of F32 fixed-point components. Positions on Anton are
// stored as box fractions in [-1/2, 1/2) per dimension (we use the full
// [-1,1) range with the box mapped to [-1/2,1/2), leaving headroom), so
// componentwise wrapping addition implements periodic boundary conditions
// exactly and for free.
type Vec3 struct {
	X, Y, Z F32
}

// Vec3FromFloat quantizes a float vector componentwise.
func Vec3FromFloat(v vec.V3) Vec3 {
	return Vec3{FromFloat(v.X), FromFloat(v.Y), FromFloat(v.Z)}
}

// Float converts back to a float vector.
func (a Vec3) Float() vec.V3 {
	return vec.V3{X: a.X.Float(), Y: a.Y.Float(), Z: a.Z.Float()}
}

// Add returns a + b with wrapping per component.
func (a Vec3) Add(b Vec3) Vec3 { return Vec3{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a - b with wrapping per component.
func (a Vec3) Sub(b Vec3) Vec3 { return Vec3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Neg returns -a.
func (a Vec3) Neg() Vec3 { return Vec3{-a.X, -a.Y, -a.Z} }

// Scale multiplies each component by the fixed-point factor s.
func (a Vec3) Scale(s F32) Vec3 { return Vec3{a.X.Mul(s), a.Y.Mul(s), a.Z.Mul(s)} }

// Dot returns the dot product as a wide Q2.62 accumulator value (no
// intermediate rounding, so the result is exact and order-independent).
func (a Vec3) Dot(b Vec3) Acc64 {
	return Acc64(a.X.MulRaw(b.X) + a.Y.MulRaw(b.Y) + a.Z.MulRaw(b.Z))
}

// IsZero reports whether all components are exactly zero.
func (a Vec3) IsZero() bool { return a.X == 0 && a.Y == 0 && a.Z == 0 }

// String implements fmt.Stringer.
func (a Vec3) String() string { return fmt.Sprintf("(%v, %v, %v)", a.X, a.Y, a.Z) }

// AccVec3 is a 3-vector of 64-bit wrapping accumulators, used to sum the
// per-pair force contributions on an atom. Because each component is a
// wrapping integer sum, the total force is independent of the order in
// which contributions arrive — the property that lets Anton sum forces from
// many nodes without synchronization-order effects.
type AccVec3 struct {
	X, Y, Z Acc64
}

// AddRaw accumulates raw Q2.62 component values.
func (a AccVec3) AddRaw(x, y, z int64) AccVec3 {
	return AccVec3{a.X + Acc64(x), a.Y + Acc64(y), a.Z + Acc64(z)}
}

// Add accumulates another accumulator vector.
func (a AccVec3) Add(b AccVec3) AccVec3 {
	return AccVec3{a.X + b.X, a.Y + b.Y, a.Z + b.Z}
}

// Neg returns the negated accumulator (used to apply Newton's third law to
// the partner atom of a pair with bit-exact antisymmetry).
func (a AccVec3) Neg() AccVec3 { return AccVec3{-a.X, -a.Y, -a.Z} }

// Float returns the accumulator interpreted at the Q2.62 scale.
func (a AccVec3) Float() vec.V3 {
	return vec.V3{X: a.X.Float(), Y: a.Y.Float(), Z: a.Z.Float()}
}
