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
