// Package vec provides double-precision 3-vector and 3x3-tensor math used
// throughout the reference MD engine and the analysis code. The Anton-side
// engine uses fixed-point arithmetic (package fixp); vec is the
// floating-point counterpart for baselines, diagnostics and geometry.
package vec

import (
	"fmt"
	"math"
)

// V3 is a 3-vector of float64. Components are exported so composite
// literals stay terse: vec.V3{X: 1} or vec.V3{1, 0, 0}.
type V3 struct {
	X, Y, Z float64
}

// Zero is the zero vector.
var Zero = V3{}

// Add returns a + b.
func (a V3) Add(b V3) V3 { return V3{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a - b.
func (a V3) Sub(b V3) V3 { return V3{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Scale returns s * a.
func (a V3) Scale(s float64) V3 { return V3{s * a.X, s * a.Y, s * a.Z} }

// Neg returns -a.
func (a V3) Neg() V3 { return V3{-a.X, -a.Y, -a.Z} }

// Dot returns the dot product a . b.
func (a V3) Dot(b V3) float64 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// Cross returns the cross product a x b.
func (a V3) Cross(b V3) V3 {
	return V3{
		a.Y*b.Z - a.Z*b.Y,
		a.Z*b.X - a.X*b.Z,
		a.X*b.Y - a.Y*b.X,
	}
}

// Norm2 returns |a|^2.
func (a V3) Norm2() float64 { return a.Dot(a) }

// Norm returns |a|.
func (a V3) Norm() float64 { return math.Sqrt(a.Norm2()) }

// Unit returns a / |a|. Unit of the zero vector is the zero vector.
func (a V3) Unit() V3 {
	n := a.Norm()
	if n == 0 {
		return Zero
	}
	return a.Scale(1 / n)
}

// MaxAbs returns the largest absolute component.
func (a V3) MaxAbs() float64 {
	m := math.Abs(a.X)
	if v := math.Abs(a.Y); v > m {
		m = v
	}
	if v := math.Abs(a.Z); v > m {
		m = v
	}
	return m
}

// Comp returns component i (0=X, 1=Y, 2=Z).
func (a V3) Comp(i int) float64 {
	switch i {
	case 0:
		return a.X
	case 1:
		return a.Y
	case 2:
		return a.Z
	}
	panic(fmt.Sprintf("vec: component index %d out of range", i))
}

// SetComp returns a copy of a with component i set to v.
func (a V3) SetComp(i int, v float64) V3 {
	switch i {
	case 0:
		a.X = v
	case 1:
		a.Y = v
	case 2:
		a.Z = v
	default:
		panic(fmt.Sprintf("vec: component index %d out of range", i))
	}
	return a
}

// String implements fmt.Stringer.
func (a V3) String() string { return fmt.Sprintf("(%g, %g, %g)", a.X, a.Y, a.Z) }

// Dist returns |a - b|.
func Dist(a, b V3) float64 { return a.Sub(b).Norm() }

// Dist2 returns |a - b|^2.
func Dist2(a, b V3) float64 { return a.Sub(b).Norm2() }

// Angle returns the angle at vertex j of the triangle (i, j, k), in radians.
func Angle(i, j, k V3) float64 {
	u := i.Sub(j).Unit()
	v := k.Sub(j).Unit()
	c := u.Dot(v)
	// Clamp against rounding excursions outside [-1, 1].
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return math.Acos(c)
}

// Dihedral returns the torsion angle, in radians in (-pi, pi], defined by
// the four points i-j-k-l: the angle between the plane (i,j,k) and the
// plane (j,k,l), measured around the j-k axis with the IUPAC sign
// convention.
func Dihedral(i, j, k, l V3) float64 {
	b1 := j.Sub(i)
	b2 := k.Sub(j)
	b3 := l.Sub(k)
	n1 := b1.Cross(b2)
	n2 := b2.Cross(b3)
	x := n1.Dot(n2)
	y := b2.Norm() * b1.Dot(n2)
	return math.Atan2(y, x)
}

// T33 is a 3x3 tensor stored row-major. It holds the rotations of optimal
// superposition.
type T33 struct {
	XX, XY, XZ float64
	YX, YY, YZ float64
	ZX, ZY, ZZ float64
}

// MulV returns t * v.
func (t T33) MulV(v V3) V3 {
	return V3{
		t.XX*v.X + t.XY*v.Y + t.XZ*v.Z,
		t.YX*v.X + t.YY*v.Y + t.YZ*v.Z,
		t.ZX*v.X + t.ZY*v.Y + t.ZZ*v.Z,
	}
}

// RotationZ returns the rotation by angle theta about the Z axis.
func RotationZ(theta float64) T33 {
	c, s := math.Cos(theta), math.Sin(theta)
	return T33{
		c, -s, 0,
		s, c, 0,
		0, 0, 1,
	}
}
