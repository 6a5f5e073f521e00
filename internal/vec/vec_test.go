package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %v, want %v (tol %v)", what, got, want, tol)
	}
}

func TestAddSubNeg(t *testing.T) {
	a := V3{1, 2, 3}
	b := V3{-4, 5, 0.5}
	if got := a.Add(b); got != (V3{-3, 7, 3.5}) {
		t.Errorf("Add: got %v", got)
	}
	if got := a.Sub(b); got != (V3{5, -3, 2.5}) {
		t.Errorf("Sub: got %v", got)
	}
	if got := a.Neg(); got != (V3{-1, -2, -3}) {
		t.Errorf("Neg: got %v", got)
	}
}

func TestDotCross(t *testing.T) {
	x := V3{1, 0, 0}
	y := V3{0, 1, 0}
	z := V3{0, 0, 1}
	if got := x.Cross(y); got != z {
		t.Errorf("x cross y: got %v, want %v", got, z)
	}
	if got := y.Cross(x); got != z.Neg() {
		t.Errorf("y cross x: got %v, want %v", got, z.Neg())
	}
	if got := x.Dot(y); got != 0 {
		t.Errorf("x dot y: got %v", got)
	}
	a := V3{1, 2, 3}
	b := V3{4, 5, 6}
	almost(t, a.Dot(b), 32, 0, "a dot b")
}

func TestNormUnit(t *testing.T) {
	a := V3{3, 4, 0}
	almost(t, a.Norm(), 5, 1e-15, "norm")
	almost(t, a.Unit().Norm(), 1, 1e-15, "unit norm")
	if got := Zero.Unit(); got != Zero {
		t.Errorf("unit of zero: got %v", got)
	}
}

func TestCompAccessors(t *testing.T) {
	a := V3{7, 8, 9}
	for i, want := range []float64{7, 8, 9} {
		if got := a.Comp(i); got != want {
			t.Errorf("Comp(%d) = %v, want %v", i, got, want)
		}
	}
	b := a.SetComp(1, -1)
	if b != (V3{7, -1, 9}) || a != (V3{7, 8, 9}) {
		t.Errorf("SetComp: got %v (orig %v)", b, a)
	}
	defer func() {
		if recover() == nil {
			t.Error("Comp(3) did not panic")
		}
	}()
	a.Comp(3)
}

func TestAngle(t *testing.T) {
	// Right angle at origin.
	almost(t, Angle(V3{1, 0, 0}, Zero, V3{0, 1, 0}), math.Pi/2, 1e-14, "right angle")
	// Straight line.
	almost(t, Angle(V3{-1, 0, 0}, Zero, V3{2, 0, 0}), math.Pi, 1e-14, "straight")
	// Tetrahedral angle between CH directions: acos(-1/3).
	almost(t, Angle(V3{1, 1, 1}, Zero, V3{1, -1, -1}), math.Acos(-1.0/3.0), 1e-14, "tetrahedral")
}

func TestDihedral(t *testing.T) {
	// Trans (anti) configuration: 180 degrees.
	got := Dihedral(V3{0, 1, 0}, V3{0, 0, 0}, V3{1, 0, 0}, V3{1, -1, 0})
	almost(t, math.Abs(got), math.Pi, 1e-14, "trans dihedral")
	// Cis configuration: 0 degrees.
	got = Dihedral(V3{0, 1, 0}, V3{0, 0, 0}, V3{1, 0, 0}, V3{1, 1, 0})
	almost(t, got, 0, 1e-14, "cis dihedral")
	// +90 degrees.
	got = Dihedral(V3{0, 1, 0}, V3{0, 0, 0}, V3{1, 0, 0}, V3{1, 0, 1})
	almost(t, got, math.Pi/2, 1e-14, "gauche+ dihedral")
}

func TestT33MulV(t *testing.T) {
	r := RotationZ(math.Pi / 2)
	got := r.MulV(V3{1, 0, 0})
	almost(t, got.X, 0, 1e-15, "rot x")
	almost(t, got.Y, 1, 1e-15, "rot y")
	almost(t, got.Z, 0, 1e-15, "rot z")
}

func TestWrap(t *testing.T) {
	b := Cube(10)
	cases := []struct{ in, want V3 }{
		{V3{5, 5, 5}, V3{5, 5, 5}},
		{V3{-1, 11, 25}, V3{9, 1, 5}},
		{V3{10, 0, -10}, V3{0, 0, 0}},
		{V3{-0.25, 0, 0}, V3{9.75, 0, 0}},
	}
	for _, c := range cases {
		got := b.Wrap(c.in)
		if got.Sub(c.want).MaxAbs() > 1e-12 {
			t.Errorf("Wrap(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMinImage(t *testing.T) {
	b := Cube(10)
	d := b.MinImage(V3{9, -9, 5.5})
	want := V3{-1, 1, -4.5}
	if d.Sub(want).MaxAbs() > 1e-12 {
		t.Errorf("MinImage: got %v, want %v", d, want)
	}
	// Distance between points near opposite faces is short.
	almost(t, b.Dist(V3{0.5, 0, 0}, V3{9.5, 0, 0}), 1, 1e-12, "wrapped distance")
}

func TestFracRoundTrip(t *testing.T) {
	b := Box{V3{10, 20, 40}}
	r := V3{3, 15, 39.5}
	f := b.Frac(r)
	if f.X < 0 || f.X >= 1 || f.Y < 0 || f.Y >= 1 || f.Z < 0 || f.Z >= 1 {
		t.Errorf("Frac out of [0,1): %v", f)
	}
	back := b.FromFrac(f)
	if back.Sub(r).MaxAbs() > 1e-12 {
		t.Errorf("round trip: got %v, want %v", back, r)
	}
}

func TestQuickWrapInRange(t *testing.T) {
	b := Cube(31.7)
	f := func(x, y, z float64) bool {
		r := V3{clampHuge(x), clampHuge(y), clampHuge(z)}
		w := b.Wrap(r)
		return w.X >= 0 && w.X < b.L.X &&
			w.Y >= 0 && w.Y < b.L.Y &&
			w.Z >= 0 && w.Z < b.L.Z
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMinImageInRange(t *testing.T) {
	b := Cube(12.5)
	f := func(x, y, z float64) bool {
		d := b.MinImage(V3{clampHuge(x), clampHuge(y), clampHuge(z)})
		h := b.L.X / 2
		return d.X >= -h && d.X < h && d.Y >= -h && d.Y < h && d.Z >= -h && d.Z < h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCrossOrthogonal(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := V3{clampHuge(ax), clampHuge(ay), clampHuge(az)}
		b := V3{clampHuge(bx), clampHuge(by), clampHuge(bz)}
		c := a.Cross(b)
		scale := a.Norm() * b.Norm()
		if scale == 0 {
			return true
		}
		return math.Abs(c.Dot(a))/scale/(1+c.Norm()) < 1e-9 &&
			math.Abs(c.Dot(b))/scale/(1+c.Norm()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clampHuge maps arbitrary quick-generated floats into a sane range so the
// geometric identities are testable without catastrophic cancellation.
func clampHuge(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}
