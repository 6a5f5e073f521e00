package core

import (
	"math"
	"testing"
	"testing/quick"

	"anton/internal/vec"
)

func TestQuickPosCoderRoundTrip(t *testing.T) {
	c := PosCoder{L: 51.3} // BPTI box
	f := func(x, y, z float64) bool {
		r := vec.V3{X: wrapT(x, c.L), Y: wrapT(y, c.L), Z: wrapT(z, c.L)}
		back := c.Decode(c.Encode(r))
		tol := c.PosQuantum() * 1.01
		return wrapDist(back.X, r.X, c.L) <= tol &&
			wrapDist(back.Y, r.Y, c.L) <= tol &&
			wrapDist(back.Z, r.Z, c.L) <= tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func wrapT(x, l float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	x = math.Mod(x, l)
	if x < 0 {
		x += l
	}
	return x
}

func wrapDist(a, b, l float64) float64 {
	d := math.Abs(a - b)
	if d > l/2 {
		d = l - d
	}
	return d
}

func TestQuickEncodeVelSymmetry(t *testing.T) {
	// round(-v) == -round(v): required for exact reversibility.
	f := func(x, y, z float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) ||
			math.IsNaN(y) || math.IsInf(y, 0) ||
			math.IsNaN(z) || math.IsInf(z, 0) {
			return true
		}
		v := vec.V3{X: math.Mod(x, 10), Y: math.Mod(y, 10), Z: math.Mod(z, 10)}
		return EncodeVel(v.Neg()) == EncodeVel(v).Neg()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickForce3Associativity(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz, cx, cy, cz int64) bool {
		a := Force3{ax, ay, az}
		b := Force3{bx, by, bz}
		c := Force3{cx, cy, cz}
		return a.Add(b).Add(c) == a.Add(b.Add(c)) && a.Add(b) == b.Add(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestForce3ScaleExact(t *testing.T) {
	f := Force3{3, -5, 7}
	if f.Scale(2) != (Force3{6, -10, 14}) {
		t.Error("scale wrong")
	}
}

func TestDeltaToPhysHalfRange(t *testing.T) {
	c := PosCoder{L: 40}
	a := c.Encode(vec.V3{X: 39.0})
	b := c.Encode(vec.V3{X: 1.0})
	d := c.DeltaToPhys(a.Sub(b))
	if math.Abs(d.X+2.0) > 1e-6 {
		t.Errorf("minimum image delta: got %g, want -2", d.X)
	}
	// The opposite direction negates exactly.
	d2 := c.DeltaToPhys(b.Sub(a))
	if d2.X != -d.X {
		t.Errorf("delta not antisymmetric: %g vs %g", d2.X, d.X)
	}
}
