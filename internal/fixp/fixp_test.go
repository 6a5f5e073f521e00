package fixp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"anton/internal/vec"
)

func TestFromFloatRoundTrip(t *testing.T) {
	cases := []float64{0, 0.5, -0.5, 0.25, -0.25, 1.0 / 3.0, -0.999, 0.999}
	for _, x := range cases {
		f := FromFloat(x)
		if got := f.Float(); math.Abs(got-x) > 1.0/float64(One) {
			t.Errorf("round trip %v: got %v", x, got)
		}
	}
}

func TestWrapAssociativityPaperExample(t *testing.T) {
	// Paper footnote 2, scaled to 32 bits: 3/8 + 7/8 + (-5/8) = 5/8 in any
	// order even though 3/8+7/8 wraps.
	a := FromFloat(3.0 / 8)
	b := FromFloat(7.0 / 8)
	c := FromFloat(-5.0 / 8)
	want := FromFloat(5.0 / 8)
	orders := [][3]F32{{a, b, c}, {a, c, b}, {b, a, c}, {b, c, a}, {c, a, b}, {c, b, a}}
	for _, o := range orders {
		if got := o[0].Add(o[1]).Add(o[2]); got != want {
			t.Errorf("order %v: got %v, want %v", o, got, want)
		}
	}
	// And the intermediate sum does wrap negative.
	if s := a.Add(b); s.Float() >= 0 {
		t.Errorf("3/8+7/8 should wrap negative, got %v", s)
	}
}

func TestQuickAddAssociative(t *testing.T) {
	f := func(a, b, c int32) bool {
		x, y, z := F32(a), F32(b), F32(c)
		return x.Add(y).Add(z) == x.Add(y.Add(z)) &&
			x.Add(y) == y.Add(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickNegationSymmetry(t *testing.T) {
	// round(-x) == -round(x) for RoundShift: the property required for
	// exact time reversibility (paper section 4).
	f := func(x int64, s8 uint8) bool {
		s := uint(s8 % 32)
		if x == math.MinInt64 {
			return true // negation overflows int64 itself; not reachable in datapaths
		}
		return RoundShift(-x, s) == -RoundShift(x, s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRoundShiftNearestEven(t *testing.T) {
	cases := []struct {
		x    int64
		s    uint
		want int64
	}{
		{0, 4, 0},
		{8, 4, 0},  // 0.5 -> even 0
		{24, 4, 2}, // 1.5 -> even 2
		{-8, 4, 0}, // -0.5 -> even 0
		{-24, 4, -2},
		{9, 4, 1},  // 0.5625 -> 1
		{7, 4, 0},  // 0.4375 -> 0
		{23, 4, 1}, // 1.4375 -> 1
		{25, 4, 2}, // 1.5625 -> 2
		{-9, 4, -1},
		{100, 0, 100},
	}
	for _, c := range cases {
		if got := RoundShift(c.x, c.s); got != c.want {
			t.Errorf("RoundShift(%d, %d) = %d, want %d", c.x, c.s, got, c.want)
		}
	}
}

func TestMul(t *testing.T) {
	half := FromFloat(0.5)
	quarter := FromFloat(0.25)
	if got := half.Mul(half); got != quarter {
		t.Errorf("0.5*0.5 = %v, want %v", got, quarter)
	}
	negHalf := FromFloat(-0.5)
	if got := half.Mul(negHalf); got != quarter.Neg() {
		t.Errorf("0.5*-0.5 = %v, want %v", got, quarter.Neg())
	}
	// Multiplying by zero is exactly zero.
	if got := FromFloat(0.7).Mul(0); got != 0 {
		t.Errorf("x*0 = %v, want 0", got)
	}
}

func TestQuickMulAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		x := rng.Float64()*1.9 - 0.95
		y := rng.Float64()*1.9 - 0.95
		if math.Abs(x*y) >= 1 {
			continue
		}
		got := FromFloat(x).Mul(FromFloat(y)).Float()
		if math.Abs(got-x*y) > 3.0/float64(One) {
			t.Fatalf("mul(%v,%v) = %v, want %v", x, y, got, x*y)
		}
	}
}

func TestAcc64OrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = rng.Int63() - rng.Int63()
	}
	var fwd, rev Acc64
	for _, v := range vals {
		fwd = fwd.AddRaw(v)
	}
	for i := len(vals) - 1; i >= 0; i-- {
		rev = rev.AddRaw(vals[i])
	}
	if fwd != rev {
		t.Errorf("accumulator order dependence: %v vs %v", fwd, rev)
	}
}

func TestVec3AddWrapIsPBC(t *testing.T) {
	// Positions stored as box fractions in [-1,1): adding a displacement
	// that crosses the boundary wraps to the periodic image automatically.
	p := Vec3FromFloat(vec.V3{X: 0.9})
	d := Vec3FromFloat(vec.V3{X: 0.2})
	q := p.Add(d)
	if got := q.X.Float(); math.Abs(got-(-0.9)) > 1e-8 {
		t.Errorf("wrapped position: got %v, want -0.9", got)
	}
}

func TestVec3NegAntisymmetry(t *testing.T) {
	f := func(x, y, z int32) bool {
		v := Vec3{F32(x), F32(y), F32(z)}
		w := v.Neg()
		return v.Add(w).IsZero()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVec3Dot(t *testing.T) {
	a := Vec3FromFloat(vec.V3{X: 0.5, Y: 0.25, Z: -0.5})
	b := Vec3FromFloat(vec.V3{X: 0.5, Y: 0.5, Z: 0.5})
	want := 0.5*0.5 + 0.25*0.5 - 0.5*0.5
	if got := a.Dot(b).Float(); math.Abs(got-want) > 1e-8 {
		t.Errorf("dot: got %v, want %v", got, want)
	}
}

// refRoundShift is the three-way-switch RoundShift the branch-free form
// replaced, kept as the oracle.
func refRoundShift(x int64, s uint) int64 {
	if s == 0 {
		return x
	}
	half := int64(1) << (s - 1)
	mask := (int64(1) << s) - 1
	frac := x & mask
	q := x >> s
	switch {
	case frac > half:
		q++
	case frac == half:
		if q&1 != 0 {
			q++
		}
	}
	return q
}

func TestRoundShiftBitwiseMatchesReference(t *testing.T) {
	check := func(x int64, s uint) {
		t.Helper()
		if got, want := RoundShift(x, s), refRoundShift(x, s); got != want {
			t.Fatalf("RoundShift(%d, %d) = %d, reference %d", x, s, got, want)
		}
	}
	rng := rand.New(rand.NewSource(4))
	for s := uint(0); s <= 63; s++ {
		for _, x := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1} {
			check(x, s)
		}
		if s > 0 && s < 63 {
			// Exact ties on even and odd quotients of both signs, and
			// their neighbours one count either side.
			half := int64(1) << (s - 1)
			for _, q := range []int64{0, 1, 2, 3, -1, -2, -3, 1<<(62-s) - 1, -(1 << (62 - s))} {
				for _, dx := range []int64{-1, 0, 1} {
					check(q<<s+half+dx, s)
				}
			}
		}
		for i := 0; i < 20000; i++ {
			x := int64(rng.Uint64())
			check(x, s)
			check(x>>(rng.Intn(63)), s) // small magnitudes too
		}
	}
}

var sinkRound int64

func BenchmarkRoundShift(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]int64, 1<<12)
	for i := range xs {
		xs[i] = int64(rng.Uint64()) >> 18 // mantissa x tq magnitudes
	}
	b.ResetTimer()
	var acc int64
	for i := 0; i < b.N; i++ {
		acc += RoundShift(xs[i&(len(xs)-1)], 24)
	}
	sinkRound = acc
}
