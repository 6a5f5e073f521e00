package fixp

import (
	"math"
	"math/rand"
	"testing"
)

func TestAcc128AddCarry(t *testing.T) {
	// Force a carry out of the low word.
	a := Acc128{Hi: 0, Lo: math.MaxUint64}
	b := a.AddInt64(1)
	if b.Hi != 1 || b.Lo != 0 {
		t.Errorf("carry: got %+v", b)
	}
	// And a borrow.
	c := Acc128{Hi: 1, Lo: 0}.AddInt64(-1)
	if c.Hi != 0 || c.Lo != math.MaxUint64 {
		t.Errorf("borrow: got %+v", c)
	}
}

func TestAcc128OrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]int64, 200)
	for i := range vals {
		vals[i] = rng.Int63() - rng.Int63()
	}
	var fwd, rev Acc128
	for _, v := range vals {
		fwd = fwd.AddInt64(v)
	}
	for i := len(vals) - 1; i >= 0; i-- {
		rev = rev.AddInt64(vals[i])
	}
	if fwd != rev {
		t.Errorf("Acc128 order dependence: %+v vs %+v", fwd, rev)
	}
}

func TestAcc128Float(t *testing.T) {
	a := Acc128{}.AddInt64(1 << 40)
	if got := a.Float(); math.Abs(got-math.Exp2(40)) > 1 {
		t.Errorf("Float: got %v", got)
	}
	n := Acc128{}.AddInt64(-(1 << 40))
	if got := n.Float(); math.Abs(got+math.Exp2(40)) > 1 {
		t.Errorf("Float negative: got %v", got)
	}
}
