package vec

import (
	"math"
	"math/rand"
	"testing"
)

// minImage1Long is MinImage1 as it stood before the fast path: the
// round-and-wrap on every call. The oracle for the bitwise test below.
func minImage1Long(d, l float64) float64 {
	d -= l * math.Round(d/l)
	if d < -l/2 {
		d += l
	} else if d >= l/2 {
		d -= l
	}
	return d
}

// TestMinImage1FastPathBitwise compares MinImage1 with the long form bit
// for bit: the fast path's threshold and its neighbours, the half-ring,
// the ring itself, both zeros (the long form turns -0 into +0), subnormals,
// and 10^7 random displacements (10^5 with -short) on three box edges —
// the engine's 18.6 Å and 62.2 Å ones and an awkward non-dyadic one.
func TestMinImage1FastPathBitwise(t *testing.T) {
	check := func(d, l float64) {
		t.Helper()
		got, want := MinImage1(d, l), minImage1Long(d, l)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("MinImage1(%v [%#x], %v) = %v [%#x], long form %v [%#x]",
				d, math.Float64bits(d), l, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	sub := math.SmallestNonzeroFloat64
	for _, l := range []float64{18.6, 62.2, 1, 0.3, 1e-3, 7.0 / 3} {
		edges := []float64{0, 0.49 * l, l / 2, l, 0.49, 0.5, sub, 0x1p20 * sub, 0x1p-1022}
		for _, e := range edges {
			for _, s := range []float64{1, -1} {
				d := s * e // s = -1 on e = 0 gives -0
				check(d, l)
				up, down := math.Nextafter(d, math.Inf(1)), math.Nextafter(d, math.Inf(-1))
				check(up, l)
				check(down, l)
				check(math.Nextafter(up, math.Inf(1)), l)
				check(math.Nextafter(down, math.Inf(-1)), l)
			}
		}
	}
	n := 10_000_000
	if testing.Short() {
		n = 100_000
	}
	rng := rand.New(rand.NewSource(22))
	for _, l := range []float64{18.6, 62.2, 7.0 / 3} {
		for i := 0; i < n/3; i++ {
			// Mostly within a few rings of zero, where every branch of
			// both forms is live; every hundredth draw far outside.
			d := (rng.Float64()*4 - 2) * l
			if i%100 == 0 {
				d *= 1e6 * rng.Float64()
			}
			check(d, l)
		}
	}
}
