package ppip

import (
	"math"
	"math/rand"
	"testing"

	"anton/internal/ewald"
)

// The divide-based lookup the bit-sliced index replaced, kept verbatim as
// the oracle: a per-call width divide in the tier search, a second divide
// for the local coordinate, and the three-way-switch rounding.

func refSegmentIndex(t *Table, x float64) int {
	idx := 0
	for _, tier := range t.Scheme {
		if x < tier.End || tier.End == 1 {
			w := (tier.End - tier.Start) / float64(tier.Entries)
			e := int((x - tier.Start) / w)
			if e < 0 {
				e = 0
			}
			if e >= tier.Entries {
				e = tier.Entries - 1
			}
			return idx + e
		}
		idx += tier.Entries
	}
	return len(t.Segments) - 1
}

func refLocate(t *Table, x float64) (seg int, tq int64) {
	i := refSegmentIndex(t, x)
	s := &t.Segments[i]
	tt := (x - s.Lo) / (s.Hi - s.Lo)
	if tt < 0 {
		tt = 0
	} else if tt >= 1 {
		tt = math.Nextafter(1, 0)
	}
	return i, int64(math.RoundToEven(tt * float64(int64(1)<<t.TBits)))
}

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

func refEvaluateAt(t *Table, seg int, tq int64) float64 {
	s := &t.Segments[seg]
	acc := refRoundShift(s.Mantissa[3]*tq, t.TBits) + s.Mantissa[2]
	acc = refRoundShift(acc*tq, t.TBits) + s.Mantissa[1]
	acc = refRoundShift(acc*tq, t.TBits) + s.Mantissa[0]
	half := float64(int64(1) << (t.MantissaBits - 1))
	return float64(acc) / half * math.Exp2(float64(s.Exp))
}

// checkLookup asserts that the table locates and evaluates x exactly as
// the reference does: same segment, same quantized coordinate, same bits.
func checkLookup(t testing.TB, tab *Table, x float64) {
	t.Helper()
	seg, tq := tab.Locate(x)
	rseg, rtq := refLocate(tab, x)
	if seg != rseg || tq != rtq {
		t.Fatalf("Locate(%v [%#x]) = (%d, %d), reference (%d, %d)", x, math.Float64bits(x), seg, tq, rseg, rtq)
	}
	got, want := tab.EvaluateAt(seg, tq), refEvaluateAt(tab, rseg, rtq)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("EvaluateAt(%d, %d) at x=%v: %v [%#x], reference %v [%#x]",
			seg, tq, x, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if ev := tab.Evaluate(x); math.Float64bits(ev) != math.Float64bits(want) {
		t.Fatalf("Evaluate(%v) = %v, reference %v", x, ev, want)
	}
}

// mantissaWidths are the widths experiments.AblationMantissa sweeps; 22 is
// what every engine table uses.
var mantissaWidths = []uint{10, 14, 18, 22, 26}

// kernelFuncs is every kernel of kernels.go at the engine's parameters.
func kernelFuncs() []func(float64) float64 {
	sigma := ewald.SigmaForCutoff(13, 1e-6)
	return []func(float64) float64{
		ErfcForceFunc(sigma, 13, 0.9),
		ErfcEnergyFunc(sigma, 13, 0.9),
		LJ12ForceFunc(13, 1.1),
		LJ6ForceFunc(13, 1.1),
		GaussianSpreadFunc(1.0, 7.1),
	}
}

func TestLookupBitwiseMatchesReference(t *testing.T) {
	perTable := 400_000 // x 25 tables = 1e7 lookups
	if testing.Short() {
		perTable = 20_000
	}
	for _, f := range kernelFuncs() {
		for _, bits := range mantissaWidths {
			tab, err := Build(f, PaperScheme, bits)
			if err != nil {
				t.Fatal(err)
			}
			// Every segment edge and its neighbours one ulp either side,
			// the ends of [0,1), and what lies outside it.
			for _, s := range tab.Segments {
				for _, e := range []float64{s.Lo, s.Hi} {
					checkLookup(t, tab, e)
					checkLookup(t, tab, math.Nextafter(e, -1))
					checkLookup(t, tab, math.Nextafter(e, 2))
				}
			}
			// -NaN shares -Inf's sign and exponent bits yet belongs, like
			// every NaN, in the last tier.
			for _, x := range []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
				math.Nextafter(1, 0), 1, 1.5, -1e-300, -0.25, math.Inf(1), math.Inf(-1), math.NaN(),
				math.Float64frombits(0xfff8000000000001), -0x1p-1070} {
				checkLookup(t, tab, x)
			}
			// The largest double below each tier start: the top of the
			// exponent range that selects the tier before.
			for _, tier := range tab.Scheme[1:] {
				checkLookup(t, tab, math.Nextafter(tier.Start, 0))
			}
			rng := rand.New(rand.NewSource(int64(bits)))
			for i := 0; i < perTable/2; i++ {
				checkLookup(t, tab, rng.Float64())
				// Concentrated near 0, where the segments are narrowest.
				checkLookup(t, tab, math.Exp2(-30*rng.Float64()))
			}
		}
	}
}

func FuzzLocateMatchesReference(f *testing.F) {
	tab, err := Build(ErfcForceFunc(ewald.SigmaForCutoff(13, 1e-6), 13, 0.9), PaperScheme, 22)
	if err != nil {
		f.Fatal(err)
	}
	for _, x := range []float64{0, 1.0 / 128, 1.0 / 32, 0.25, math.Nextafter(0.25, 0), math.Nextafter(1, 0), 1, -1, 0.7} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		checkLookup(t, tab, x)
	})
}

// FuzzEvaluateAtMatchesReference hunts for a location — any segment of
// any kernel table at any mantissa width, any coordinate, also outside
// the [0, 2^TBits] Locate returns for non-NaN x — where the float64
// Horner and the integer reference disagree in a bit.
func FuzzEvaluateAtMatchesReference(f *testing.F) {
	var tabs []*Table
	for _, fn := range kernelFuncs() {
		for _, bits := range mantissaWidths {
			tab, err := Build(fn, PaperScheme, bits)
			if err != nil {
				f.Fatal(err)
			}
			tabs = append(tabs, tab)
		}
	}
	one := int64(1) << 24
	for i, tq := range []int64{0, 1, one / 2, one/2 + 1, one - 1, one, one + 1, -1, one << 8,
		math.MinInt64, math.MaxInt64} {
		f.Add(uint8(i), uint8(3), uint16(37*i), tq)
	}
	f.Fuzz(func(t *testing.T, kernel, width uint8, seg uint16, tq int64) {
		nw := len(mantissaWidths)
		tab := tabs[int(kernel)%(len(tabs)/nw)*nw+int(width)%nw]
		s := int(seg) % len(tab.Segments)
		got, want := tab.EvaluateAt(s, tq), refEvaluateAt(tab, s, tq)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%d-bit table, EvaluateAt(%d, %d) = %v [%#x], reference %v [%#x]",
				tab.MantissaBits, s, tq, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

var sinkEval float64

// BenchmarkTableEvaluate is the bench harness's ppip.evaluate_ns probe:
// one full lookup per x, x = (r/R)^2 for r uniform in [0.9 Å, R).
func BenchmarkTableEvaluate(b *testing.B) {
	tab, err := Build(ErfcForceFunc(ewald.SigmaForCutoff(13, 1e-6), 13, 0.9), PaperScheme, 22)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1<<16)
	for i := range xs {
		r := 0.9 + rng.Float64()*(13-0.9)
		xs[i] = r * r / (13 * 13)
	}
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += tab.Evaluate(xs[i&(len(xs)-1)])
	}
	sinkEval = acc
}
