package ppip

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"anton/internal/ewald"
)

func TestRemezSin(t *testing.T) {
	c, maxErr, err := Remez(math.Sin, 0, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Known minimax error for cubic fit of sin on [0,1] is ~1e-4 or
	// better; verify equioscillation quality with a dense scan.
	worst := 0.0
	for i := 0; i <= 1000; i++ {
		x := float64(i) / 1000
		if e := math.Abs(polyEval(c, x) - math.Sin(x)); e > worst {
			worst = e
		}
	}
	if worst > 2e-4 {
		t.Errorf("cubic minimax of sin: max error %g too large", worst)
	}
	if maxErr > 0 && worst > maxErr*1.5 {
		t.Errorf("scan error %g inconsistent with reported %g", worst, maxErr)
	}
}

func TestRemezExactForPolynomials(t *testing.T) {
	// Fitting a cubic with a cubic must be (numerically) exact.
	f := func(x float64) float64 { return 2 - x + 3*x*x - 0.5*x*x*x }
	c, _, err := Remez(f, -1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, -1, 3, -0.5}
	for i := range want {
		if math.Abs(c[i]-want[i]) > 1e-9 {
			t.Errorf("coeff %d: got %g, want %g", i, c[i], want[i])
		}
	}
}

func TestRemezDegreeImproves(t *testing.T) {
	f := math.Exp
	_, e1, err := Remez(f, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, e3, err := Remez(f, 0, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if e3 >= e1/10 {
		t.Errorf("degree 3 error %g not much better than degree 1 %g", e3, e1)
	}
}

func TestRemezErrors(t *testing.T) {
	if _, _, err := Remez(math.Sin, 1, 0, 3); err == nil {
		t.Error("inverted interval accepted")
	}
	if _, _, err := Remez(math.Sin, 0, 1, 12); err == nil {
		t.Error("degree 12 accepted")
	}
}

func TestPaperScheme(t *testing.T) {
	if err := PaperScheme.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := PaperScheme.TotalEntries(); got != 240 {
		t.Errorf("paper scheme entries: got %d, want 240 (64+96+56+24)", got)
	}
}

func TestSchemeValidation(t *testing.T) {
	bad := Scheme{{Start: 0.1, End: 1, Entries: 4}}
	if err := bad.Validate(); err == nil {
		t.Error("scheme not starting at 0 accepted")
	}
	gap := Scheme{{Start: 0, End: 0.4, Entries: 4}, {Start: 0.5, End: 1, Entries: 4}}
	if err := gap.Validate(); err == nil {
		t.Error("scheme with gap accepted")
	}
	if err := (Scheme{}).Validate(); err == nil {
		t.Error("empty scheme accepted")
	}
	odd := Scheme{{Start: 0, End: 0.25, Entries: 16}, {Start: 0.25, End: 1, Entries: 10}}
	if err := odd.Validate(); err == nil || !strings.Contains(err.Error(), "power of two") {
		t.Errorf("non-power-of-two segment width: got %v", err)
	}
	// Tiers [0, 3/8) and [3/8, 1) have power-of-two widths, but the
	// second starts off a power of two, inside the exponent range
	// [1/4, 1/2) that would have to select both.
	offStart := Scheme{{Start: 0, End: 0.375, Entries: 3}, {Start: 0.375, End: 1, Entries: 5}}
	if err := offStart.Validate(); err == nil || !strings.Contains(err.Error(), "start") {
		t.Errorf("tier starting off a power of two: got %v", err)
	}
	subnormal := Scheme{{Start: 0, End: 0x1p-1070, Entries: 1}, {Start: 0x1p-1070, End: 1, Entries: 1}}
	if err := subnormal.Validate(); err == nil || !strings.Contains(err.Error(), "normal power of two") {
		t.Errorf("tier starting at a subnormal: got %v", err)
	}
}

func TestTableSegmentLookup(t *testing.T) {
	tab, err := Build(func(x float64) float64 { return x }, PaperScheme, 22)
	if err != nil {
		t.Fatal(err)
	}
	// Every x maps to a segment containing it.
	for i := 0; i <= 5000; i++ {
		x := float64(i) / 5001
		seg := tab.Segments[tab.segment(x)]
		if x < seg.Lo-1e-12 || x > seg.Hi+1e-12 {
			t.Fatalf("x=%g mapped to segment [%g,%g)", x, seg.Lo, seg.Hi)
		}
	}
	// Tier boundaries are denser at small x.
	w0 := tab.Segments[0].Hi - tab.Segments[0].Lo
	wLast := tab.Segments[len(tab.Segments)-1].Hi - tab.Segments[len(tab.Segments)-1].Lo
	if w0 >= wLast {
		t.Errorf("first segment (%g) not narrower than last (%g)", w0, wLast)
	}
}

func TestTableContinuity(t *testing.T) {
	// The continuity adjustment guarantees the float-coefficient table is
	// exactly continuous at segment boundaries.
	f := func(x float64) float64 { return math.Exp(-5 * x) }
	tab, err := Build(f, PaperScheme, 22)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(tab.Segments); i++ {
		left := polyEval(tab.FloatCoeffs[i-1][:], 1)
		right := polyEval(tab.FloatCoeffs[i][:], 0)
		if math.Abs(left-right) > 1e-12*(1+math.Abs(left)) {
			t.Fatalf("discontinuity at segment %d: %g vs %g", i, left, right)
		}
	}
}

func TestErfcForceTableAccuracy(t *testing.T) {
	// The paper reports numerical force errors of ~1e-5 of the rms force
	// (Table 4). The tabulated erfc force kernel with 22-bit mantissas
	// must reach relative errors of that order over the physical range.
	sigma := ewald.SigmaForCutoff(13, 1e-6)
	f := ErfcForceFunc(sigma, 13, 1.0)
	tab, err := Build(f, PaperScheme, 22)
	if err != nil {
		t.Fatal(err)
	}
	// Pointwise relative error over the physically sampled range (beyond
	// LJ contact, inside the cutoff).
	worstRel := 0.0
	for i := 0; i < 20000; i++ {
		r := 2.2 + (12.0-2.2)*float64(i)/20000
		x := (r / 13) * (r / 13)
		got := tab.Evaluate(x)
		want := f(x)
		rel := math.Abs(got-want) / (math.Abs(want) + 1e-30)
		if rel > worstRel {
			worstRel = rel
		}
	}
	if worstRel > 2e-4 {
		t.Errorf("erfc force table worst relative error %g", worstRel)
	}
	// More mantissa bits must not hurt: 22-bit beats 14-bit by a wide
	// margin (the hardware sized its datapaths this way).
	tab14, err := Build(f, PaperScheme, 14)
	if err != nil {
		t.Fatal(err)
	}
	worst14 := 0.0
	for i := 0; i < 5000; i++ {
		r := 2.2 + (12.0-2.2)*float64(i)/5000
		x := (r / 13) * (r / 13)
		rel := math.Abs(tab14.Evaluate(x)-f(x)) / (math.Abs(f(x)) + 1e-30)
		if rel > worst14 {
			worst14 = rel
		}
	}
	if worst14 < 5*worstRel {
		t.Errorf("14-bit table (%g) should be much worse than 22-bit (%g)", worst14, worstRel)
	}
}

func TestLJTableAccuracy(t *testing.T) {
	f12 := LJ12ForceFunc(13, 2.0)
	f6 := LJ6ForceFunc(13, 2.0)
	t12, err := Build(f12, PaperScheme, 22)
	if err != nil {
		t.Fatal(err)
	}
	t6, err := Build(f6, PaperScheme, 22)
	if err != nil {
		t.Fatal(err)
	}
	// Combined LJ force for a water-like pair across the physical range.
	sigma, eps := 3.15, 0.152
	// LJ spans ~10 orders of magnitude; use the paper's metric, error as a
	// fraction of the rms force over the sampled range.
	const n = 10000
	var rms float64
	for i := 0; i < n; i++ {
		r := 2.5 + (13.0-2.5)*float64(i)/n
		x := (r / 13) * (r / 13)
		w := CombineLJ(f12(x), f6(x), sigma, eps, 13)
		rms += w * w
	}
	rms = math.Sqrt(rms / n)
	worst := 0.0
	for i := 0; i < n; i++ {
		r := 2.5 + (13.0-2.5)*float64(i)/n
		x := (r / 13) * (r / 13)
		got := CombineLJ(t12.Evaluate(x), t6.Evaluate(x), sigma, eps, 13)
		want := CombineLJ(f12(x), f6(x), sigma, eps, 13)
		if e := math.Abs(got-want) / rms; e > worst {
			worst = e
		}
	}
	if worst > 1e-2 {
		t.Errorf("LJ table worst rms-normalized error %g", worst)
	}
}

func TestGaussianSpreadTable(t *testing.T) {
	g := GaussianSpreadFunc(1.0, 7.1)
	tab, err := Build(g, PaperScheme, 22)
	if err != nil {
		t.Fatal(err)
	}
	worst := tab.MaxError(g, 0, 20000)
	// Absolute error relative to the kernel peak.
	if worst > 1e-5*g(0) {
		t.Errorf("gaussian spread table error %g vs peak %g", worst, g(0))
	}
}

func TestBlockFloatingPointBounds(t *testing.T) {
	tab, err := Build(func(x float64) float64 { return math.Pow(x+1e-3, -4) }, PaperScheme, 19)
	if err != nil {
		t.Fatal(err)
	}
	half := int64(1) << (tab.MantissaBits - 1)
	for i, s := range tab.Segments {
		for _, m := range s.Mantissa {
			if m > half-1 || m < -half {
				t.Fatalf("segment %d mantissa %d outside %d-bit range", i, m, tab.MantissaBits)
			}
		}
	}
	// Dynamic range across segments shows up as widely varying exponents.
	minE, maxE := tab.Segments[0].Exp, tab.Segments[0].Exp
	for _, s := range tab.Segments {
		if s.Exp < minE {
			minE = s.Exp
		}
		if s.Exp > maxE {
			maxE = s.Exp
		}
	}
	if maxE-minE < 10 {
		t.Errorf("expected large exponent spread for x^-4, got %d..%d", minE, maxE)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(math.Sin, Scheme{{Start: 0.2, End: 1, Entries: 2}}, 22); err == nil {
		t.Error("invalid scheme accepted")
	}
	if _, err := Build(math.Sin, PaperScheme, 4); err == nil {
		t.Error("4-bit mantissa accepted")
	}
	// Build quantizes t to 24 bits: 28-bit mantissas are the widest the
	// float64 Horner carries exactly.
	if _, err := Build(math.Sin, PaperScheme, 28); err != nil {
		t.Errorf("28-bit mantissa: %v", err)
	}
	if _, err := Build(math.Sin, PaperScheme, 29); err == nil || !strings.Contains(err.Error(), "float64 Horner") {
		t.Errorf("29-bit mantissa at a 24-bit coordinate: got %v", err)
	}
}

func TestEvaluateMatchesFloatWithinQuantization(t *testing.T) {
	f := func(x float64) float64 { return math.Sqrt(x + 0.01) }
	tab, err := Build(f, PaperScheme, 22)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		x := float64(i) / 2000
		fx := tab.EvaluateFloat(x)
		qx := tab.Evaluate(x)
		// Quantization error bounded by a few ulps of the block format.
		seg := tab.Segments[tab.segment(x)]
		ulp := math.Exp2(float64(seg.Exp)) / float64(int64(1)<<(tab.MantissaBits-1))
		if math.Abs(fx-qx) > 8*ulp {
			t.Fatalf("x=%g: fixed %g vs float %g exceeds 8 ulp (%g)", x, qx, fx, ulp)
		}
	}
}

func TestTableSerializationRoundTrip(t *testing.T) {
	// Tables are prepared off-line and shipped to the machine; a loaded
	// table must evaluate bitwise identically to the original.
	f := func(x float64) float64 { return math.Exp(-3*x) + 0.1*x }
	tab, err := Build(f, PaperScheme, 22)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 5000; i++ {
		x := float64(i) / 5001
		if got, want := back.Evaluate(x), tab.Evaluate(x); got != want {
			t.Fatalf("x=%g: loaded table %v != original %v", x, got, want)
		}
	}
}

// garbageTable is an input ReadTable must reject, with the text its
// error must contain ("" for any error).
type garbageTable struct {
	name, want string
	data       []byte
}

// writtenTable returns a PaperScheme table as Write stores it, and
// corruptions of it that ReadTable must reject.
func writtenTable(tb testing.TB) ([]byte, []garbageTable) {
	tab, err := Build(math.Sin, PaperScheme, 22)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tab.Write(&buf); err != nil {
		tb.Fatal(err)
	}
	data := buf.Bytes()
	corrupt := func(edit func(b []byte)) []byte {
		b := append([]byte(nil), data...)
		edit(b)
		return b
	}
	// The header is five uint32s, then (Start, End, Entries) per tier,
	// then (Lo, Hi, four mantissas, Exp) per segment.
	const lastTierEntries = 20 + 3*20 + 16
	const firstSegHi = 20 + 4*20 + 8
	return data, []garbageTable{
		{name: "short input", data: []byte{1, 2, 3}},
		{name: "corrupt magic", data: corrupt(func(b []byte) { b[0] ^= 0xff })},
		// 23 entries over [1/4, 1) is not a power-of-two width.
		{name: "non-power-of-two tier width", want: "power of two",
			data: corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b[lastTierEntries:], 23) })},
		// A coordinate width (the header's fourth word) the datapath cannot carry.
		{name: "99-bit local coordinate", want: "coordinate width",
			data: corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 99) })},
		// Widths inside their own ranges whose sum the float64 Horner
		// cannot carry exactly.
		{name: "32-bit mantissas at a 30-bit coordinate", want: "float64 Horner",
			data: corrupt(func(b []byte) {
				binary.LittleEndian.PutUint32(b[8:], 32)
				binary.LittleEndian.PutUint32(b[12:], 30)
			})},
		// A mantissa wider than the header's 22 bits (segment 0's c0).
		{name: "mantissa outside its width", want: "22-bit range",
			data: corrupt(func(b []byte) { binary.LittleEndian.PutUint64(b[firstSegHi+8:], 1<<21) })},
		// A segment whose bounds are not the scheme's (first segment's Hi).
		{name: "segment bounds off the scheme", want: "scheme says",
			data: corrupt(func(b []byte) { binary.LittleEndian.PutUint64(b[firstSegHi:], math.Float64bits(0.5)) })},
	}
}

func TestReadTableRejectsGarbage(t *testing.T) {
	_, garbage := writtenTable(t)
	for _, g := range garbage {
		if _, err := ReadTable(bytes.NewReader(g.data)); err == nil || !strings.Contains(err.Error(), g.want) {
			t.Errorf("%s: got %v", g.name, err)
		}
	}
}

// FuzzReadTable: any input is rejected, or decodes to a table that
// writes back the bytes it was read from and evaluates on [0, 1) without
// panicking. (ReadTable ignores what follows the table, so those bytes
// are a prefix of the input.)
func FuzzReadTable(f *testing.F) {
	good, garbage := writtenTable(f)
	f.Add(good)
	for _, g := range garbage {
		f.Add(g.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := ReadTable(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tab.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatalf("decoded table writes back %d bytes that are not the input's first bytes", buf.Len())
		}
		for i := 0; i < 256; i++ {
			tab.Evaluate(float64(i) / 256)
		}
		tab.Evaluate(math.Nextafter(1, 0))
	})
}
