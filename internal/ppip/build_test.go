package ppip

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"anton/internal/ewald"
	"anton/internal/system"
)

// refBuild is Build as a serial loop, the parallel fit's oracle: one fit
// after another in segment order, returning the first failing fit's
// error.
func refBuild(f func(x float64) float64, scheme Scheme, mantissaBits uint) (*Table, error) {
	if err := scheme.Validate(); err != nil {
		return nil, err
	}
	t := &Table{Scheme: scheme, MantissaBits: mantissaBits, TBits: 24}
	for _, tier := range scheme {
		w := tier.width()
		for e := 0; e < tier.Entries; e++ {
			lo := tier.Start + float64(e)*w
			hi := lo + w
			g := func(tt float64) float64 { return f(lo + tt*w) }
			c, _, err := remez(g, 0, 1, 3)
			if err != nil {
				return nil, err
			}
			var c4 [4]float64
			copy(c4[:], c)
			t.FloatCoeffs = append(t.FloatCoeffs, c4)
			t.Segments = append(t.Segments, Segment{Lo: lo, Hi: hi})
		}
	}
	n := len(t.FloatCoeffs)
	bnd := make([]float64, n+1)
	bnd[0] = polyEval(t.FloatCoeffs[0][:], 0)
	bnd[n] = polyEval(t.FloatCoeffs[n-1][:], 1)
	for i := 1; i < n; i++ {
		left := polyEval(t.FloatCoeffs[i-1][:], 1)
		right := polyEval(t.FloatCoeffs[i][:], 0)
		bnd[i] = (left + right) / 2
	}
	for i := 0; i < n; i++ {
		c := &t.FloatCoeffs[i]
		lo := polyEval(c[:], 0)
		hi := polyEval(c[:], 1)
		a := bnd[i] - lo
		c[0] += a
		c[1] += bnd[i+1] - (hi + a)
	}
	for i := range t.Segments {
		t.quantizeSegment(i)
	}
	if err := t.index(); err != nil {
		return nil, err
	}
	return t, nil
}

// engineKernels are the five tables an engine of the `small` system
// builds (cutoff 7 Å, Ewald tolerance 1e-5, r_spread system.RSpreadFor(7)).
func engineKernels() []Kernel {
	const cutoff = 7.0
	sigma := ewald.SigmaForCutoff(cutoff, 1e-5)
	return []Kernel{
		{Kind: ErfcForce, Sigma: sigma, RCut: cutoff, RMin: 0.9},
		{Kind: ErfcEnergy, Sigma: sigma, RCut: cutoff, RMin: 0.9},
		{Kind: LJ12, RCut: cutoff, RMin: 1.1},
		{Kind: LJ6, RCut: cutoff, RMin: 1.1},
		{Kind: GaussianSpread, Sigma: sigma / math.Sqrt2, RCut: system.RSpreadFor(cutoff)},
	}
}

// requireTablesBitwise fails unless the two tables have the same segments
// and float coefficients bit for bit and evaluate identically on a dense
// x grid over [0, 1).
func requireTablesBitwise(t *testing.T, name string, got, want *Table) {
	t.Helper()
	if len(got.Segments) != len(want.Segments) || len(got.FloatCoeffs) != len(want.FloatCoeffs) {
		t.Fatalf("%s: %d segments / %d coefficient rows, reference %d / %d", name,
			len(got.Segments), len(got.FloatCoeffs), len(want.Segments), len(want.FloatCoeffs))
	}
	for i, s := range got.Segments {
		w := want.Segments[i]
		if math.Float64bits(s.Lo) != math.Float64bits(w.Lo) || math.Float64bits(s.Hi) != math.Float64bits(w.Hi) ||
			s.Mantissa != w.Mantissa || s.Exp != w.Exp {
			t.Fatalf("%s: segment %d is %+v, reference %+v", name, i, s, w)
		}
		for j, c := range got.FloatCoeffs[i] {
			if math.Float64bits(c) != math.Float64bits(want.FloatCoeffs[i][j]) {
				t.Fatalf("%s: segment %d coefficient %d is %v, reference %v", name, i, j, c, want.FloatCoeffs[i][j])
			}
		}
	}
	const samples = 1 << 16
	for i := 0; i < samples; i++ {
		x := float64(i) / samples
		if g, w := got.Evaluate(x), want.Evaluate(x); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: Evaluate(%v) = %v, reference %v", name, x, g, w)
		}
	}
}

// TestBuildParallelBitwise: the parallel fit builds every engine table
// bit for bit as the serial loop does, and on failing fits returns the
// same error — the lowest-index failing segment's.
func TestBuildParallelBitwise(t *testing.T) {
	// More workers than this host may have CPUs, so fits finish out of
	// segment order.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, k := range engineKernels() {
		f, err := k.fn()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Build(f, PaperScheme, 22)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refBuild(f, PaperScheme, 22)
		if err != nil {
			t.Fatal(err)
		}
		requireTablesBitwise(t, fmt.Sprintf("kernel %+v", k), got, want)
	}

	// Make the fits of segment 100 and of every segment from 1/32 on
	// fail, each naming its segment: f(x) = x makes g(0) the segment's lo.
	// Segment 100 fails last in time, after the later segments have.
	seg100 := PaperScheme[1].Start + 36*PaperScheme[1].width()
	orig := remez
	defer func() { remez = orig }()
	remez = func(g func(float64) float64, lo, hi float64, degree int) ([]float64, float64, error) {
		switch x := g(0); {
		case x == seg100:
			time.Sleep(20 * time.Millisecond)
			fallthrough
		case x >= 1.0/32:
			return nil, 0, fmt.Errorf("fit failed at x=%v", x)
		}
		return Remez(g, lo, hi, degree)
	}
	identity := func(x float64) float64 { return x }
	_, err := Build(identity, PaperScheme, 22)
	_, refErr := refBuild(identity, PaperScheme, 22)
	if err == nil || refErr == nil || err.Error() != refErr.Error() {
		t.Fatalf("failing fits: Build returned %v, the serial loop %v", err, refErr)
	}
	if want := fmt.Sprintf("fit failed at x=%v", seg100); err.Error() != want {
		t.Fatalf("failing fits: got %q, want segment 100's %q", err, want)
	}
}

// BenchmarkBuild is one cold fit of the erfc force table at DHFR's
// parameters: what the bench harness's ppip.build_ms times.
func BenchmarkBuild(b *testing.B) {
	f := ErfcForceFunc(ewald.SigmaForCutoff(13, 1e-5), 13, 0.9)
	for i := 0; i < b.N; i++ {
		if _, err := Build(f, PaperScheme, 22); err != nil {
			b.Fatal(err)
		}
	}
}
