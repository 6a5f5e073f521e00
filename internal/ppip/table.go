package ppip

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"anton/internal/fixp"
)

// Tier is one band of the tiered index scheme: Entries segments of equal
// width covering [Start, End) of the normalized squared distance
// x = (r/R)^2 in [0, 1). Narrower segments are allocated where the
// function varies rapidly (small r).
type Tier struct {
	Start, End float64
	Entries    int
}

// Scheme is a tiered segmentation of [0, 1).
type Scheme []Tier

// PaperScheme is the paper's example configuration: "64 entries for
// (r/R)^2 in [0, 1/128), 96 entries for [1/128, 1/32), 56 entries for
// [1/32, 1/4) and 24 entries for [1/4, 1)" — 240 segments total.
var PaperScheme = Scheme{
	{Start: 0, End: 1.0 / 128, Entries: 64},
	{Start: 1.0 / 128, End: 1.0 / 32, Entries: 96},
	{Start: 1.0 / 32, End: 1.0 / 4, Entries: 56},
	{Start: 1.0 / 4, End: 1, Entries: 24},
}

// Validate checks that the tiers tile [0, 1) contiguously and that every
// tier's segment width is a power of two. The hardware's tiered index is
// a bit-slice of x — the tier picks which bit field is the segment number
// and which is the local coordinate — and that only exists for
// power-of-two widths; it is also what makes the table's reciprocal-width
// multiplies exact.
func (s Scheme) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("ppip: empty scheme")
	}
	if s[0].Start != 0 {
		return fmt.Errorf("ppip: scheme must start at 0, got %g", s[0].Start)
	}
	for i, t := range s {
		if t.Entries <= 0 || t.End <= t.Start {
			return fmt.Errorf("ppip: tier %d invalid: %+v", i, t)
		}
		if i > 0 && s[i-1].End != t.Start {
			return fmt.Errorf("ppip: tier %d not contiguous: %g vs %g", i, s[i-1].End, t.Start)
		}
		if frac, _ := math.Frexp(t.width()); frac != 0.5 {
			return fmt.Errorf("ppip: tier %d segment width %g is not a power of two", i, t.width())
		}
	}
	if s[len(s)-1].End != 1 {
		return fmt.Errorf("ppip: scheme must end at 1, got %g", s[len(s)-1].End)
	}
	return nil
}

// width is the tier's segment width.
func (t Tier) width() float64 { return (t.End - t.Start) / float64(t.Entries) }

// TotalEntries returns the number of table segments.
func (s Scheme) TotalEntries() int {
	n := 0
	for _, t := range s {
		n += t.Entries
	}
	return n
}

// Segment is one table entry: a cubic polynomial in the segment-local
// coordinate t in [0, 1), stored block-floating-point — four mantissas
// sharing a single exponent, as in the hardware.
type Segment struct {
	Lo, Hi   float64  // normalized x-range of the segment
	Mantissa [4]int64 // c0..c3 mantissas, MantissaBits wide
	Exp      int      // shared power-of-two exponent
}

// Table is a complete PPIP function table: f(x) for x = (r/R)^2 in [0,1).
// Build and ReadTable are the only constructors; the exported fields
// describe the table (and are what Write stores) and must not be changed
// afterwards — lookups read a form derived from them once.
type Table struct {
	Scheme       Scheme
	Segments     []Segment
	MantissaBits uint // 19-22 in the hardware (Figure 4a)
	TBits        uint // fixed-point bits of the local coordinate t

	// FloatCoeffs retains the continuous (pre-quantization) piecewise
	// coefficients for error analysis.
	FloatCoeffs [][4]float64

	// The evaluated form of Scheme and Segments, derived by index.
	tiers []tierIndex
	segs  []segIndex
	one   float64 // 2^TBits
}

// tierIndex is one tier of the index as Locate reads it. The segment
// number within the tier is (x-start)*invW truncated: invW is the exact
// reciprocal of a power-of-two width (Scheme.Validate), so the product
// equals the quotient (x-start)/w bit for bit.
type tierIndex struct {
	start float64
	invW  float64
	base  int // index of the tier's first segment
	last  int // Entries-1
}

// segIndex is one segment as Locate and EvaluateAt read it: everything a
// lookup touches, in one cache line. rw = 2^TBits/width and scale =
// 2^Exp/2^(MantissaBits-1) are exact powers of two, so (x-lo)*rw is the
// TBits-scaled local coordinate and acc*scale the block-exponent output
// with no rounding of their own.
type segIndex struct {
	lo, rw float64
	m      [4]int64
	scale  float64
	_      [8]byte
}

// index derives the evaluated form from Scheme, Segments, MantissaBits
// and TBits, checking that the segment bounds are the ones the scheme
// implies (Locate indexes by the scheme and never reads them again).
func (t *Table) index() error {
	// A mantissa times a quantized coordinate must fit an int64.
	if t.MantissaBits < 8 || t.MantissaBits > 32 || t.TBits < 1 || t.TBits > 30 {
		return fmt.Errorf("ppip: mantissa width %d out of [8,32] or coordinate width %d out of [1,30]",
			t.MantissaBits, t.TBits)
	}
	t.one = float64(int64(1) << t.TBits)
	half := float64(int64(1) << (t.MantissaBits - 1))
	t.tiers = make([]tierIndex, len(t.Scheme))
	t.segs = make([]segIndex, len(t.Segments))
	i := 0
	for k, tier := range t.Scheme {
		w := tier.width()
		t.tiers[k] = tierIndex{start: tier.Start, invW: 1 / w, base: i, last: tier.Entries - 1}
		for e := 0; e < tier.Entries; e++ {
			s := &t.Segments[i]
			lo := tier.Start + float64(e)*w
			if s.Lo != lo || s.Hi != lo+w {
				return fmt.Errorf("ppip: segment %d spans [%g,%g), scheme says [%g,%g)", i, s.Lo, s.Hi, lo, lo+w)
			}
			t.segs[i] = segIndex{lo: lo, rw: t.one / w, m: s.Mantissa, scale: math.Exp2(float64(s.Exp)) / half}
			i++
		}
	}
	return nil
}

// Build fits the function f over [0,1) with per-segment minimax cubics,
// adjusts the constant terms for continuity across segment boundaries,
// and quantizes the coefficients to block floating point with the given
// mantissa width.
//
// A segment's fit reads nothing but its own interval, so the fits run on
// GOMAXPROCS goroutines and land by segment index; f must be safe for
// concurrent use (every kernel of kernels.go is). The continuity pass and
// the quantization run after all fits, in segment order, so the table is
// bit for bit the one a serial loop builds. If fits fail, the error of the
// lowest-index failing segment is returned.
func Build(f func(x float64) float64, scheme Scheme, mantissaBits uint) (*Table, error) {
	if err := scheme.Validate(); err != nil {
		return nil, err
	}
	t := &Table{Scheme: scheme, MantissaBits: mantissaBits, TBits: 24}
	var widths []float64
	for _, tier := range scheme {
		w := tier.width()
		for e := 0; e < tier.Entries; e++ {
			lo := tier.Start + float64(e)*w
			t.Segments = append(t.Segments, Segment{Lo: lo, Hi: lo + w})
			widths = append(widths, w)
		}
	}
	t.FloatCoeffs = make([][4]float64, len(t.Segments))
	errs := make([]error, len(t.Segments))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(t.Segments)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(t.Segments); i = int(next.Add(1)) - 1 {
				lo, w := t.Segments[i].Lo, widths[i]
				// Fit in the local coordinate t = (x-lo)/w so the narrow
				// datapath sees well-scaled arguments.
				c, _, err := remez(func(tt float64) float64 { return f(lo + tt*w) }, 0, 1, 3)
				copy(t.FloatCoeffs[i][:], c)
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Continuity (paper: "the coefficients are adjusted to make the
	// function continuous across segment boundaries"): pick each boundary
	// value as the average of the two adjacent fits, then apply a linear
	// correction within each segment so it hits both of its boundary
	// targets. The correction is local — at most the segment's own fit
	// error — so a poor fit in one segment (e.g. at the clamped core of a
	// divergent kernel) cannot leak into the rest of the table.
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
	// Block floating-point quantization.
	for i := range t.Segments {
		t.quantizeSegment(i)
	}
	if err := t.index(); err != nil {
		return nil, err
	}
	return t, nil
}

// quantizeSegment packs the four float coefficients of segment i into a
// shared-exponent block format.
func (t *Table) quantizeSegment(i int) {
	c := t.FloatCoeffs[i]
	maxAbs := 0.0
	for _, v := range c {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	exp := 0
	if maxAbs > 0 {
		exp = int(math.Floor(math.Log2(maxAbs))) + 1 // values fit in [-2^exp, 2^exp)
	}
	scale := math.Exp2(float64(exp))
	half := int64(1) << (t.MantissaBits - 1)
	seg := &t.Segments[i]
	seg.Exp = exp
	for j, v := range c {
		m := int64(math.RoundToEven(v / scale * float64(half)))
		if m > half-1 {
			m = half - 1
		}
		if m < -half {
			m = -half
		}
		seg.Mantissa[j] = m
	}
}

// segment returns the index of the segment containing normalized x in
// [0,1): the last tier that does not start above x (the outer tier first —
// it covers three quarters of [0,1)), then the tier's segment bit field.
// Out-of-range x clamps to the first or last segment.
func (t *Table) segment(x float64) int {
	tr := &t.tiers[0]
	for k := len(t.tiers) - 1; k > 0; k-- {
		if !(x < t.tiers[k].start) {
			tr = &t.tiers[k]
			break
		}
	}
	e := int((x - tr.start) * tr.invW)
	if e < 0 {
		e = 0
	} else if e > tr.last {
		e = tr.last
	}
	return tr.base + e
}

// Evaluate computes f(x) for normalized x = (r/R)^2 in [0,1) through the
// fixed-point pipeline: the local coordinate t is quantized to TBits, the
// cubic is evaluated by Horner's rule on integer mantissas with
// round-to-nearest/even after each multiply, and the block exponent is
// applied at the end. This is bit-faithful to the narrow-datapath
// evaluation style of Figure 4a.
func (t *Table) Evaluate(x float64) float64 {
	seg, tq := t.Locate(x)
	return t.EvaluateAt(seg, tq)
}

// Locate returns the segment index and the TBits-quantized local
// coordinate of x. The location depends only on the scheme and TBits, so
// a caller evaluating several kernels of the same x through tables built
// on the same scheme (as the PPIP's electrostatic and LJ tables are) can
// pay the tiered index lookup once and reuse it via EvaluateAt.
func (t *Table) Locate(x float64) (seg int, tq int64) {
	i := t.segment(x)
	s := &t.segs[i]
	// The local coordinate in units of 2^-TBits, clamped to [0, 1) before
	// rounding: the largest double below 1 rounds to 2^TBits itself.
	u := (x - s.lo) * s.rw
	if u < 0 {
		return i, 0
	}
	if u >= t.one {
		return i, int64(t.one)
	}
	// 0 <= u < 2^TBits: adding and subtracting 2^52 rounds to the nearest
	// integer, ties to even, as RoundToEven does.
	return i, int64(u + (1 << 52) - (1 << 52))
}

// EvaluateAt computes the table polynomial at a location obtained from
// Locate on a table with an identical scheme and TBits. Horner in
// integer arithmetic: acc and mantissas carry MantissaBits-1 fraction
// bits; each multiply by tq adds TBits, which RoundShift removes.
func (t *Table) EvaluateAt(seg int, tq int64) float64 {
	s := &t.segs[seg]
	tb := t.TBits & 63 // a no-op (index bounds TBits) that spares the shifts their range guards
	acc := fixp.RoundShift(s.m[3]*tq, tb) + s.m[2]
	acc = fixp.RoundShift(acc*tq, tb) + s.m[1]
	acc = fixp.RoundShift(acc*tq, tb) + s.m[0]
	return float64(acc) * s.scale
}

// EvaluateFloat computes f(x) from the continuous piecewise coefficients
// (no quantization) — the reference for isolating quantization error.
func (t *Table) EvaluateFloat(x float64) float64 {
	i := t.segment(x)
	s := &t.segs[i]
	return polyEval(t.FloatCoeffs[i][:], math.Ldexp((x-s.lo)*s.rw, -int(t.TBits)))
}

// MaxError measures the maximum absolute error of the fixed-point table
// against f over [xlo, 1) using a dense scan.
func (t *Table) MaxError(f func(float64) float64, xlo float64, samples int) float64 {
	worst := 0.0
	for i := 0; i < samples; i++ {
		x := xlo + (1-xlo)*(float64(i)+0.5)/float64(samples)
		if e := math.Abs(t.Evaluate(x) - f(x)); e > worst {
			worst = e
		}
	}
	return worst
}
