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

// Validate checks that the tiers tile [0, 1) contiguously, that every
// tier after the first starts at a (normal) power of two and that every
// tier's segment width is a power of two. The hardware's tiered index is
// a bit-slice of x — x's exponent picks the tier, which picks the bit
// field that is the segment number and the one that is the local
// coordinate — and that only exists for power-of-two starts and widths;
// it is also what makes the table's reciprocal-width multiplies exact.
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
		if frac, _ := math.Frexp(t.Start); i > 0 && (frac != 0.5 || t.Start < 0x1p-1022) {
			return fmt.Errorf("ppip: tier %d start %g is not a normal power of two", i, t.Start)
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
	tiers  []tierIndex
	segs   []segIndex
	tierOf [1 << 12]uint16 // tier of x by x's sign and exponent bits
	one    float64         // 2^TBits
	invOne float64         // 2^-TBits
	maxTQ  uint64          // 2^TBits: the largest local coordinate Locate returns for non-NaN x
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
// with no rounding of their own. The mantissas are held as float64,
// which carries them exactly (index bounds them to MantissaBits): m3 as
// is, m0..m2 less roundHalfEven, so that each Horner step's mantissa add
// also takes out its rounding constant (see horner).
type segIndex struct {
	lo, rw float64
	m3     float64
	mc     [3]float64 // m0..m2 - roundHalfEven
	scale  float64
	_      [8]byte
}

// index derives the evaluated form from Scheme, Segments, MantissaBits
// and TBits, checking that the segment bounds are the ones the scheme
// implies (Locate indexes by the scheme and never reads them again) and
// that the mantissas fit MantissaBits.
func (t *Table) index() error {
	if t.MantissaBits < 8 || t.MantissaBits > 32 || t.TBits < 1 || t.TBits > 30 {
		return fmt.Errorf("ppip: mantissa width %d out of [8,32] or coordinate width %d out of [1,30]",
			t.MantissaBits, t.TBits)
	}
	// EvaluateAt's float64 Horner is exact only while every product of
	// the accumulator and the coordinate fits a double's 53 bits.
	if t.MantissaBits+t.TBits > 52 {
		return fmt.Errorf("ppip: mantissa width %d + coordinate width %d exceeds the 52 bits the float64 Horner evaluates exactly",
			t.MantissaBits, t.TBits)
	}
	t.one = float64(int64(1) << t.TBits)
	t.invOne = 1 / t.one
	t.maxTQ = uint64(1) << t.TBits
	half := int64(1) << (t.MantissaBits - 1)
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
			si := segIndex{lo: lo, rw: t.one / w, scale: math.Exp2(float64(s.Exp)) / float64(half)}
			for _, m := range s.Mantissa {
				if m < -half || m >= half {
					return fmt.Errorf("ppip: segment %d mantissa %d outside the %d-bit range", i, m, t.MantissaBits)
				}
			}
			si.m3 = float64(s.Mantissa[3])
			for j := range si.mc {
				si.mc[j] = float64(s.Mantissa[j]) - roundHalfEven
			}
			t.segs[i] = si
			i++
		}
	}
	// Every x of one sign and exponent lies in one tier: the tiers start
	// at powers of two no smaller than 2^-1022 (Scheme.Validate), so the
	// tier of x is the tier of 2^exponent (0 for subnormals). Negative x
	// falls below every start and lands in tier 0 — except NaN, which
	// segment sends to the last tier.
	for key := range t.tierOf {
		v := math.Float64frombits(uint64(key) << 52) // ±0, ±2^(exponent-1023) or ±Inf
		k := len(t.tiers) - 1
		for k > 0 && v < t.tiers[k].start {
			k--
		}
		t.tierOf[key] = uint16(k)
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
// [0,1): the tier its sign and exponent bits select, then the tier's
// segment bit field. Out-of-range x clamps to the first or last segment;
// NaN of either sign goes to the last tier (an exponent key alone would
// send -NaN, which shares -Inf's, to tier 0).
func (t *Table) segment(x float64) int {
	tr := &t.tiers[t.tierOf[math.Float64bits(x)>>52]]
	if x != x {
		tr = &t.tiers[len(t.tiers)-1]
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
	xs := [1]float64{x}
	t.EvaluateEach(xs[:])
	return xs[0]
}

// EvaluateEach replaces every x of xs with Evaluate(x): Locate then
// EvaluateAt, in one loop. A run of lookups in one call lets the
// processor overlap their independent dependency chains (the index, the
// coordinate, three Horner steps), and an in-range coordinate goes to
// horner as the integer-valued float64 it is rounded in, with no round
// trip through int64; any other x takes the two calls.
func (t *Table) EvaluateEach(xs []float64) {
	for i, x := range xs {
		seg := t.segment(x)
		s := &t.segs[seg]
		if u := (x - s.lo) * s.rw; u >= 0 && u < t.one {
			xs[i] = t.horner(seg, u+(1<<52)-(1<<52))
			continue
		}
		xs[i] = t.EvaluateAt(seg, t.coordinate(seg, x))
	}
}

// Locate returns the segment index and the TBits-quantized local
// coordinate of x, in [0, 2^TBits] for any x but NaN. The location
// depends only on the scheme and TBits, so a caller evaluating several
// kernels of the same x through tables built on the same scheme (as the
// PPIP's electrostatic and LJ tables are) can pay the tiered index lookup
// once and reuse it via EvaluateAt.
func (t *Table) Locate(x float64) (seg int, tq int64) {
	seg = t.segment(x)
	return seg, t.coordinate(seg, x)
}

// coordinate is x's local coordinate in segment seg in units of
// 2^-TBits, clamped to [0, 1) before rounding: the largest double below 1
// rounds to 2^TBits itself.
func (t *Table) coordinate(seg int, x float64) int64 {
	s := &t.segs[seg]
	u := (x - s.lo) * s.rw
	if u < 0 {
		return 0
	}
	if u >= t.one {
		return int64(t.one)
	}
	// 0 <= u < 2^TBits: adding and subtracting 2^52 rounds to the nearest
	// integer, ties to even, as RoundToEven does.
	return int64(u + (1 << 52) - (1 << 52))
}

// roundHalfEven is 1.5*2^52: y + roundHalfEven is roundHalfEven plus y
// rounded to the nearest integer, ties to even, for |y| < 2^51 (the sum
// lands in [2^52, 2^53), where a double's unit in the last place is 1,
// and roundHalfEven is even).
const roundHalfEven = 0x1.8p52

// EvaluateAt computes the table polynomial at a location obtained from
// Locate on a table with an identical scheme and TBits. It is Horner's
// rule on the integer mantissas, acc and mantissas carrying
// MantissaBits-1 fraction bits, each multiply by tq followed by a
// round-to-nearest/even shift right by TBits. horner carries that in
// float64 for tq in [0, 2^TBits]; only NaN x locates outside that range,
// and evaluateWide keeps the integer form for it.
func (t *Table) EvaluateAt(seg int, tq int64) float64 {
	if uint64(tq) > t.maxTQ {
		return t.evaluateWide(seg, tq)
	}
	return t.horner(seg, float64(tq))
}

// horner is EvaluateAt for an integer tq in [0, 2^TBits], passed as a
// float64, and carried out in float64, where every step is exact. A step
// multiplies acc by tq*2^-TBits, a product below 2^(MantissaBits+TBits+1)
// <= 2^53 that a double holds exactly (index checks the bound); adding
// roundHalfEven rounds it to an integer half to even; adding the next
// mantissa less roundHalfEven (segIndex.mc) takes the constant out again,
// exactly, since both sums are integers below 2^53. The result is
// fixp.RoundShift's integer Horner bit for bit. A compiler that fuses the
// multiply into the rounding add (an FMA) rounds the same way, since the
// product it leaves unrounded is exact.
func (t *Table) horner(seg int, tq float64) float64 {
	s := &t.segs[seg]
	u := tq * t.invOne
	acc := s.m3*u + roundHalfEven + s.mc[2]
	acc = acc*u + roundHalfEven + s.mc[1]
	acc = acc*u + roundHalfEven + s.mc[0]
	return acc * s.scale
}

// evaluateWide is EvaluateAt for a coordinate outside [0, 2^TBits] (what
// Locate returns for NaN x): the integer Horner, whose wrapping products
// define the bits there.
func (t *Table) evaluateWide(seg int, tq int64) float64 {
	s := &t.segs[seg]
	m0, m1, m2 := int64(s.mc[0]+roundHalfEven), int64(s.mc[1]+roundHalfEven), int64(s.mc[2]+roundHalfEven)
	acc := fixp.RoundShift(int64(s.m3)*tq, t.TBits) + m2
	acc = fixp.RoundShift(acc*tq, t.TBits) + m1
	acc = fixp.RoundShift(acc*tq, t.TBits) + m0
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
