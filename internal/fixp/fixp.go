// Package fixp implements the customized-precision fixed-point arithmetic
// that Anton uses throughout its ASIC (paper section 4).
//
// A B-bit signed fixed-point number represents 2^B evenly spaced values in
// [-1, 1). Addition and subtraction wrap in the natural way for
// twos-complement arithmetic, which makes summation associative: a
// collection of values can be added in any order and will produce the same
// bit pattern, and the sum is exact whenever the final result is
// representable, even if intermediate partial sums wrap (the paper's 4-bit
// example: 3/8 + 7/8 + (-5/8) = 5/8 regardless of order, although 3/8+7/8
// wraps to -3/4). This associativity is what gives Anton determinism,
// parallel invariance, and — together with symmetric rounding — exact time
// reversibility.
//
// The package provides:
//
//   - F32: the 32-bit [-1,1) format used for positions (in box fractions),
//     velocities and forces (with physical scale factors applied outside).
//   - Acc64: a 64-bit wrapping accumulator for intermediate force sums.
//   - RoundShift / quantization helpers implementing round-to-nearest/even,
//     the rounding rule used by all Anton datapaths (Figure 4 caption).
package fixp

import (
	"fmt"
	"math"
)

// FracBits is the number of fractional bits in the F32 format: an F32
// stores round(x * 2^FracBits) for x in [-1, 1).
const FracBits = 31

// One is the raw representation of +1.0 - ulp... more precisely, the scale
// factor 2^FracBits by which real values in [-1,1) are multiplied. The
// value +1.0 itself is not representable (the format covers [-1, 1)).
const One = int64(1) << FracBits

// F32 is a 32-bit signed fixed-point number in [-1, 1) with wrapping
// (associative) addition. The zero value is 0.0.
type F32 int32

// FromFloat converts x to F32 with round-to-nearest/even, wrapping if x is
// outside [-1, 1). Callers are responsible for scaling physical quantities
// so that they fit; wrap-on-overflow matches the hardware and is required
// for associativity.
func FromFloat(x float64) F32 {
	return F32(int32(int64(math.RoundToEven(x * float64(One)))))
}

// Float returns the real value represented by f.
func (f F32) Float() float64 { return float64(f) / float64(One) }

// Add returns f + g with twos-complement wrapping.
func (f F32) Add(g F32) F32 { return f + g }

// Sub returns f - g with twos-complement wrapping.
func (f F32) Sub(g F32) F32 { return f - g }

// Neg returns -f (wrapping: the most negative value negates to itself).
func (f F32) Neg() F32 { return -f }

// Mul returns f * g rounded to nearest/even. The product of two values in
// [-1,1) is in (-1,1], so apart from the single corner (-1)*(-1) the result
// does not overflow; that corner wraps, as on hardware.
func (f F32) Mul(g F32) F32 {
	p := int64(f) * int64(g) // Q2.62
	return F32(int32(RoundShift(p, FracBits)))
}

// MulRaw returns the full-precision 64-bit product (Q2.62) for feeding a
// wide accumulator without intermediate rounding.
func (f F32) MulRaw(g F32) int64 { return int64(f) * int64(g) }

// String implements fmt.Stringer.
func (f F32) String() string { return fmt.Sprintf("%.10f", f.Float()) }

// RoundShift shifts x right by s bits, rounding to nearest with ties to
// even — the rounding rule used throughout the Anton ASIC. It is odd-
// symmetric: RoundShift(-x, s) == -RoundShift(x, s) for all x whose
// negation does not overflow, which is what makes the integrator exactly
// reversible.
//
// Branch-free, for s in [0, 63]: with q the floor quotient and frac the
// discarded bits, q rounds up exactly when frac + (half-1) + (q odd)
// carries into bit s — frac > half, or frac == half on an odd q. The sum
// stays below 2^64 in unsigned arithmetic, so the identity holds for
// every int64; at s == 0 the mask zeroes all three terms.
func RoundShift(x int64, s uint) int64 {
	mask := uint64(1)<<s - 1
	q := x >> s // arithmetic shift: floor division
	return q + int64((uint64(x)&mask+mask>>1+uint64(q)&mask&1)>>s)
}

// Acc64 is a 64-bit wrapping accumulator. It accumulates raw Q2.62
// products (from MulRaw) or widened F32 values; the order of Accumulate
// calls never affects the result.
type Acc64 int64

// AddRaw accumulates a raw 64-bit value with wrapping.
func (a Acc64) AddRaw(x int64) Acc64 { return a + Acc64(x) }

// ToF32 rounds the accumulator back to F32 (dividing out the Q2.62 scale).
func (a Acc64) ToF32() F32 { return F32(int32(RoundShift(int64(a), FracBits))) }

// Float returns the accumulator interpreted at the Q2.62 product scale.
func (a Acc64) Float() float64 { return float64(a) / float64(One) / float64(One) }
