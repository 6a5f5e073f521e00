package fixp

import (
	"fmt"
	"math"
)

// Format describes an arbitrary-width fixed-point representation used to
// model the HTIS's narrow internal datapaths (paper Figure 4): 8-bit
// low-precision distance checks, 19- to 22-bit function-evaluator paths,
// 26-bit position offsets, and so on. A Format with Bits=B represents 2^B
// evenly spaced values of x/Scale in [-1, 1); i.e. representable physical
// values are k * Scale / 2^(B-1) for integer k in [-2^(B-1), 2^(B-1)).
type Format struct {
	Bits  uint    // total width including sign, 2..63
	Scale float64 // physical value corresponding to 1.0 in the unit format
}

// NewFormat returns a Format after validating the width.
func NewFormat(bits uint, scale float64) Format {
	if bits < 2 || bits > 63 {
		panic(fmt.Sprintf("fixp: format width %d out of range [2,63]", bits))
	}
	if scale <= 0 || math.IsInf(scale, 0) || math.IsNaN(scale) {
		panic(fmt.Sprintf("fixp: invalid format scale %v", scale))
	}
	return Format{Bits: bits, Scale: scale}
}

// Quantize converts a physical value to its raw integer representation,
// rounding to nearest/even and wrapping modulo 2^Bits (twos complement), as
// the hardware does.
func (f Format) Quantize(x float64) int64 {
	raw := int64(math.RoundToEven(x / f.Scale * float64(int64(1)<<(f.Bits-1))))
	return f.Wrap(raw)
}

// QuantizeSat is like Quantize but saturates instead of wrapping; used for
// the few saturating paths in the model.
func (f Format) QuantizeSat(x float64) int64 {
	raw := int64(math.RoundToEven(x / f.Scale * float64(int64(1)<<(f.Bits-1))))
	max := f.MaxRaw()
	min := f.MinRaw()
	if raw > max {
		return max
	}
	if raw < min {
		return min
	}
	return raw
}

// Value converts a raw integer back to a physical value.
func (f Format) Value(raw int64) float64 {
	return float64(raw) * f.Scale / float64(int64(1)<<(f.Bits-1))
}

// Wrap reduces raw modulo 2^Bits into the signed range.
func (f Format) Wrap(raw int64) int64 {
	mask := int64(1)<<f.Bits - 1
	raw &= mask
	if raw >= int64(1)<<(f.Bits-1) {
		raw -= int64(1) << f.Bits
	}
	return raw
}

// MaxRaw returns the most positive representable raw value, 2^(Bits-1)-1.
func (f Format) MaxRaw() int64 { return int64(1)<<(f.Bits-1) - 1 }

// MinRaw returns the most negative representable raw value, -2^(Bits-1).
func (f Format) MinRaw() int64 { return -(int64(1) << (f.Bits - 1)) }

// Resolution returns the physical spacing between adjacent representable
// values.
func (f Format) Resolution() float64 { return f.Scale / float64(int64(1)<<(f.Bits-1)) }

// Acc128 models Anton's wide (86-bit class) accumulators used for virials
// (Figure 4c): a 128-bit twos-complement integer built from two 64-bit
// words. Addition wraps at 128 bits, so it remains associative, and 86-bit
// physical quantities never overflow in practice.
type Acc128 struct {
	Hi int64  // upper 64 bits (signed)
	Lo uint64 // lower 64 bits
}

// AddInt64 accumulates a signed 64-bit value (sign-extended to 128 bits)
// with carry propagation and 128-bit wrapping.
func (a Acc128) AddInt64(x int64) Acc128 {
	return add128(a, Acc128{Hi: signExt(x), Lo: uint64(x)})
}

func signExt(x int64) int64 {
	if x < 0 {
		return -1
	}
	return 0
}

func add128(a, b Acc128) Acc128 {
	lo := a.Lo + b.Lo
	carry := uint64(0)
	if lo < a.Lo {
		carry = 1
	}
	return Acc128{Hi: a.Hi + b.Hi + int64(carry), Lo: lo}
}

// Add accumulates another Acc128 with 128-bit wrapping.
func (a Acc128) Add(b Acc128) Acc128 { return add128(a, b) }

// Neg returns the twos-complement negation.
func (a Acc128) Neg() Acc128 {
	lo := ^a.Lo + 1
	hi := ^a.Hi
	if lo == 0 {
		hi++
	}
	return Acc128{Hi: hi, Lo: lo}
}

// Float converts to float64 (lossy; for reporting only).
func (a Acc128) Float() float64 {
	return float64(a.Hi)*math.Exp2(64) + float64(a.Lo)
}

// IsZero reports whether the accumulator is exactly zero.
func (a Acc128) IsZero() bool { return a.Hi == 0 && a.Lo == 0 }

// Cmp compares two accumulators as signed 128-bit integers: -1, 0, or +1.
func (a Acc128) Cmp(b Acc128) int {
	if a.Hi != b.Hi {
		if a.Hi < b.Hi {
			return -1
		}
		return 1
	}
	if a.Lo != b.Lo {
		if a.Lo < b.Lo {
			return -1
		}
		return 1
	}
	return 0
}
