package fixp

import "math"

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

// Float converts to float64 (lossy; for reporting only).
func (a Acc128) Float() float64 {
	return float64(a.Hi)*math.Exp2(64) + float64(a.Lo)
}

// IsZero reports whether the accumulator is exactly zero.
func (a Acc128) IsZero() bool { return a.Hi == 0 && a.Lo == 0 }
