// Package htis models the datapath of Anton's high-throughput interaction
// subsystem: the match unit's low-precision distance check (paper Figure
// 4b), the functional fixed-point pair-force pipeline of one PPIP built on
// the ppip function tables, and PairStats, the counts of the work they
// did. The HTIS's clocks, PPIP count and throughput live in package
// machine.
package htis

import (
	"math"

	"anton/internal/fixp"
)

// MatchUnit performs the low-precision distance check that decides whether
// a (tower atom, plate atom) pair may need to interact. The hardware uses
// 8-bit datapaths (Figure 4b); to guarantee that no within-cutoff pair is
// ever dropped, the check is conservative: coordinates are truncated to
// `bits` bits and the comparison thresholds are expanded by the worst-case
// truncation error. Pairs that pass move through the concentrator into the
// PPIP input queue, where the full-precision cutoff test decides the
// actual interaction. The whole check runs in narrow integer arithmetic,
// as in the hardware.
type MatchUnit struct {
	// MarginFrac is the per-component low-precision quantization step in
	// box fractions.
	MarginFrac float64

	bits    uint
	shift   uint  // right-shift from F32 raw to low-precision integer
	limAxis int64 // per-axis reject threshold, low-precision units
	limR2   int64 // conservative squared radial threshold, low-precision units
}

// NewMatchUnit builds a match unit for a cubic box of edge boxL and the
// given cutoff, checking with the given coordinate precision (8 bits in
// the hardware). boxL is the physical length corresponding to one unit of
// the stored fraction format.
func NewMatchUnit(boxL, cutoff float64, bits uint) *MatchUnit {
	cf := cutoff / boxL
	// Keeping the top `bits` bits of the [-1,1) fraction format gives a
	// quantization step of 2^(1-bits) box fractions.
	margin := 1.0 / float64(int64(1)<<(bits-1))
	limAxisF := cf + margin
	limRF := cf + math.Sqrt(3)*margin // worst-case truncation of all 3 axes
	scale := float64(int64(1) << (bits - 1))
	return &MatchUnit{
		MarginFrac: margin,
		bits:       bits,
		shift:      fixp.FracBits + 1 - bits,
		limAxis:    int64(math.Ceil(limAxisF * scale)),
		limR2:      int64(math.Ceil(limRF * limRF * scale * scale)),
	}
}

// MayInteract reports whether the pair with fixed-point displacement d
// (box fractions, already minimum-image by wrapping) might be within the
// cutoff. False positives are expected (they waste a PPIP input slot);
// false negatives never occur (tested as an invariant). Pure integer
// arithmetic, matching the hardware datapath.
func (m *MatchUnit) MayInteract(d fixp.Vec3) bool {
	dx := absInt(int64(int32(d.X) >> m.shift))
	dy := absInt(int64(int32(d.Y) >> m.shift))
	dz := absInt(int64(int32(d.Z) >> m.shift))
	// Cheap per-axis reject first, as the hardware does. The arithmetic
	// shift truncates toward negative infinity, so a truncated magnitude
	// may exceed the true one by at most one step — covered by the
	// margins baked into the thresholds.
	if dx > m.limAxis || dy > m.limAxis || dz > m.limAxis {
		return false
	}
	return dx*dx+dy*dy+dz*dz <= m.limR2
}

// Thresholds exposes the low-precision datapath constants so a hot pair
// loop can hoist them into registers and perform the check inline;
// callers must apply exactly the MayInteract arithmetic.
func (m *MatchUnit) Thresholds() (shift uint, limAxis, limR2 int64) {
	return m.shift, m.limAxis, m.limR2
}

func absInt(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
