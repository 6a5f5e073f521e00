// Package analysis implements the measurements the paper reports:
// energy drift in kcal/mol/DoF/µs (Table 4), total and numerical force
// errors as fractions of the rms force (§5.2, Table 4), backbone amide
// order parameters S² estimated from trajectories (Figure 6, method of
// reference [24]), native-contact fractions for folding/unfolding
// detection (Figure 7), RMSD with optimal superposition, and the radial
// distribution function of the water validation.
package analysis

import (
	"fmt"
	"math"

	"anton/internal/vec"
)

// LinearFit returns the least-squares slope and intercept of y(x).
func LinearFit(x, y []float64) (slope, intercept float64, err error) {
	n := len(x)
	if n != len(y) || n < 2 {
		return 0, 0, fmt.Errorf("analysis: need >= 2 matched points, got %d/%d", len(x), len(y))
	}
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	fn := float64(n)
	den := fn*sxx - sx*sx
	if den == 0 {
		return 0, 0, fmt.Errorf("analysis: degenerate x values")
	}
	slope = (fn*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / fn
	return slope, intercept, nil
}

// EnergyDrift computes the drift rate of a total-energy time series in
// kcal/mol/DoF/µs — the paper's Table 4 metric. times are in femtoseconds.
func EnergyDrift(timesFs, energies []float64, dof int) (float64, error) {
	if dof <= 0 {
		return 0, fmt.Errorf("analysis: non-positive DoF %d", dof)
	}
	slope, _, err := LinearFit(timesFs, energies) // kcal/mol per fs
	if err != nil {
		return 0, err
	}
	return math.Abs(slope) * 1e9 / float64(dof), nil // per µs per DoF
}

// ForceError returns the rms deviation between two force sets as a
// fraction of the rms reference force — the paper's "total force error"
// (vs a conservative reference) or "numerical force error" (vs the same
// parameters in double precision), Table 4.
func ForceError(forces, reference []vec.V3) (float64, error) {
	if len(forces) != len(reference) || len(forces) == 0 {
		return 0, fmt.Errorf("analysis: mismatched force sets %d/%d", len(forces), len(reference))
	}
	var num, den float64
	for i := range forces {
		num += forces[i].Sub(reference[i]).Norm2()
		den += reference[i].Norm2()
	}
	if den == 0 {
		return 0, fmt.Errorf("analysis: zero reference forces")
	}
	return math.Sqrt(num / den), nil
}

// Mean returns the arithmetic mean.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}
