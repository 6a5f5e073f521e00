// Package ppip implements Anton's pairwise point interaction pipeline
// (PPIP) function evaluators (paper section 4, Figure 4a): arbitrary
// functions of the squared distance r^2 represented as tabulated
// piecewise-cubic polynomials with a tiered, non-uniform r^2 index,
// minimax coefficients computed by the Remez exchange algorithm, and
// block-floating-point coefficient storage evaluated on narrow (19-22
// bit) fixed-point datapaths.
package ppip

import (
	"fmt"
	"math"
)

// Remez computes the degree-n minimax polynomial approximation of f on
// [lo, hi] using the Remez exchange algorithm, returning the polynomial
// coefficients (c[0] + c[1]*x + ... + c[n]*x^n) and the equioscillation
// error bound. The paper's system-preparation software runs exactly this
// fit for every table segment.
func Remez(f func(float64) float64, lo, hi float64, degree int) (coeffs []float64, maxErr float64, err error) {
	if degree < 0 || degree > 8 {
		return nil, 0, fmt.Errorf("ppip: degree %d out of range [0,8]", degree)
	}
	if !(hi > lo) {
		return nil, 0, fmt.Errorf("ppip: invalid interval [%g, %g]", lo, hi)
	}
	n := degree
	m := n + 2 // reference points

	// Initial reference: Chebyshev extrema mapped to [lo, hi].
	ref := make([]float64, m)
	for i := 0; i < m; i++ {
		t := math.Cos(math.Pi * float64(m-1-i) / float64(m-1))
		ref[i] = lo + (hi-lo)*(t+1)/2
	}

	coeffs = make([]float64, n+1)
	for iter := 0; iter < 50; iter++ {
		// Solve for coefficients and E: p(x_i) + (-1)^i E = f(x_i).
		a := make([][]float64, m)
		b := make([]float64, m)
		for i := 0; i < m; i++ {
			row := make([]float64, m)
			x := ref[i]
			pw := 1.0
			for j := 0; j <= n; j++ {
				row[j] = pw
				pw *= x
			}
			sign := 1.0
			if i%2 == 1 {
				sign = -1
			}
			row[n+1] = sign
			a[i] = row
			b[i] = f(x)
		}
		sol, solveErr := solveLinear(a, b)
		if solveErr != nil {
			return nil, 0, fmt.Errorf("ppip: remez system singular on [%g,%g]: %w", lo, hi, solveErr)
		}
		copy(coeffs, sol[:n+1])
		e := math.Abs(sol[n+1])

		// Find the extremum of the error in each of the m intervals
		// delimited by the current reference (multi-point exchange).
		newRef := make([]float64, m)
		errAt := func(x float64) float64 { return polyEval(coeffs, x) - f(x) }
		worst := 0.0
		for i := 0; i < m; i++ {
			a0 := lo
			if i > 0 {
				a0 = ref[i-1]
			}
			b0 := hi
			if i < m-1 {
				b0 = ref[i+1]
			}
			x := goldenExtremum(errAt, a0, b0, errAt(ref[i]) >= 0)
			newRef[i] = x
			if ae := math.Abs(errAt(x)); ae > worst {
				worst = ae
			}
		}
		ref = newRef
		if worst <= e*(1+1e-9) || worst-e < 1e-15*(1+worst) {
			return coeffs, worst, nil
		}
		maxErr = worst
	}
	return coeffs, maxErr, nil
}

// remez is the fit Build runs per segment; a variable so tests can make
// chosen segments fail (no kernel makes Remez fail on [0, 1]).
var remez = Remez

// polyEval evaluates the polynomial at x by Horner's rule.
func polyEval(c []float64, x float64) float64 {
	v := 0.0
	for i := len(c) - 1; i >= 0; i-- {
		v = v*x + c[i]
	}
	return v
}

// goldenExtremum finds the maximum (or minimum, if maximize is false) of g
// on [a, b] by golden-section search after a coarse scan.
func goldenExtremum(g func(float64) float64, a, b float64, maximize bool) float64 {
	obj := g
	if !maximize {
		obj = func(x float64) float64 { return -g(x) }
	}
	// Coarse scan to bracket the extremum.
	const scan = 24
	bestX, bestV := a, obj(a)
	for i := 1; i <= scan; i++ {
		x := a + (b-a)*float64(i)/scan
		if v := obj(x); v > bestV {
			bestX, bestV = x, v
		}
	}
	lo := math.Max(a, bestX-(b-a)/scan)
	hi := math.Min(b, bestX+(b-a)/scan)
	const phi = 0.6180339887498949
	x1 := hi - phi*(hi-lo)
	x2 := lo + phi*(hi-lo)
	f1, f2 := obj(x1), obj(x2)
	for i := 0; i < 60 && hi-lo > 1e-14*(1+math.Abs(hi)); i++ {
		if f1 < f2 {
			lo, x1, f1 = x1, x2, f2
			x2 = lo + phi*(hi-lo)
			f2 = obj(x2)
		} else {
			hi, x2, f2 = x2, x1, f1
			x1 = hi - phi*(hi-lo)
			f1 = obj(x1)
		}
	}
	return (lo + hi) / 2
}

// solveLinear solves the dense system A x = b by Gaussian elimination with
// partial pivoting. Sizes are tiny (<= 10).
func solveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	// Augment.
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[p][col]) {
				p = r
			}
		}
		if math.Abs(m[p][col]) < 1e-300 {
			return nil, fmt.Errorf("singular at column %d", col)
		}
		m[col], m[p] = m[p], m[col]
		piv := m[col][col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			factor := m[r][col] / piv
			for c := col; c <= n; c++ {
				m[r][c] -= factor * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = m[i][n] / m[i][i]
	}
	return x, nil
}
