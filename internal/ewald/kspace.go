package ewald

import (
	"math"

	"anton/internal/ff"
	"anton/internal/vec"
)

// ExactKSpace evaluates the smooth (long-range) Ewald component by the
// exact structure-factor sum over reciprocal lattice vectors:
//
//	E = (2*pi*k_C/V) * sum_{k != 0} exp(-sigma^2 k^2 / 2) / k^2 * |S(k)|^2
//	S(k) = sum_i q_i exp(i k . r_i)
//
// It is O(N * Kmax^3) and serves as the correctness oracle for the GSE and
// SPME mesh methods (and as the "extremely conservative parameters"
// double-precision reference of the paper's force-error methodology,
// §5.2). Forces are accumulated into f when it is non-nil.
func ExactKSpace(s Split, atoms []ff.Atom, box vec.Box, r []vec.V3, f []vec.V3, kmax int) float64 {
	n := len(atoms)
	vol := box.Volume()
	gx := 2 * math.Pi / box.L.X
	gy := 2 * math.Pi / box.L.Y
	gz := 2 * math.Pi / box.L.Z

	// Precompute per-atom phase tables e^{i m g x} for m in [-kmax, kmax].
	type phase struct{ re, im float64 }
	tab := func(coord func(vec.V3) float64, g float64) [][]phase {
		t := make([][]phase, n)
		for i := 0; i < n; i++ {
			t[i] = make([]phase, 2*kmax+1)
			for m := -kmax; m <= kmax; m++ {
				a := float64(m) * g * coord(r[i])
				t[i][m+kmax] = phase{math.Cos(a), math.Sin(a)}
			}
		}
		return t
	}
	px := tab(func(v vec.V3) float64 { return v.X }, gx)
	py := tab(func(v vec.V3) float64 { return v.Y }, gy)
	pz := tab(func(v vec.V3) float64 { return v.Z }, gz)

	energy := 0.0
	for mx := -kmax; mx <= kmax; mx++ {
		for my := -kmax; my <= kmax; my++ {
			for mz := -kmax; mz <= kmax; mz++ {
				if mx == 0 && my == 0 && mz == 0 {
					continue
				}
				kx := float64(mx) * gx
				ky := float64(my) * gy
				kz := float64(mz) * gz
				k2 := kx*kx + ky*ky + kz*kz
				w := math.Exp(-s.Sigma*s.Sigma*k2/2) / k2
				if w < 1e-16 {
					continue
				}
				// S(k) = sum q e^{ik.r}
				var sre, sim float64
				for i := 0; i < n; i++ {
					a, b := px[i][mx+kmax].re, px[i][mx+kmax].im
					c, d := py[i][my+kmax].re, py[i][my+kmax].im
					// (a+ib)(c+id)
					re := a*c - b*d
					im := a*d + b*c
					e, g := pz[i][mz+kmax].re, pz[i][mz+kmax].im
					re2 := re*e - im*g
					im2 := re*g + im*e
					q := atoms[i].Charge
					sre += q * re2
					sim += q * im2
				}
				pref := 2 * math.Pi * ff.CoulombK / vol * w
				energy += pref * (sre*sre + sim*sim)
				if f != nil {
					// F_i = -dE/dr_i = pref * 2 q_i [sin(k.r_i)*Sre - cos(k.r_i)*Sim] * k
					for i := 0; i < n; i++ {
						a, b := px[i][mx+kmax].re, px[i][mx+kmax].im
						c, d := py[i][my+kmax].re, py[i][my+kmax].im
						re := a*c - b*d
						im := a*d + b*c
						e, g := pz[i][mz+kmax].re, pz[i][mz+kmax].im
						cosk := re*e - im*g
						sink := re*g + im*e
						s2 := 2 * pref * atoms[i].Charge * (sink*sre - cosk*sim)
						f[i] = f[i].Add(vec.V3{X: s2 * kx, Y: s2 * ky, Z: s2 * kz})
					}
				}
			}
		}
	}
	return energy
}
