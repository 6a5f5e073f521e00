package ewald

import (
	"fmt"
	"math"

	"anton/internal/ff"
	"anton/internal/fft"
	"anton/internal/vec"
)

// SPME implements Smooth Particle Mesh Ewald (Essmann et al. 1995 — paper
// reference [7]), the long-range method used by the commodity MD codes the
// paper profiles (GROMACS, Desmond). Charge is assigned to the mesh with
// order-p cardinal B-splines; the separable, non-radial B-spline weights
// are exactly what makes SPME incompatible with Anton's distance-indexed
// PPIP tables, motivating GSE (paper §3.1).
type SPME struct {
	Split
	Nx, Ny, Nz int
	Order      int // B-spline order (4 or 6 typical)

	box  vec.Box
	mesh *fft.Grid3
	w    []float64 // influence function W(k), includes |b|^2 and Green factors

	// spls is the pooled per-atom spline scratch, cached between the
	// spread and force passes of one LongRange call and reused across
	// calls (grown once to the atom count; fixed-size weight arrays keep
	// the pool allocation-free at any supported order).
	spls []spmeSpline
}

// spmeSpline caches one atom's B-spline weights and derivatives. The
// arrays are sized for the maximum supported order (8).
type spmeSpline struct {
	j0x, j0y, j0z int
	wx, wy, wz    [8]float64
	dx, dy, dz    [8]float64
}

// NewSPME constructs an SPME solver.
func NewSPME(s Split, box vec.Box, nx, ny, nz, order int) (*SPME, error) {
	if !fft.IsPow2(nx) || !fft.IsPow2(ny) || !fft.IsPow2(nz) {
		return nil, fmt.Errorf("ewald: SPME mesh %dx%dx%d must be powers of two", nx, ny, nz)
	}
	if order < 2 || order > 8 {
		return nil, fmt.Errorf("ewald: SPME order %d out of [2,8]", order)
	}
	p := &SPME{
		Split: s,
		Nx:    nx, Ny: ny, Nz: nz,
		Order: order,
		box:   box,
		mesh:  fft.NewGrid3(nx, ny, nz),
	}
	p.buildInfluence()
	return p, nil
}

// bspline evaluates the order-p cardinal B-spline M_p at x (support (0,p)).
func bspline(p int, x float64) float64 {
	if x <= 0 || x >= float64(p) {
		return 0
	}
	if p == 2 {
		return 1 - math.Abs(x-1)
	}
	fp := float64(p)
	return x/(fp-1)*bspline(p-1, x) + (fp-x)/(fp-1)*bspline(p-1, x-1)
}

// bsplineDeriv evaluates dM_p/dx = M_{p-1}(x) - M_{p-1}(x-1).
func bsplineDeriv(p int, x float64) float64 {
	return bspline(p-1, x) - bspline(p-1, x-1)
}

// moduli returns |b(m)|^2 along one axis of length n: the Euler-exponential
// spline factors. For even orders the Nyquist mode has a vanishing
// denominator and is zeroed (its contribution is dropped, as in standard
// implementations).
func moduli(p, n int) []float64 {
	out := make([]float64, n)
	for m := 0; m < n; m++ {
		var re, im float64
		for j := 0; j <= p-2; j++ {
			ang := 2 * math.Pi * float64(m) * float64(j) / float64(n)
			w := bspline(p, float64(j+1))
			re += w * math.Cos(ang)
			im += w * math.Sin(ang)
		}
		d := re*re + im*im
		if d < 1e-10 {
			out[m] = 0
		} else {
			out[m] = 1 / d
		}
	}
	return out
}

// buildInfluence precomputes W(k) = (2*pi*k_C/V) * exp(-sigma^2 k^2/2)/k^2
// * |b1|^2 |b2|^2 |b3|^2, with W(0) = 0.
func (p *SPME) buildInfluence() {
	p.w = make([]float64, p.Nx*p.Ny*p.Nz)
	bx := moduli(p.Order, p.Nx)
	by := moduli(p.Order, p.Ny)
	bz := moduli(p.Order, p.Nz)
	gx := 2 * math.Pi / p.box.L.X
	gy := 2 * math.Pi / p.box.L.Y
	gz := 2 * math.Pi / p.box.L.Z
	pref := 2 * math.Pi * ff.CoulombK / p.box.Volume()
	for kz := 0; kz < p.Nz; kz++ {
		mz := fold(kz, p.Nz)
		for ky := 0; ky < p.Ny; ky++ {
			my := fold(ky, p.Ny)
			for kx := 0; kx < p.Nx; kx++ {
				mx := fold(kx, p.Nx)
				if mx == 0 && my == 0 && mz == 0 {
					continue
				}
				k2 := sq(float64(mx)*gx) + sq(float64(my)*gy) + sq(float64(mz)*gz)
				p.w[(kz*p.Ny+ky)*p.Nx+kx] = pref * math.Exp(-p.Sigma*p.Sigma*k2/2) / k2 *
					bx[kx] * by[ky] * bz[kz]
			}
		}
	}
}

// splineWeights fills w and dw with the order-p B-spline weights and
// derivatives for scaled coordinate u, and returns the first grid index
// j0 (unwrapped): grid points are j0..j0+p-1 with arguments u-j in (0,p).
func splineWeights(p int, u float64, w, dw []float64) int {
	j0 := int(math.Floor(u)) - (p - 1)
	for t := 0; t < p; t++ {
		x := u - float64(j0+t)
		w[t] = bspline(p, x)
		dw[t] = bsplineDeriv(p, x)
	}
	return j0
}

// LongRange computes the smooth Ewald component energy (including the self
// term — remove via Split.SelfEnergy) and accumulates forces into f when
// non-nil: Spread, Convolve, Interpolate.
func (p *SPME) LongRange(atoms []ff.Atom, r []vec.V3, f []vec.V3) float64 {
	p.Spread(atoms, r)
	energy := p.Convolve()
	if f != nil {
		p.Interpolate(atoms, f)
	}
	return energy
}

// Spread assigns the atom charges to the mesh with order-p B-splines,
// caching each atom's spline weights for Interpolate.
func (p *SPME) Spread(atoms []ff.Atom, r []vec.V3) {
	n := len(atoms)
	ord := p.Order
	// Per-atom spline data, cached between the spread and force passes
	// (pooled on the solver; reused across calls).
	if cap(p.spls) < n {
		p.spls = make([]spmeSpline, n)
	}
	spls := p.spls[:n]
	p.mesh.Zero()
	for i := 0; i < n; i++ {
		if atoms[i].Charge == 0 {
			continue
		}
		fr := p.box.Frac(r[i])
		ux := fr.X * float64(p.Nx)
		uy := fr.Y * float64(p.Ny)
		uz := fr.Z * float64(p.Nz)
		s := &spls[i]
		s.j0x = splineWeights(ord, ux, s.wx[:ord], s.dx[:ord])
		s.j0y = splineWeights(ord, uy, s.wy[:ord], s.dy[:ord])
		s.j0z = splineWeights(ord, uz, s.wz[:ord], s.dz[:ord])
		q := atoms[i].Charge
		for tz := 0; tz < ord; tz++ {
			kz := mod(s.j0z+tz, p.Nz)
			for ty := 0; ty < ord; ty++ {
				ky := mod(s.j0y+ty, p.Ny)
				wyz := s.wy[ty] * s.wz[tz]
				rowBase := (kz*p.Ny + ky) * p.Nx
				for tx := 0; tx < ord; tx++ {
					kx := mod(s.j0x+tx, p.Nx)
					p.mesh.Data[rowBase+kx] += complex(q*s.wx[tx]*wyz, 0)
				}
			}
		}
	}
}

// Convolve transforms the spread charge, applies the influence function
// and transforms back, returning the smooth energy
// E = sum_k W(k) |FFT(Q)(k)|^2; the mesh then holds
// phi/(2*N^3) = IFFT[W * FFT(Q)]. Call after Spread.
func (p *SPME) Convolve() float64 {
	p.mesh.Forward3()
	energy := 0.0
	for idx, w := range p.w {
		v := p.mesh.Data[idx]
		energy += w * (real(v)*real(v) + imag(v)*imag(v))
		p.mesh.Data[idx] = v * complex(w, 0)
	}
	p.mesh.Inverse3()
	return energy
}

// Interpolate gathers the mesh potential back onto the atoms with the
// spline weights Spread cached, accumulating forces into f. Call after
// Convolve, with the atoms passed to Spread.
func (p *SPME) Interpolate(atoms []ff.Atom, f []vec.V3) {
	ord := p.Order
	spls := p.spls[:len(atoms)]
	ntot := float64(p.Nx * p.Ny * p.Nz)
	for i := range atoms {
		q := atoms[i].Charge
		if q == 0 {
			continue
		}
		s := &spls[i]
		var gx, gy, gz float64 // dE/du per scaled coordinate
		for tz := 0; tz < ord; tz++ {
			kz := mod(s.j0z+tz, p.Nz)
			for ty := 0; ty < ord; ty++ {
				ky := mod(s.j0y+ty, p.Ny)
				rowBase := (kz*p.Ny + ky) * p.Nx
				for tx := 0; tx < ord; tx++ {
					kx := mod(s.j0x+tx, p.Nx)
					phi := 2 * ntot * real(p.mesh.Data[rowBase+kx])
					gx += phi * s.dx[tx] * s.wy[ty] * s.wz[tz]
					gy += phi * s.wx[tx] * s.dy[ty] * s.wz[tz]
					gz += phi * s.wx[tx] * s.wy[ty] * s.dz[tz]
				}
			}
		}
		// F = -dE/dr = -q * dE/du * du/dr, du/dx = N/L.
		f[i] = f[i].Add(vec.V3{
			X: -q * gx * float64(p.Nx) / p.box.L.X,
			Y: -q * gy * float64(p.Ny) / p.box.L.Y,
			Z: -q * gz * float64(p.Nz) / p.box.L.Z,
		})
	}
}
