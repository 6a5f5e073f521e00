package core

import (
	"fmt"
	"math"

	"anton/internal/ewald"
	"anton/internal/ff"
	"anton/internal/fft"
	"anton/internal/htis"
	"anton/internal/ppip"
	"anton/internal/system"
	"anton/internal/vec"
)

// ChargeQuantum is the fixed-point resolution of the mesh charge density
// (e/Å^3 per count). Spread contributions are quantized to this unit and
// accumulated with wrapping integer addition, so the mesh contents are
// independent of the order in which nodes deliver their contributions —
// the same property force accumulation has.
const ChargeQuantum = 1.0 / (1 << 34)

// meshSolver runs the Gaussian Split Ewald long-range computation the way
// Anton does: charge spreading and force interpolation are atom-to-mesh-
// point "interactions" evaluated through a tabulated radially symmetric
// kernel on the HTIS (§3.1, Figure 3c), with the convolution done by the
// distributed FFT (which is bitwise identical to the serial transform —
// see fft.Dist3 — so any node count yields the same potential).
type meshSolver struct {
	split   ewald.Split
	n       int     // mesh points per axis
	h       float64 // mesh spacing, Å
	invH    float64 // 1/h (row-extent estimates only; never decides a point)
	rspread float64 // spreading/interpolation cutoff, Å
	sigma1  float64 // per-stage Gaussian width = sigma/sqrt(2)
	l       float64 // box edge

	weightTab *ppip.Table // spreading kernel w((d/rspread)^2), PPIP-tabulated
	green     []float64   // Green's function on the k-mesh
	counts    []int64     // fixed-point mesh charge accumulator
	mesh      *fft.Grid3  // float mesh for the convolution
}

func newMeshSolver(s *system.System, split ewald.Split) (*meshSolver, error) {
	n := s.Mesh
	ms := &meshSolver{
		split:   split,
		n:       n,
		h:       s.Box.L.X / float64(n),
		invH:    float64(n) / s.Box.L.X,
		rspread: s.RSpread,
		sigma1:  split.Sigma / math.Sqrt2,
		l:       s.Box.L.X,
		counts:  make([]int64, n*n*n),
		mesh:    fft.NewGrid3(n, n, n),
	}
	// The spread/interpolate inner loops stage per-axis index and
	// displacement tables in fixed-size stack arrays (concurrency-safe
	// with zero allocations); reject configurations whose spreading
	// radius would overflow them.
	if span := 2*int(math.Ceil(ms.rspread/ms.h)) + 3; span > meshAxisMax {
		return nil, fmt.Errorf("core: mesh spreading span %d exceeds %d points per axis (rspread %.2f, h %.2f)",
			span, meshAxisMax, ms.rspread, ms.h)
	}
	// An axis table runs from just under p-rspread-h to just under
	// p+rspread+h. Once that reaches the box edge it wraps onto itself:
	// one mesh point enters an atom's cube twice (both copies at the same
	// minimum-image displacement) and the displacements stop rising along
	// the table, which the row extents of meshIter.row rely on.
	if 2*(ms.rspread+ms.h) >= ms.l {
		return nil, fmt.Errorf("core: mesh spreading diameter %.2f (rspread %.2f + mesh spacing %.2f, twice) reaches the box edge %.2f",
			2*(ms.rspread+ms.h), ms.rspread, ms.h, ms.l)
	}
	// The spreading kernel as a PPIP table of x = (d/rspread)^2, shared
	// by every mesh solver of equal σ₁ and rspread.
	var err error
	ms.weightTab, err = ppip.TableFor(
		ppip.Kernel{Kind: ppip.GaussianSpread, Sigma: ms.sigma1, RCut: ms.rspread}, ppip.PaperScheme, 22)
	if err != nil {
		return nil, err
	}
	// Green's function k_C*4*pi/k^2 (tinfoil boundary, zero at k=0).
	ms.green = make([]float64, n*n*n)
	g := 2 * math.Pi / s.Box.L.X
	for kz := 0; kz < n; kz++ {
		mz := foldMode(kz, n)
		for ky := 0; ky < n; ky++ {
			my := foldMode(ky, n)
			for kx := 0; kx < n; kx++ {
				mx := foldMode(kx, n)
				if mx == 0 && my == 0 && mz == 0 {
					continue
				}
				k2 := float64(mx*mx+my*my+mz*mz) * g * g
				ms.green[(kz*n+ky)*n+kx] = ff.CoulombK * 4 * math.Pi / k2
			}
		}
	}
	return ms, nil
}

func foldMode(k, n int) int {
	if k > n/2 {
		return k - n
	}
	return k
}

// meshAxisMax bounds the per-axis stack tables of the spread/interpolate
// loops: the largest number of mesh planes a spreading sphere may touch
// along one axis (checked at solver construction).
const meshAxisMax = 64

// meshIter stages one atom's mesh-point iteration: wrapped indices and
// minimum-image displacements along each axis, computed once per atom
// instead of once per mesh point, and the kernel weights of one row of
// mesh points. It lives on the caller's stack, so concurrent workers and
// shard goroutines never share scratch.
type meshIter struct {
	ni, nj, nk int
	mid        int // x index of the smallest |dx|: in every row that has a point
	ix, iy, iz [meshAxisMax]int32
	dx, dy, dz [meshAxisMax]float64

	// One row's spreading weights (the PPIP table at each accepted
	// point), indexed like dx; row stages the table arguments here first.
	w [meshAxisMax]float64
}

// fill computes the axis tables for the mesh points within rspread of p.
// Iteration order (k, j, i ascending) matches the historical traversal.
func (it *meshIter) fill(ms *meshSolver, p vec.V3) {
	it.ni = ms.fillAxis(p.X, &it.ix, &it.dx)
	it.nj = ms.fillAxis(p.Y, &it.iy, &it.dy)
	it.nk = ms.fillAxis(p.Z, &it.iz, &it.dz)
	it.mid = 0
	for ii := 1; ii < it.ni; ii++ {
		if math.Abs(it.dx[ii]) < math.Abs(it.dx[it.mid]) {
			it.mid = ii
		}
	}
}

// fillAxis fills one axis table and returns the point count. The
// displacements rise with the index and none is wrapped (newMeshSolver
// keeps the table clear of the box edge).
func (ms *meshSolver) fillAxis(p float64, idx *[meshAxisMax]int32, d *[meshAxisMax]float64) int {
	c0 := int(math.Floor((p - ms.rspread) / ms.h))
	c1 := int(math.Ceil((p + ms.rspread) / ms.h))
	n := ms.n
	for c := c0; c <= c1; c++ {
		dc := float64(c)*ms.h - p
		dc -= ms.l * math.Round(dc/ms.l)
		idx[c-c0] = int32(modN(c, n))
		d[c-c0] = dc
	}
	return c1 - c0 + 1
}

// row finds the mesh points of one row — the x table at squared y-z
// distance dyz2 — that lie inside the spreading sphere, returns them as
// the index range [lo, hi) and leaves their kernel weights in it.w. The
// points accepted are exactly those the test dx*dx + dyz2 > rc2 does not
// reject, in the same ascending order, so a caller that walks [lo, hi)
// sees what a walk of the whole table with that test would see (the
// cube-walk oracle in meshrows_test.go), without the ~70% of the cube
// that lies outside the sphere.
//
// dx rises along the table, so dx*dx — and with it the rounded sum — falls
// to the point nearest the atom (it.mid) and rises after it: the accepted
// points are one run around mid, or none if mid itself is rejected. The
// sphere's half-chord sqrt(rc2 - dyz2) puts each end of the run within a
// point or so; the original test then settles it, so the square root's
// rounding never decides a point, and clamping the estimates to mid keeps
// the settling loops inside the table whatever the estimate was.
//
// The weights are taken for the whole run before the caller reads any:
// the table arguments first, then one ppip.Table.EvaluateEach over them.
// A point's divide, index lookup and three Horner steps form one
// dependency chain, and short loops over independent points let
// neighbouring chains overlap, as the caller's accumulation (a scatter
// into the mesh or a serial float sum) would not.
func (it *meshIter) row(ms *meshSolver, dyz2, rc2 float64) (lo, hi int) {
	dx := &it.dx
	mid := it.mid
	if dx[mid]*dx[mid]+dyz2 > rc2 {
		return 0, 0
	}
	half := math.Sqrt(rc2 - dyz2)
	lo = min(max(int((-half-dx[0])*ms.invH), 0), mid)
	for lo > 0 && !(dx[lo-1]*dx[lo-1]+dyz2 > rc2) {
		lo--
	}
	for dx[lo]*dx[lo]+dyz2 > rc2 {
		lo++
	}
	last := max(min(int((half-dx[0])*ms.invH), it.ni-1), mid)
	for last < it.ni-1 && !(dx[last+1]*dx[last+1]+dyz2 > rc2) {
		last++
	}
	for dx[last]*dx[last]+dyz2 > rc2 {
		last--
	}
	hi = last + 1
	tab := ms.weightTab
	for ii := lo; ii < hi; ii++ {
		// The cube walk's table argument, operation for operation: d2 over
		// rc2, held under 1 when d2 == rc2.
		x := (dx[ii]*dx[ii] + dyz2) / rc2
		if x >= 1 {
			x = math.Nextafter(1, 0)
		}
		it.w[ii] = x
	}
	tab.EvaluateEach(it.w[lo:hi])
	return lo, hi
}

// spreadAtom spreads one atom's charge onto the mesh, accumulating the
// quantized contributions into counts (wrapping adds: order-independent)
// and returning the number of atom-mesh interactions. counts is a shard
// worker's buffer — merges commute bitwise.
func (ms *meshSolver) spreadAtom(q float64, r vec.V3, counts []int64) int64 {
	var it meshIter
	it.fill(ms, r)
	rc2 := ms.rspread * ms.rspread
	n := ms.n
	var tally int64
	for kk := 0; kk < it.nk; kk++ {
		dz := it.dz[kk]
		planeBase := int(it.iz[kk]) * n
		for jj := 0; jj < it.nj; jj++ {
			dy := it.dy[jj]
			lo, hi := it.row(ms, dy*dy+dz*dz, rc2)
			row := counts[(planeBase+int(it.iy[jj]))*n:][:n]
			for ii := lo; ii < hi; ii++ {
				c := int64(math.RoundToEven(q * it.w[ii] / ChargeQuantum))
				row[it.ix[ii]] += c // wrapping accumulate: order-independent
			}
			tally += int64(hi - lo)
		}
	}
	return tally
}

// convolve transforms the accumulated mesh counts to the potential mesh:
// fixed-point decode, forward FFT, Green's function multiply, inverse FFT.
// The serial and distributed transforms are bitwise identical, so this is
// a driver-serial collective in sharded runs.
func (ms *meshSolver) convolve(workers int) {
	for i, c := range ms.counts {
		ms.mesh.Data[i] = complex(float64(c)*ChargeQuantum, 0)
	}
	ms.mesh.ForwardP(workers)
	for i, g := range ms.green {
		ms.mesh.Data[i] *= complex(g, 0)
	}
	ms.mesh.InverseP(workers)
}

// interpAtom interpolates the long-range force and energy for one atom
// from the potential mesh, returning the energy (kcal/mol, for the caller
// to quantize), the quantized raw force components, and the interaction
// tally. Reads only the shared
// post-convolution mesh, so concurrent shards and workers may call it
// freely. The
// float sums run over the accepted points in (k, j, i) order — the order
// of the cube walk, which is what keeps their bits.
func (ms *meshSolver) interpAtom(q float64, r vec.V3) (energy float64, fx, fy, fz int64, tally int64) {
	var it meshIter
	it.fill(ms, r)
	rc2 := ms.rspread * ms.rspread
	n := ms.n
	h3 := ms.h * ms.h * ms.h
	invS2 := 1 / (ms.sigma1 * ms.sigma1)
	var ex float64
	var sx, sy, sz float64
	for kk := 0; kk < it.nk; kk++ {
		dz := it.dz[kk]
		planeBase := int(it.iz[kk]) * n
		for jj := 0; jj < it.nj; jj++ {
			dy := it.dy[jj]
			lo, hi := it.row(ms, dy*dy+dz*dz, rc2)
			row := ms.mesh.Data[(planeBase+int(it.iy[jj]))*n:][:n]
			for ii := lo; ii < hi; ii++ {
				phi := real(row[it.ix[ii]])
				wgt := it.w[ii]
				ex += phi * wgt
				s := phi * wgt * invS2
				sx += s * it.dx[ii]
				sy += s * dy
				sz += s * dz
			}
			tally += int64(hi - lo)
		}
	}
	energy = 0.5 * q * h3 * ex
	fx = htis.QuantizeForce(-q * h3 * sx)
	fy = htis.QuantizeForce(-q * h3 * sy)
	fz = htis.QuantizeForce(-q * h3 * sz)
	return energy, fx, fy, fz, tally
}

func modN(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}
