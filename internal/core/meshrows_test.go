package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"anton/internal/htis"
	"anton/internal/system"
	"anton/internal/vec"
)

// The cube walk: every mesh point of the bounding cube of an atom's
// spreading sphere is distance-tested and every survivor's weight is
// evaluated on its own — spreadAtom / interpAtom before the row extents
// and the two-stage row weights, kept as the oracle for
// TestMeshRowsBitwise.

func (ms *meshSolver) refWeight(d2 float64) float64 {
	x := d2 / (ms.rspread * ms.rspread)
	if x >= 1 {
		x = math.Nextafter(1, 0)
	}
	return ms.weightTab.Evaluate(x)
}

func (ms *meshSolver) refSpreadAtom(q float64, r vec.V3, counts []int64) int64 {
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
			dyz2 := dy*dy + dz*dz
			rowBase := (planeBase + int(it.iy[jj])) * n
			for ii := 0; ii < it.ni; ii++ {
				dx := it.dx[ii]
				d2 := dx*dx + dyz2
				if d2 > rc2 {
					continue
				}
				c := int64(math.RoundToEven(q * ms.refWeight(d2) / ChargeQuantum))
				counts[rowBase+int(it.ix[ii])] += c
				tally++
			}
		}
	}
	return tally
}

func (ms *meshSolver) refInterpAtom(q float64, r vec.V3) (energy float64, fx, fy, fz int64, tally int64) {
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
			dyz2 := dy*dy + dz*dz
			rowBase := (planeBase + int(it.iy[jj])) * n
			for ii := 0; ii < it.ni; ii++ {
				dx := it.dx[ii]
				d2 := dx*dx + dyz2
				if d2 > rc2 {
					continue
				}
				phi := real(ms.mesh.Data[rowBase+int(it.ix[ii])])
				wgt := ms.refWeight(d2)
				ex += phi * wgt
				s := phi * wgt * invS2
				sx += s * dx
				sy += s * dy
				sz += s * dz
				tally++
			}
		}
	}
	energy = 0.5 * q * h3 * ex
	fx = htis.QuantizeForce(-q * h3 * sx)
	fy = htis.QuantizeForce(-q * h3 * sy)
	fz = htis.QuantizeForce(-q * h3 * sz)
	return energy, fx, fy, fz, tally
}

// awkwardMeshPoints returns positions chosen to sit on the decisions the
// row extents make: on the box faces, on mesh planes and half-way between
// them (two points tie for nearest), and exactly rspread — and one ulp
// either side of it — from a mesh plane along one, two and three axes, so
// a row's end point lands on d2 == rc2.
func awkwardMeshPoints(ms *meshSolver) []vec.V3 {
	l, h, rs := ms.l, ms.h, ms.rspread
	ax := []float64{0, math.Nextafter(l, 0), l, h, 3 * h, 2.5 * h, l - h/2}
	for _, k := range []float64{0, 1, 5} {
		for _, s := range []float64{1, -1} {
			p := k*h + s*rs
			if p < 0 {
				p += l
			}
			ax = append(ax, p, math.Nextafter(p, 0), math.Nextafter(p, l))
		}
	}
	var pts []vec.V3
	for _, x := range ax {
		pts = append(pts, vec.V3{X: x, Y: 2 * h, Z: 7 * h}, vec.V3{X: 2 * h, Y: x, Z: x}, vec.V3{X: x, Y: x, Z: x})
	}
	// Rows that graze the sphere: dyz2 within a few ulps of rc2.
	for _, f := range []float64{0.6, 0.8, math.Sqrt2 / 2} {
		y, z := f*rs, math.Sqrt(1-f*f)*rs
		pts = append(pts, vec.V3{X: 1.3, Y: 4*h + y, Z: 6*h + z}, vec.V3{X: 0.2, Y: 4*h - y, Z: 6*h - z})
	}
	return pts
}

// TestMeshRowsBitwise: the sphere-clipped rows with staged weights spread
// the same counts, interpolate the same energy bits and force counts, and
// tally the same interactions as the cube walk — for every charged atom
// of small, four-site water and (without -short) DHFR, for the awkward
// points above on each mesh, and for random points.
func TestMeshRowsBitwise(t *testing.T) {
	engines := map[string]*Engine{"small": smallWaterEngine(t, 8, nil)}
	e, err := NewEngine(tip4pSmall(t), DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	engines["tip4p"] = e
	if !testing.Short() {
		s, err := system.ByName("DHFR")
		if err != nil {
			t.Fatal(err)
		}
		if engines["DHFR"], err = NewEngine(s, DefaultConfig(8)); err != nil {
			t.Fatal(err)
		}
	}
	for name, e := range engines {
		e.Step(2) // off the builder's lattice, and a convolved potential in the mesh
		ms := e.mesh
		var pts []vec.V3
		var qs []float64
		for i, a := range e.Sys.Top.Atoms {
			if a.Charge != 0 {
				pts = append(pts, e.Coder.Decode(e.Pos[i]))
				qs = append(qs, a.Charge)
			}
		}
		atoms := len(pts)
		rng := rand.New(rand.NewSource(4))
		extra := awkwardMeshPoints(ms)
		for i := 0; i < 500; i++ {
			extra = append(extra, vec.V3{X: rng.Float64() * ms.l, Y: rng.Float64() * ms.l, Z: rng.Float64() * ms.l})
		}
		for i, p := range extra {
			pts = append(pts, p)
			qs = append(qs, []float64{0.417, -0.834, 1}[i%3])
		}
		got := make([]int64, len(ms.counts))
		want := make([]int64, len(ms.counts))
		var gotN, wantN int64
		for i, p := range pts {
			sn, rn := ms.spreadAtom(qs[i], p, got), ms.refSpreadAtom(qs[i], p, want)
			gotN, wantN = gotN+sn, wantN+rn
			ge, gx, gy, gz, gn := ms.interpAtom(qs[i], p)
			we, wx, wy, wz, wn := ms.refInterpAtom(qs[i], p)
			if sn != rn || gn != wn || gx != wx || gy != wy || gz != wz ||
				math.Float64bits(ge) != math.Float64bits(we) {
				t.Fatalf("%s: point %d %v: rows spread %d / interpolate (%v, %d %d %d, %d), cube walk %d / (%v, %d %d %d, %d)",
					name, i, p, sn, ge, gx, gy, gz, gn, rn, we, wx, wy, wz, wn)
			}
		}
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("%s: mesh cell %d holds %d, cube walk %d", name, c, got[c], want[c])
			}
		}
		t.Logf("%s: %d atoms + %d placed points, %d interactions per pass", name, atoms, len(extra), wantN)
	}
}

// TestMeshSolverRejectsSelfOverlap: a spreading sphere whose axis tables
// would reach round the box is refused at construction.
func TestMeshSolverRejectsSelfOverlap(t *testing.T) {
	s, err := system.Small(true, 21)
	if err != nil {
		t.Fatal(err)
	}
	e := smallWaterEngine(t, 8, nil)
	h := s.Box.L.X / float64(s.Mesh)
	s.RSpread = s.Box.L.X/2 - 0.99*h // 2*(rspread+h) just past L
	if _, err := newMeshSolver(s, e.Split); err == nil || !strings.Contains(err.Error(), "reaches the box edge") {
		t.Fatalf("rspread %.3f on a %.1f Å box (h %.3f): err = %v, want the box-edge refusal", s.RSpread, s.Box.L.X, h, err)
	}
	s.RSpread = s.Box.L.X/2 - 1.01*h
	if _, err := newMeshSolver(s, e.Split); err != nil {
		t.Fatalf("rspread %.3f just inside the limit refused: %v", s.RSpread, err)
	}
}
