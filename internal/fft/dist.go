package fft

import "fmt"

// CommStats records the communication performed by one phase (or the whole)
// of a distributed transform, per node. Anton's FFT strategy deliberately
// sends a large number of small messages (hundreds per node, paper §3.2.2)
// because the torus makes short messages cheap.
type CommStats struct {
	MessagesPerNode int // point-to-point messages sent by each node
	BytesPerNode    int // payload bytes sent by each node
	Phases          int // number of exchange phases (latency chain length)
}

// Add accumulates other into s.
func (s *CommStats) Add(other CommStats) {
	s.MessagesPerNode += other.MessagesPerNode
	s.BytesPerNode += other.BytesPerNode
	s.Phases += other.Phases
}

// complexBytes is the payload size of one mesh point on the wire. Anton
// sends fixed-point values; 8 bytes covers a complex pair of 32-bit values.
const complexBytes = 8

// Dist3 is a functional model of Anton's spatially distributed 3D FFT. The
// mesh is partitioned into bricks across a Gx x Gy x Gz node grid (the
// machine torus). Forward3/Inverse3 reproduce exactly — bit for bit — the
// serial Grid3 transforms, while counting the messages each node exchanges.
//
// Each axis pass redistributes brick data so every node in a torus row owns
// a set of complete 1D lines (an all-to-all within the row), transforms
// them locally, and redistributes back to the brick layout.
type Dist3 struct {
	Nx, Ny, Nz int // mesh dimensions
	Gx, Gy, Gz int // node grid dimensions
	Bx, By, Bz int // brick dimensions (N/G per axis)

	// bricks[n] is the brick owned by node n = (nz*Gy + ny)*Gx + nx,
	// stored row-major with x fastest within the brick.
	bricks [][]complex128

	// Reusable per-row line scratch (headers + backing store) and the
	// per-axis transform plans: every exchange of every pass reuses them,
	// so steady-state transforms allocate nothing.
	lineHdrs []([]complex128)
	lineBuf  []complex128
	plans    [3]*Plan
	rows     [3][][]int // torus rows per axis, precomputed

	Stats CommStats // accumulated across all transforms since creation
}

// NewDist3 partitions an nx x ny x nz mesh across a gx x gy x gz node grid.
// All dimensions must be powers of two with g <= n per axis, so bricks
// divide evenly. It also requires that the number of lines per row be
// divisible by the row length (by*bz % gx == 0 and cyclically), which holds
// for all Anton configurations (e.g. 32^3 mesh on 8^3 nodes: 4^3 bricks,
// 16 lines per row shared by 8 nodes).
func NewDist3(nx, ny, nz, gx, gy, gz int) (*Dist3, error) {
	for _, d := range [][2]int{{nx, gx}, {ny, gy}, {nz, gz}} {
		if !IsPow2(d[0]) || !IsPow2(d[1]) {
			return nil, fmt.Errorf("fft: dims must be powers of two, got mesh %d node %d", d[0], d[1])
		}
		if d[1] > d[0] {
			return nil, fmt.Errorf("fft: node grid %d exceeds mesh %d along an axis", d[1], d[0])
		}
	}
	d := &Dist3{
		Nx: nx, Ny: ny, Nz: nz,
		Gx: gx, Gy: gy, Gz: gz,
		Bx: nx / gx, By: ny / gy, Bz: nz / gz,
	}
	n := gx * gy * gz
	d.bricks = make([][]complex128, n)
	vol := d.Bx * d.By * d.Bz
	for i := range d.bricks {
		d.bricks[i] = make([]complex128, vol)
	}
	// Size the row scratch for the largest axis pass: bu*bv lines of n
	// points each (see passAxis).
	maxLines, maxPts := 0, 0
	for _, ax := range [3][2]int{{d.By * d.Bz, nx}, {d.Bx * d.Bz, ny}, {d.Bx * d.By, nz}} {
		if ax[0] > maxLines {
			maxLines = ax[0]
		}
		if ax[0]*ax[1] > maxPts {
			maxPts = ax[0] * ax[1]
		}
	}
	d.lineHdrs = make([][]complex128, maxLines)
	d.lineBuf = make([]complex128, maxPts)
	d.plans = [3]*Plan{PlanFor(nx), PlanFor(ny), PlanFor(nz)}
	d.rows = [3][][]int{d.rowSets(0), d.rowSets(1), d.rowSets(2)}
	return d, nil
}

// PointsPerNode returns the number of mesh points stored on each node (the
// paper: 64 points per node for a 32^3 mesh on 512 nodes).
func (d *Dist3) PointsPerNode() int { return d.Bx * d.By * d.Bz }

// nodeIndex returns the linear node id of node coordinates (nx, ny, nz).
func (d *Dist3) nodeIndex(nx, ny, nz int) int { return (nz*d.Gy+ny)*d.Gx + nx }

// brickIndex returns the index within a brick of local coordinates.
func (d *Dist3) brickIndex(i, j, k int) int { return (k*d.By+j)*d.Bx + i }

// Scatter distributes a full mesh into the per-node bricks.
func (d *Dist3) Scatter(g *Grid3) error {
	if g.Nx != d.Nx || g.Ny != d.Ny || g.Nz != d.Nz {
		return fmt.Errorf("fft: mesh size mismatch: grid %dx%dx%d vs plan %dx%dx%d",
			g.Nx, g.Ny, g.Nz, d.Nx, d.Ny, d.Nz)
	}
	for k := 0; k < d.Nz; k++ {
		for j := 0; j < d.Ny; j++ {
			for i := 0; i < d.Nx; i++ {
				n := d.nodeIndex(i/d.Bx, j/d.By, k/d.Bz)
				d.bricks[n][d.brickIndex(i%d.Bx, j%d.By, k%d.Bz)] = g.At(i, j, k)
			}
		}
	}
	return nil
}

// Gather assembles the distributed bricks back into a full mesh.
func (d *Dist3) Gather() *Grid3 {
	g := NewGrid3(d.Nx, d.Ny, d.Nz)
	for k := 0; k < d.Nz; k++ {
		for j := 0; j < d.Ny; j++ {
			for i := 0; i < d.Nx; i++ {
				n := d.nodeIndex(i/d.Bx, j/d.By, k/d.Bz)
				g.Set(i, j, k, d.bricks[n][d.brickIndex(i%d.Bx, j%d.By, k%d.Bz)])
			}
		}
	}
	return g
}

// Forward3 performs the unnormalized forward 3D FFT on the distributed
// bricks, accumulating communication statistics.
func (d *Dist3) Forward3() { d.transformDist(false) }

// Inverse3 performs the normalized inverse 3D FFT on the distributed
// bricks.
func (d *Dist3) Inverse3() {
	d.transformDist(true)
	scale := complex(1/float64(d.Nx*d.Ny*d.Nz), 0)
	for _, b := range d.bricks {
		for i := range b {
			b[i] *= scale
		}
	}
}

// transformDist runs the three axis passes. Each pass operates on every
// torus row along that axis independently.
func (d *Dist3) transformDist(inverse bool) {
	d.passAxis(0, inverse)
	d.passAxis(1, inverse)
	d.passAxis(2, inverse)
}

// passAxis transforms all lines oriented along the given axis (0=x, 1=y,
// 2=z). A "row" is the set of g nodes sharing the other two node
// coordinates. Within a row, lines are dealt cyclically to nodes; each node
// sends every other node the segments of the lines that node will
// transform (one message per line segment, matching Anton's many-small-
// messages strategy), transforms its lines, and the segments are sent back.
func (d *Dist3) passAxis(axis int, inverse bool) {
	var g int      // nodes along the axis
	var n int      // mesh points along the axis
	var bu, bv int // brick dims transverse to the axis
	switch axis {
	case 0:
		g, n, bu, bv = d.Gx, d.Nx, d.By, d.Bz
	case 1:
		g, n, bu, bv = d.Gy, d.Ny, d.Bx, d.Bz
	default:
		g, n, bu, bv = d.Gz, d.Nz, d.Bx, d.By
	}
	plan := d.plans[axis]
	rows := d.rows[axis]
	var msgs, bytes int // per-node counters (all nodes symmetric; count one row node)
	// The bu*bv row lines of n points each live in the reusable scratch;
	// every row of every pass overwrites them in full before transforming.
	lines := d.lineHdrs[:bu*bv]
	for l := range lines {
		lines[l] = d.lineBuf[l*n : (l+1)*n]
	}
	for _, row := range rows {
		for seg, node := range row {
			brick := d.bricks[node]
			for l := 0; l < bu*bv; l++ {
				u, v := l%bu, l/bu
				for p := 0; p < n/g; p++ {
					lines[l][seg*(n/g)+p] = brick[d.localIndex(axis, p, u, v)]
				}
			}
		}
		// Transform. Line l is owned by row node l % g; every segment of l
		// held by a different node is one message there and one back.
		for l := range lines {
			plan.Transform(lines[l], inverse)
		}
		// Scatter the transformed lines back into bricks.
		for seg, node := range row {
			brick := d.bricks[node]
			for l := 0; l < bu*bv; l++ {
				u, v := l%bu, l/bu
				for p := 0; p < n/g; p++ {
					brick[d.localIndex(axis, p, u, v)] = lines[l][seg*(n/g)+p]
				}
			}
		}
	}
	// Message accounting (per node): each node holds bu*bv line segments;
	// segments of lines it owns (every g-th line cyclically) stay local.
	ownSegs := bu * bv / g
	if (bu*bv)%g != 0 {
		ownSegs++ // conservative: at most this many stay local
	}
	sent := bu*bv - ownSegs
	msgs = 2 * sent // out to owner, back from owner
	bytes = 2 * sent * (n / g) * complexBytes
	d.Stats.Add(CommStats{MessagesPerNode: msgs, BytesPerNode: bytes, Phases: 2})
}

// localIndex maps (along-axis offset p, transverse u, v) to a brick index.
func (d *Dist3) localIndex(axis, p, u, v int) int {
	switch axis {
	case 0:
		return d.brickIndex(p, u, v)
	case 1:
		return d.brickIndex(u, p, v)
	default:
		return d.brickIndex(u, v, p)
	}
}

// rowSets enumerates the torus rows along the given axis; each row is the
// ordered list of node ids from coordinate 0 to g-1 along that axis.
func (d *Dist3) rowSets(axis int) [][]int {
	var rows [][]int
	switch axis {
	case 0:
		for nz := 0; nz < d.Gz; nz++ {
			for ny := 0; ny < d.Gy; ny++ {
				row := make([]int, d.Gx)
				for nx := 0; nx < d.Gx; nx++ {
					row[nx] = d.nodeIndex(nx, ny, nz)
				}
				rows = append(rows, row)
			}
		}
	case 1:
		for nz := 0; nz < d.Gz; nz++ {
			for nx := 0; nx < d.Gx; nx++ {
				row := make([]int, d.Gy)
				for ny := 0; ny < d.Gy; ny++ {
					row[ny] = d.nodeIndex(nx, ny, nz)
				}
				rows = append(rows, row)
			}
		}
	default:
		for ny := 0; ny < d.Gy; ny++ {
			for nx := 0; nx < d.Gx; nx++ {
				row := make([]int, d.Gz)
				for nz := 0; nz < d.Gz; nz++ {
					row[nz] = d.nodeIndex(nx, ny, nz)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows
}
