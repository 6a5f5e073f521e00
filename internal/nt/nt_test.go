package nt

import (
	"math"
	"math/rand"
	"testing"
)

func TestMatchEfficiencyTable3(t *testing.T) {
	// Paper Table 3: match efficiency for a 13-Å cutoff. The paper's
	// figures are computed for its exact hardware region shapes; our
	// box-granular Monte Carlo should land near them. The key structural
	// property — efficiency depends (almost) only on subbox side, rising
	// as subboxes shrink — must hold exactly.
	cases := []struct {
		boxSide float64
		subdiv  int
		want    float64 // paper value
		tol     float64
	}{
		{8, 1, 0.25, 0.07},
		{8, 2, 0.40, 0.10},
		{8, 4, 0.51, 0.13},
		{16, 1, 0.12, 0.04},
		{16, 2, 0.25, 0.07},
		{16, 4, 0.40, 0.10},
		{32, 1, 0.04, 0.02},
		{32, 2, 0.12, 0.04},
		{32, 4, 0.25, 0.07},
	}
	rng := rand.New(rand.NewSource(17))
	for _, c := range cases {
		cfg := Config{BoxSide: c.boxSide, Cutoff: 13, Subdiv: c.subdiv}
		got := MatchEfficiency(cfg, rng, 400000)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("box %g subdiv %d: ME %.3f, paper %.2f (tol %.2f)",
				c.boxSide, c.subdiv, got, c.want, c.tol)
		}
	}
}

func TestMatchEfficiencyDependsOnSubboxSide(t *testing.T) {
	// Table 3's diagonal structure: (16 Å, 2x2x2) and (32 Å, 4x4x4) both
	// have 8-Å subboxes and identical efficiency; (8,1) likewise.
	rng := rand.New(rand.NewSource(19))
	me8a := MatchEfficiency(Config{BoxSide: 8, Cutoff: 13, Subdiv: 1}, rng, 300000)
	me8b := MatchEfficiency(Config{BoxSide: 16, Cutoff: 13, Subdiv: 2}, rng, 300000)
	me8c := MatchEfficiency(Config{BoxSide: 32, Cutoff: 13, Subdiv: 4}, rng, 300000)
	if math.Abs(me8a-me8b) > 0.01 || math.Abs(me8a-me8c) > 0.01 {
		t.Errorf("ME should depend only on subbox side: %.3f %.3f %.3f", me8a, me8b, me8c)
	}
}

func TestMatchEfficiencyMonotonicInSubdiv(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	prev := 0.0
	for _, subdiv := range []int{1, 2, 4} {
		me := MatchEfficiency(Config{BoxSide: 16, Cutoff: 13, Subdiv: subdiv}, rng, 200000)
		if me <= prev {
			t.Errorf("subdiv %d: ME %.3f not greater than %.3f", subdiv, me, prev)
		}
		prev = me
	}
}

func TestImportVolumesNTBeatsHalfShell(t *testing.T) {
	// Figure 3a vs 3b: for typical chemical system sizes the NT import
	// region is smaller, and the advantage grows with parallelism
	// (shrinking boxes).
	var prevRatio float64
	for _, b := range []float64{32, 16, 8, 4} {
		c := Config{BoxSide: b, Cutoff: 13}
		nt := c.ImportVolume()
		hs := c.HalfShellImportVolume()
		ratio := nt / hs
		if b <= 16 && ratio >= 1 {
			t.Errorf("box %g: NT import %g not smaller than half-shell %g", b, nt, hs)
		}
		if prevRatio != 0 && ratio >= prevRatio {
			t.Errorf("box %g: NT/half-shell ratio %.3f did not shrink (prev %.3f)", b, ratio, prevRatio)
		}
		prevRatio = ratio
	}
}

func TestImportVolumeComponents(t *testing.T) {
	c := Config{BoxSide: 10, Cutoff: 13}
	// Tower: 2*b^2*R.
	if got, want := c.TowerImportVolume(), 2*100*13.0; got != want {
		t.Errorf("tower: got %g, want %g", got, want)
	}
	// Plate: b*(2bR + pi R^2/2).
	want := 10 * (2*10*13 + math.Pi*13*13/2)
	if got := c.PlateImportVolume(); math.Abs(got-want) > 1e-9 {
		t.Errorf("plate: got %g, want %g", got, want)
	}
	if got := c.ImportVolume(); math.Abs(got-(c.TowerImportVolume()+c.PlateImportVolume())) > 1e-9 {
		t.Errorf("total import inconsistent: %g", got)
	}
}

func TestMeshPlateLargerThanHalfPlate(t *testing.T) {
	// Figure 3c: the mesh variant needs a symmetric (full) plate.
	c := Config{BoxSide: 16, Cutoff: 13}
	if c.MeshPlateImportVolume(13) <= c.PlateImportVolume() {
		t.Error("mesh plate should exceed the half plate at equal radius")
	}
	// But the spreading radius is typically smaller, shrinking it again.
	if c.MeshPlateImportVolume(7.1) >= c.MeshPlateImportVolume(13) {
		t.Error("mesh plate should shrink with the spreading radius")
	}
}

func TestSubboxImportGrowsWithSubdivision(t *testing.T) {
	// Figure 3e: subboxes slightly enlarge the total import region.
	v1 := Config{BoxSide: 16, Cutoff: 13, Subdiv: 1}.SubboxImportVolume()
	v2 := Config{BoxSide: 16, Cutoff: 13, Subdiv: 2}.SubboxImportVolume()
	v4 := Config{BoxSide: 16, Cutoff: 13, Subdiv: 4}.SubboxImportVolume()
	if !(v1 < v2 && v1 < v4) {
		t.Errorf("subbox import should exceed the undivided region: %g %g %g", v1, v2, v4)
	}
	// And the box-granular region contains at least the rounded region.
	rounded := Config{BoxSide: 16, Cutoff: 13}.ImportVolume()
	if v1 < rounded*0.8 {
		t.Errorf("box-granular import %g implausibly below rounded %g", v1, rounded)
	}
}

func TestBuildRegionsShape(t *testing.T) {
	reg := BuildRegions(Config{BoxSide: 8, Cutoff: 13, Subdiv: 1})
	tw, pl := reg.Counts()
	if tw != 5 { // ceil(13/8)=2 above and below, plus home
		t.Errorf("tower subboxes: got %d, want 5", tw)
	}
	if pl != 13 { // computed in the paper-geometry: 3 + 5 + 5
		t.Errorf("plate subboxes: got %d, want 13", pl)
	}
	// Home subbox is in both.
	foundT, foundP := false, false
	for _, o := range reg.Tower {
		if o == [3]int{0, 0, 0} {
			foundT = true
		}
	}
	for _, o := range reg.Plate {
		if o == [3]int{0, 0, 0} {
			foundP = true
		}
	}
	if !foundT || !foundP {
		t.Error("home subbox missing from tower or plate")
	}
}

func TestAssignPairNodeCoversEveryPairOnce(t *testing.T) {
	// Every unordered box pair maps to exactly one node, and the node is
	// "neutral territory": it shares (x,y) with one box and z with the
	// other.
	g := Grid{Nx: 4, Ny: 4, Nz: 4}
	n := g.NumBoxes()
	for ia := 0; ia < n; ia++ {
		for ib := ia; ib < n; ib++ {
			a, b := g.Coord(ia), g.Coord(ib)
			node := AssignPairNode(g, a, b)
			node2 := AssignPairNode(g, b, a)
			if node != node2 {
				t.Fatalf("assignment not symmetric: %v/%v -> %v vs %v", a, b, node, node2)
			}
			xyA := node.X == a.X && node.Y == a.Y
			xyB := node.X == b.X && node.Y == b.Y
			zA := node.Z == a.Z
			zB := node.Z == b.Z
			if !((xyA && zB) || (xyB && zA)) {
				t.Fatalf("node %v is not neutral territory for %v/%v", node, a, b)
			}
		}
	}
}

func TestAssignPairNodeSameBox(t *testing.T) {
	g := Grid{Nx: 8, Ny: 8, Nz: 8}
	c := BoxCoord{X: 3, Y: 5, Z: 7}
	if got := AssignPairNode(g, c, c); got != c {
		t.Errorf("self pair assigned to %v, want %v", got, c)
	}
}

func TestAssignPairNodeBalance(t *testing.T) {
	// The NT assignment should spread pair-work roughly evenly over nodes.
	g := Grid{Nx: 8, Ny: 8, Nz: 8}
	counts := make(map[int]int)
	BoxPairsWithinCutoff(g, [3]float64{8, 8, 8}, 13, func(a, b BoxCoord) {
		counts[g.Index(AssignPairNode(g, a, b))]++
	})
	if len(counts) != g.NumBoxes() {
		t.Fatalf("only %d of %d nodes received work", len(counts), g.NumBoxes())
	}
	min, max := 1<<30, 0
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max > 2*min {
		t.Errorf("pair assignment imbalanced: min %d, max %d", min, max)
	}
}

func TestBoxPairsWithinCutoffComplete(t *testing.T) {
	// With a cutoff shorter than one box gap, each box pairs only with its
	// 27-neighborhood (26 neighbors + itself): on a 4^3 torus every box
	// has exactly 27 such pairs; each unordered pair counted once gives
	// 64*27/2 + 64/2 ... = 64 + 64*26/2 = 896 total.
	g := Grid{Nx: 4, Ny: 4, Nz: 4}
	cnt := 0
	BoxPairsWithinCutoff(g, [3]float64{10, 10, 10}, 5, func(a, b BoxCoord) { cnt++ })
	want := 64 + 64*26/2
	if cnt != want {
		t.Errorf("pair count: got %d, want %d", cnt, want)
	}
}

// refBoxPairsWithinCutoff is the O(n²) form of BoxPairsWithinCutoff, its
// oracle: every (a, b >= a) in linear order, with the distance computed
// per pair.
func refBoxPairsWithinCutoff(g Grid, boxSide [3]float64, cutoff float64, fn func(a, b BoxCoord)) {
	n := g.NumBoxes()
	for ia := 0; ia < n; ia++ {
		a := g.Coord(ia)
		for ib := ia; ib < n; ib++ {
			b := g.Coord(ib)
			if boxFootprintDist3(g, boxSide, a, b) <= cutoff {
				fn(a, b)
			}
		}
	}
}

// TestBoxPairsWithinCutoffBitwise: the offset-table walk reports the
// reference's pairs in the reference's order (the engine's subbox pair
// list, and with it the chunking of the pair phase, follows this order).
func TestBoxPairsWithinCutoffBitwise(t *testing.T) {
	const slack = 2 * (0.45*4 + 0.45) // the engine's subbox reach beyond the cutoff
	cases := []struct {
		name   string
		g      Grid
		side   [3]float64
		cutoff float64
	}{
		{"DHFR subboxes", Grid{Nx: 14, Ny: 14, Nz: 14}, [3]float64{62.2 / 14, 62.2 / 14, 62.2 / 14}, 13 + slack},
		{"small subboxes", Grid{Nx: 4, Ny: 4, Nz: 4}, [3]float64{18.6 / 4, 18.6 / 4, 18.6 / 4}, 7 + slack}, // every pair
		{"non-cubic", Grid{Nx: 5, Ny: 6, Nz: 8}, [3]float64{3.1, 4.2, 2.5}, 7.3},
		{"one box", Grid{Nx: 1, Ny: 1, Nz: 1}, [3]float64{10, 10, 10}, 5},
	}
	for _, c := range cases {
		var got, want [][2]BoxCoord
		BoxPairsWithinCutoff(c.g, c.side, c.cutoff, func(a, b BoxCoord) { got = append(got, [2]BoxCoord{a, b}) })
		refBoxPairsWithinCutoff(c.g, c.side, c.cutoff, func(a, b BoxCoord) { want = append(want, [2]BoxCoord{a, b}) })
		if len(got) != len(want) {
			t.Fatalf("%s: %d pairs, reference %d", c.name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: pair %d is %v, reference %v", c.name, i, got[i], want[i])
			}
		}
	}
}

func TestGridIndexRoundTrip(t *testing.T) {
	g := Grid{Nx: 3, Ny: 5, Nz: 7}
	for i := 0; i < g.NumBoxes(); i++ {
		if got := g.Index(g.Coord(i)); got != i {
			t.Fatalf("index round trip failed at %d: %d", i, got)
		}
	}
	if w := g.Wrap(BoxCoord{X: -1, Y: 5, Z: 14}); w != (BoxCoord{X: 2, Y: 0, Z: 0}) {
		t.Errorf("wrap: got %v", w)
	}
}

func TestWrapDelta(t *testing.T) {
	cases := []struct{ a, b, n, want int }{
		{0, 1, 8, 1},
		{1, 0, 8, -1},
		{0, 7, 8, -1},
		{7, 0, 8, 1},
		{0, 4, 8, 4}, // even-grid ambiguity canonicalizes to +n/2
		{4, 0, 8, 4},
		{0, 2, 4, 2},
	}
	for _, c := range cases {
		if got := wrapDelta(c.a, c.b, c.n); got != c.want {
			t.Errorf("wrapDelta(%d,%d,%d) = %d, want %d", c.a, c.b, c.n, got, c.want)
		}
	}
}

func TestPairsPerNodeAccounting(t *testing.T) {
	// Water density: ~0.0334 molecules/Å^3 * 3 sites = 0.1 atoms/Å^3.
	c := Config{BoxSide: 16, Cutoff: 13, Subdiv: 2}
	density := 0.1
	considered := PairsConsideredPerNode(c, density)
	necessary := NecessaryPairsPerNode(c, density)
	if considered <= necessary {
		t.Errorf("considered %g should exceed necessary %g", considered, necessary)
	}
	// Their ratio approximates the match efficiency.
	rng := rand.New(rand.NewSource(31))
	me := MatchEfficiency(c, rng, 300000)
	ratio := necessary / considered
	if math.Abs(ratio-me) > 0.08 {
		t.Errorf("necessary/considered %.3f vs ME %.3f", ratio, me)
	}
}
