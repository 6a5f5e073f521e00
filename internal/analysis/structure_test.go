package analysis

import (
	"math"
	"math/rand"
	"testing"

	"anton/internal/vec"
)

func TestRDFIdealGasIsFlat(t *testing.T) {
	// Uniform random points: g(r) ~ 1 everywhere.
	box := vec.Cube(20)
	rng := rand.New(rand.NewSource(3))
	var frames [][]vec.V3
	sel := make([]int, 200)
	for i := range sel {
		sel[i] = i
	}
	for f := 0; f < 10; f++ {
		frame := make([]vec.V3, 200)
		for i := range frame {
			frame[i] = vec.V3{X: rng.Float64() * 20, Y: rng.Float64() * 20, Z: rng.Float64() * 20}
		}
		frames = append(frames, frame)
	}
	r, g, err := RDF(frames, box, sel, sel, 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	// Beyond the first couple of bins (poor statistics), g ~ 1.
	for b := 4; b < len(g); b++ {
		if math.Abs(g[b]-1) > 0.35 {
			t.Errorf("ideal gas g(%.2f) = %.2f, want ~1", r[b], g[b])
		}
	}
}

func TestRDFLatticePeaks(t *testing.T) {
	// A perfect cubic lattice with spacing a: sharp peak at r = a.
	box := vec.Cube(16)
	var frame []vec.V3
	const a = 4.0
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			for z := 0; z < 4; z++ {
				frame = append(frame, vec.V3{X: float64(x) * a, Y: float64(y) * a, Z: float64(z) * a})
			}
		}
	}
	sel := make([]int, len(frame))
	for i := range sel {
		sel[i] = i
	}
	r, g, err := RDF([][]vec.V3{frame}, box, sel, sel, 7.9, 64)
	if err != nil {
		t.Fatal(err)
	}
	pos, height, ok := FirstPeak(r, g, 1.5)
	if !ok {
		t.Fatal("no peak found for a lattice")
	}
	if math.Abs(pos-a) > 0.2 {
		t.Errorf("first peak at %.2f, want %.1f", pos, a)
	}
	if height < 5 {
		t.Errorf("lattice peak height %.1f implausibly low", height)
	}
}

func TestRDFErrors(t *testing.T) {
	box := vec.Cube(10)
	if _, _, err := RDF(nil, box, []int{0}, []int{0}, 5, 10); err == nil {
		t.Error("empty frames accepted")
	}
	if _, _, err := RDF([][]vec.V3{{{X: 1}}}, box, []int{0}, []int{0}, -1, 10); err == nil {
		t.Error("negative range accepted")
	}
}
