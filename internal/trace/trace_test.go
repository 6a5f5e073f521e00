package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"anton/internal/vec"
)

func sampleTrajectory(t *testing.T) *Trajectory {
	t.Helper()
	tr := New(5)
	rng := rand.New(rand.NewSource(1))
	for f := 0; f < 7; f++ {
		r := make([]vec.V3, 5)
		for i := range r {
			r[i] = vec.V3{X: rng.Float64() * 10, Y: rng.Float64() * 10, Z: rng.Float64() * 10}
		}
		if err := tr.Record(f*4, float64(f)*10, r); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func TestRecordAndSeries(t *testing.T) {
	tr := sampleTrajectory(t)
	if tr.Len() != 7 {
		t.Fatalf("frames: %d", tr.Len())
	}
	if len(tr.PositionFrames()) != 7 {
		t.Error("position frames wrong")
	}
	// Wrong atom count rejected.
	if err := tr.Record(99, 0, make([]vec.V3, 3)); err == nil {
		t.Error("mismatched frame accepted")
	}
}

func TestMaxDisplacementPBC(t *testing.T) {
	box := vec.Cube(10)
	tr := New(2)
	// Atom 0 wraps across the boundary: 9.8 -> 0.1 is a 0.3 Å move under
	// minimum image but a 9.7 Å raw jump. Atom 1 moves 0.5 Å in the
	// interior.
	tr.Record(0, 0, []vec.V3{{X: 9.8}, {Y: 2.0}})
	tr.Record(1, 1, []vec.V3{{X: 0.1}, {Y: 2.5}})
	if d := tr.MaxDisplacementPBC(box); d < 0.499 || d > 0.501 {
		t.Errorf("PBC max displacement: got %g, want 0.5", d)
	}
}

func TestWritePDB(t *testing.T) {
	labels := []AtomLabel{
		{Name: "N", Residue: 0}, {Name: "CA", Residue: 0},
		{Name: "OW", Residue: 1}, {Name: "HW1", Residue: 1},
	}
	r := []vec.V3{{X: 1.5}, {X: 2.5, Y: 0.1}, {X: 5, Y: 5, Z: 5}, {X: 5.9, Y: 5, Z: 5}}
	var buf bytes.Buffer
	if err := WritePDB(&buf, labels, r, vec.Cube(10), 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"CRYST1", "MODEL", "ATOM", "HOH", "ENDMDL"} {
		if !strings.Contains(out, want) {
			t.Errorf("PDB missing %q:\n%s", want, out)
		}
	}
	// Fixed-width ATOM records: all the same length.
	var atomLens []int
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "ATOM") {
			atomLens = append(atomLens, len(line))
		}
	}
	if len(atomLens) != 4 {
		t.Fatalf("atom records: %d", len(atomLens))
	}
	for _, l := range atomLens {
		if l != atomLens[0] {
			t.Error("ATOM records not fixed width")
		}
	}
	// Mismatched label count rejected.
	if err := WritePDB(&buf, labels[:2], r, vec.Cube(10), 1); err == nil {
		t.Error("mismatched labels accepted")
	}
}
