// Package trace records simulation trajectories: in-memory frame storage
// for analysis, a PDB writer for snapshots, and the minimum-image
// displacement between stored frames.
package trace

import (
	"fmt"
	"math"

	"anton/internal/vec"
)

// Frame is one stored trajectory frame.
type Frame struct {
	Step      int
	TimeFs    float64
	Positions []vec.V3
}

// Trajectory accumulates frames in memory.
type Trajectory struct {
	NAtoms int
	Frames []Frame
}

// New creates a trajectory recorder for nAtoms particles.
func New(nAtoms int) *Trajectory { return &Trajectory{NAtoms: nAtoms} }

// Record appends a frame (positions are copied).
func (t *Trajectory) Record(step int, timeFs float64, r []vec.V3) error {
	if len(r) != t.NAtoms {
		return fmt.Errorf("trace: frame has %d atoms, want %d", len(r), t.NAtoms)
	}
	t.Frames = append(t.Frames, Frame{
		Step:      step,
		TimeFs:    timeFs,
		Positions: append([]vec.V3(nil), r...),
	})
	return nil
}

// Len returns the number of stored frames.
func (t *Trajectory) Len() int { return len(t.Frames) }

// PositionFrames returns just the coordinate sets (for the analysis
// helpers).
func (t *Trajectory) PositionFrames() [][]vec.V3 {
	out := make([][]vec.V3, len(t.Frames))
	for i := range t.Frames {
		out[i] = t.Frames[i].Positions
	}
	return out
}

// MaxDisplacementPBC returns the largest single-atom minimum-image
// displacement between consecutive frames in the given periodic box — the
// physical per-interval drift, immune to boundary wrapping. This is the
// diagnostic for migration-interval safety margins: the engine's
// inter-migration residency slack must exceed the drift accumulated over
// one migration interval.
func (t *Trajectory) MaxDisplacementPBC(box vec.Box) float64 {
	worst := 0.0
	for f := 1; f < len(t.Frames); f++ {
		a := t.Frames[f-1].Positions
		b := t.Frames[f].Positions
		for i := range a {
			if d := box.MinImage(b[i].Sub(a[i])).Norm(); d > worst && d < math.Inf(1) {
				worst = d
			}
		}
	}
	return worst
}
