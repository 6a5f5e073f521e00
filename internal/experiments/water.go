package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"anton/internal/analysis"
	"anton/internal/core"
	"anton/internal/system"
	"anton/internal/trace"
)

// WaterStructure validates that the engine produces liquid-like water: it
// runs a TIP3P box on the Anton engine and computes the O-O radial
// distribution function, which for liquid water shows its first peak near
// 2.8 Å. This is the §5.2-style "higher-level test" applied to the
// solvent itself: correct forces plus correct dynamics yield correct
// structure.
func WaterStructure(steps, sampleEvery int) (string, error) {
	s, err := system.Small(false, 9) // 215 waters
	if err != nil {
		return "", err
	}
	cfg := core.DefaultConfig(8)
	eng, err := core.NewEngine(s, cfg)
	if err != nil {
		return "", err
	}
	rng := rand.New(rand.NewSource(71))
	eng.SetVelocities(system.InitVelocities(s.Top, 300, rng))
	eng.Step(80) // equilibrate off the lattice

	tr := trace.New(s.NAtoms())
	for done := 0; done < steps; done += sampleEvery {
		eng.Step(sampleEvery)
		if err := tr.Record(eng.StepCount(), float64(eng.StepCount())*cfg.Dt, eng.Positions()); err != nil {
			return "", err
		}
	}

	// Oxygen selection: every 3rd site of TIP3P.
	var oxy []int
	for i, a := range s.Top.Atoms {
		if a.Name == "OW" {
			oxy = append(oxy, i)
		}
	}
	r, g, err := analysis.RDF(tr.PositionFrames(), s.Box, oxy, oxy, 8.0, 40)
	if err != nil {
		return "", err
	}
	pos, height, ok := analysis.FirstPeak(r, g, 1.2)

	var b strings.Builder
	fmt.Fprintf(&b, "Water O-O radial distribution function (Anton engine, %d waters, %d frames)\n",
		s.Waters, tr.Len())
	for i := 0; i < len(r); i += 2 {
		bar := strings.Repeat("#", int(g[i]*10))
		if len(bar) > 40 {
			bar = bar[:40]
		}
		fmt.Fprintf(&b, "r=%4.1f  g=%5.2f %s\n", r[i], g[i], bar)
	}
	if !ok {
		return b.String(), fmt.Errorf("experiments: no O-O structure peak found")
	}
	fmt.Fprintf(&b, "\nfirst peak: r = %.2f Å, g = %.2f (liquid water: ~2.8 Å)\n", pos, height)
	if pos < 2.2 || pos > 3.6 {
		return b.String(), fmt.Errorf("experiments: O-O peak at %.2f Å outside the water range", pos)
	}
	return b.String(), nil
}
