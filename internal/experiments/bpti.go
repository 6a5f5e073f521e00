package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"anton/internal/core"
	"anton/internal/machine"
	"anton/internal/system"
)

// BPTI runs the paper's §5.3 headline system — 17,758 particles, 892
// protein atoms, 6 chloride ions, 4215 four-site TIP4P-Ew waters in a
// 51.3-Å cube with a 10.4-Å cutoff and a 32³ mesh — for a short stretch
// on the Anton engine, reporting the engine's health, the measured Go
// wall time per step, and the calibrated model's projection of what the
// real machine achieves on the same workload.
func BPTI(steps int) (string, error) {
	s, err := system.ByName("BPTI")
	if err != nil {
		return "", err
	}
	cfg := core.DefaultConfig(8)
	cfg.MigrationInterval = 1
	eng, err := core.NewEngine(s, cfg)
	if err != nil {
		return "", err
	}
	rng := rand.New(rand.NewSource(53))
	eng.SetVelocities(system.InitVelocities(s.Top, 300, rng))

	t0 := time.Now()
	eng.Step(steps)
	wall := time.Since(t0)

	var b strings.Builder
	fmt.Fprintf(&b, "BPTI — the millisecond system (§5.3)\n")
	fmt.Fprintf(&b, "composition: %d particles = %d protein atoms + %d Cl- + %d TIP4P-Ew waters x 4\n",
		s.NAtoms(), s.ProteinAtoms, s.Ions, s.Waters)
	fmt.Fprintf(&b, "box %.1f Å, cutoff %.1f Å, mesh %d^3, 2.5-fs steps, long-range every other step\n",
		s.Box.L.X, s.Cutoff, s.Mesh)
	fmt.Fprintf(&b, "\nran %d steps: T = %.0f K (synthetic packing still thermalizing), ME = %.0f%%\n",
		eng.StepCount(), eng.Temperature(), eng.Stats.MatchEfficiency()*100)
	perStep := wall.Seconds() / float64(steps)
	fmt.Fprintf(&b, "this Go implementation: %.2f s/step -> %.4f us/day\n",
		perStep, 2.5e-9*86400/perStep)

	m, err := machine.New(512)
	if err != nil {
		return "", err
	}
	p := machine.DefaultModel.Estimate(m, machine.WorkloadFromSystem(s))
	fmt.Fprintf(&b, "modelled 512-node Anton: %.1f us/step -> %.1f us/day (paper: 9.8 initially, 18.2 tuned)\n",
		p.Average*1e6, p.RatePerDay)
	fmt.Fprintf(&b, "the 1031-us run at the modelled rate: %.0f days (the paper's took ~3 months)\n",
		1031/p.RatePerDay)
	fmt.Fprintf(&b, "Anton's modelled advantage over this single-core software: %.0fx\n",
		p.RatePerDay/(2.5e-9*86400/perStep))
	return b.String(), nil
}
