package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"anton/internal/core"
	"anton/internal/machine"
	"anton/internal/system"
)

// Properties demonstrates the section 4 numerical properties on a small
// system: determinism, parallel invariance across node counts, and exact
// time reversibility.
func Properties(steps int) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 4 numerical properties (%d steps each)\n", steps)

	// Determinism.
	run := func(nodes int, seed int64) (*core.Engine, error) {
		s, err := system.Small(true, 21)
		if err != nil {
			return nil, err
		}
		e, err := core.NewEngine(s, core.DefaultConfig(nodes))
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed))
		e.SetVelocities(system.InitVelocities(s.Top, 300, rng))
		e.Step(steps)
		return e, nil
	}
	e1, err := run(8, 33)
	if err != nil {
		return "", err
	}
	e2, err := run(8, 33)
	if err != nil {
		return "", err
	}
	p1, v1 := e1.Snapshot()
	p2, v2 := e2.Snapshot()
	identical := true
	for i := range p1 {
		if p1[i] != p2[i] || v1[i] != v2[i] {
			identical = false
			break
		}
	}
	fmt.Fprintf(&b, "determinism (two identical runs, 8 nodes): bitwise identical = %v\n", identical)

	// Parallel invariance.
	e64, err := run(64, 33)
	if err != nil {
		return "", err
	}
	p64, v64 := e64.Snapshot()
	invariant := true
	for i := range p1 {
		if p1[i] != p64[i] || v1[i] != v64[i] {
			invariant = false
			break
		}
	}
	fmt.Fprintf(&b, "parallel invariance (8 vs 64 nodes): bitwise identical = %v\n", invariant)

	// Exact reversibility (unconstrained, unthermostatted).
	s, err := system.IonicFluid(60, 16.0, 6.5, 16, 91)
	if err != nil {
		return "", err
	}
	cfg := core.DefaultConfig(8)
	cfg.TauT = 0
	cfg.Dt = 2.0
	e, err := core.NewEngine(s, cfg)
	if err != nil {
		return "", err
	}
	rng := rand.New(rand.NewSource(35))
	e.SetVelocities(system.InitVelocities(s.Top, 300, rng))
	rp0, rv0 := e.Snapshot()
	revSteps := steps - steps%cfg.MTSInterval
	e.Step(revSteps)
	e.NegateVelocities()
	e.Step(revSteps)
	rp1, rv1 := e.Snapshot()
	reversible := true
	for i := range rp0 {
		if rp1[i] != rp0[i] || rv1[i] != rv0[i].Neg() {
			reversible = false
			break
		}
	}
	fmt.Fprintf(&b, "exact reversibility (forward %d, negate, back %d): recovered bit-for-bit = %v\n",
		revSteps, revSteps, reversible)

	if !identical || !invariant || !reversible {
		return b.String(), fmt.Errorf("experiments: a section-4 property failed")
	}
	return b.String(), nil
}

// Partition reproduces the section 5.1 scaling study: DHFR across machine
// sizes from one node to the 32,768-node maximum, the 128-node partition
// datapoint, the model's per-size detail (long-range step time, subbox
// division, match efficiency) and the commodity-cluster comparison.
func Partition() (string, error) {
	spec, _ := system.SpecFor("DHFR")
	w := machine.WorkloadFromSpec(spec)
	var b strings.Builder
	fmt.Fprintf(&b, "Section 5.1: DHFR simulation rates across configurations\n")
	fmt.Fprintf(&b, "%-18s %12s\n", "configuration", "us/day")
	// The per-size model detail, printed after the rates.
	var detail strings.Builder
	fmt.Fprintf(&detail, "\nAnton model per machine size:\n")
	fmt.Fprintf(&detail, "%-8s %10s %12s %12s %8s %8s\n",
		"nodes", "torus", "us/step(LR)", "us/step(avg)", "subdiv", "ME")
	var r512 float64
	for _, nodes := range []int{1, 8, 32, 64, 128, 256, 512, 1024, 2048, 4096, 32768} {
		m, err := machine.New(nodes)
		if err != nil {
			return "", err
		}
		p := machine.DefaultModel.Estimate(m, w)
		torus := fmt.Sprintf("%dx%dx%d", m.Dims[0], m.Dims[1], m.Dims[2])
		fmt.Fprintf(&detail, "%-8d %10s %12.2f %12.2f %8d %7.0f%%\n",
			nodes, torus, p.TotalLongRange*1e6, p.Average*1e6, p.Subdiv, p.MatchEfficiency*100)
		note := ""
		if nodes == 512 {
			note = "  (paper: 16.4)"
			r512 = p.RatePerDay
		}
		if nodes == 128 {
			note = "  (paper: 7.5, as a partition of the 512-node machine)"
		}
		fmt.Fprintf(&b, "Anton %5d nodes %12.1f%s\n", nodes, p.RatePerDay, note)
	}
	for _, nodes := range []int{8, 32, 128, 512, 2048} {
		rate := machine.DefaultCluster.RatePerDay(w, nodes)
		note := ""
		if nodes == 512 {
			note = "  (paper: 0.471 — Desmond's best published datapoint)"
		}
		fmt.Fprintf(&b, "cluster %4d nodes %12.3f%s\n", nodes, rate, note)
	}
	cl512 := machine.DefaultCluster.RatePerDay(w, 512)
	fmt.Fprintf(&b, "\nAnton-512 over cluster-512: %.0fx (paper: ~35x over Desmond's best,\n", r512/cl512)
	fmt.Fprintf(&b, "two orders of magnitude over the ~0.1 us/day of practical cluster use)\n")
	b.WriteString(detail.String())
	return b.String(), nil
}
