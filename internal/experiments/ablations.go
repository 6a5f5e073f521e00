package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"anton/internal/analysis"
	"anton/internal/core"
	"anton/internal/ewald"
	"anton/internal/ff"
	"anton/internal/machine"
	"anton/internal/nt"
	"anton/internal/ppip"
	"anton/internal/system"
	"anton/internal/vec"
)

// Ablations probe the design choices the paper's co-design argument rests
// on, by switching each one off or varying it.

// AblationMantissa varies the PPIP table mantissa width and reports the
// erfc force-kernel accuracy — why the hardware spends 19-22 bits
// (Figure 4a) and not fewer.
func AblationMantissa() (string, error) {
	sigma := ewald.SigmaForCutoff(13, 1e-6)
	f := ppip.ErfcForceFunc(sigma, 13, 1.0)
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: PPIP mantissa width vs erfc force-kernel accuracy (13-Å cutoff)\n")
	fmt.Fprintf(&b, "%-8s %16s\n", "bits", "max rel err (2.2-12 Å)")
	prev := math.Inf(1)
	for _, bits := range []uint{10, 14, 18, 22, 26} {
		tab, err := ppip.Build(f, ppip.PaperScheme, bits)
		if err != nil {
			return "", err
		}
		worst := 0.0
		for i := 0; i < 8000; i++ {
			r := 2.2 + (12.0-2.2)*float64(i)/8000
			x := (r / 13) * (r / 13)
			rel := math.Abs(tab.Evaluate(x)-f(x)) / (math.Abs(f(x)) + 1e-30)
			if rel > worst {
				worst = rel
			}
		}
		fmt.Fprintf(&b, "%-8d %16.2e\n", bits, worst)
		if worst > prev*1.5 {
			return "", fmt.Errorf("accuracy did not improve with width: %g bits worse", float64(bits))
		}
		prev = worst
	}
	fmt.Fprintf(&b, "(the fit error floor is reached near the hardware's 22 bits)\n")
	return b.String(), nil
}

// AblationSubbox disables/varies subbox division and reports match
// efficiency and the implied PPIP utilization — Table 3's reason to
// exist.
func AblationSubbox() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: subbox division on the 512-node DHFR decomposition\n")
	fmt.Fprintf(&b, "(box side %.2f Å, 13-Å cutoff; PPIPs stay fed while ME >= %.0f%%)\n",
		62.2/8, machine.MinMatchEfficiency*100)
	fmt.Fprintf(&b, "%-8s %12s %14s\n", "subdiv", "match eff", "PPIP util")
	rng := rand.New(rand.NewSource(5))
	prevUtil := 0.0
	for _, subdiv := range []int{1, 2, 4} {
		cfg := nt.Config{BoxSide: 62.2 / 8, Cutoff: 13, Subdiv: subdiv}
		me := nt.MatchEfficiency(cfg, rng, 200000)
		needed := nt.NecessaryPairsPerNode(cfg, 0.098)
		considered := needed / me
		tp := machine.PricePairs(considered, needed)
		fmt.Fprintf(&b, "%-8d %11.0f%% %13.0f%%\n", subdiv, me*100, tp.Utilization*100)
		if tp.Utilization+1e-9 < prevUtil {
			return "", fmt.Errorf("utilization fell with subdivision")
		}
		prevUtil = tp.Utilization
	}
	return b.String(), nil
}

// AblationMTS varies the multiple-time-step interval and measures NVE
// energy drift on an equilibrated ionic fluid — the cost of evaluating
// long-range forces less often (§3.1: "long-range interactions are
// typically evaluated only every two or three time steps").
func AblationMTS(steps int) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: MTS interval vs NVE drift and modelled DHFR rate\n")
	fmt.Fprintf(&b, "%-10s %22s %12s\n", "interval", "drift (kcal/mol/DoF/us)", "us/day")
	spec, _ := system.SpecFor("DHFR")
	m, _ := machine.New(512)
	for _, k := range []int{1, 2, 4} {
		s, err := system.IonicFluid(60, 16.0, 6.5, 16, 91)
		if err != nil {
			return "", err
		}
		cfg := core.DefaultConfig(8)
		cfg.TauT = 0
		cfg.Dt = 2.0
		cfg.MTSInterval = k
		eng, err := core.NewEngine(s, cfg)
		if err != nil {
			return "", err
		}
		rng := rand.New(rand.NewSource(35))
		eng.SetVelocities(system.InitVelocities(s.Top, 300, rng))
		eng.Step(40) // settle
		var times, energies []float64
		for done := 0; done < steps; done += 4 {
			eng.Step(4)
			times = append(times, float64(eng.StepCount())*cfg.Dt)
			energies = append(energies, eng.TotalEnergy())
		}
		drift, err := analysis.EnergyDrift(times, energies, s.Top.DegreesOfFreedom())
		if err != nil {
			return "", err
		}
		w := machine.WorkloadFromSpec(spec)
		w.MTSInterval = k
		rate := machine.DefaultModel.Estimate(m, w).RatePerDay
		fmt.Fprintf(&b, "%-10d %22.3f %12.1f\n", k, drift, rate)
	}
	fmt.Fprintf(&b, "(larger intervals buy rate at the cost of integration accuracy)\n")
	return b.String(), nil
}

// AblationGSEvsSPME compares the two mesh methods' accuracy and their
// hardware-relevant workload shapes — why GSE's radially symmetric
// kernels matter to Anton even though SPME is at least as accurate.
func AblationGSEvsSPME() (string, error) {
	box := vec.Cube(20)
	rng := rand.New(rand.NewSource(77))
	var atoms []ff.Atom
	var r []vec.V3
	for i := 0; i < 24; i++ {
		q := 0.5 + rng.Float64()
		if i%2 == 1 {
			q = -q
		}
		atoms = append(atoms, ff.Atom{Charge: q})
		r = append(r, vec.V3{X: rng.Float64() * 20, Y: rng.Float64() * 20, Z: rng.Float64() * 20})
	}
	var tot float64
	for _, a := range atoms {
		tot += a.Charge
	}
	atoms[len(atoms)-1].Charge -= tot

	s := ewald.Split{Sigma: 1.5, Cutoff: 9}
	exactE := ewald.ExactKSpace(s, atoms, box, r, nil, 14)

	gse, err := ewald.NewGSE(s, box, 32, 32, 32, 4.5)
	if err != nil {
		return "", err
	}
	spme, err := ewald.NewSPME(s, box, 32, 32, 32, 6)
	if err != nil {
		return "", err
	}
	gseE := gse.LongRange(atoms, r, nil)
	spmeE := spme.LongRange(atoms, r, nil)

	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: GSE vs SPME on a 32^3 mesh (exact k-space reference)\n")
	fmt.Fprintf(&b, "%-8s %14s %14s %22s\n", "method", "energy", "rel err", "kernel form")
	fmt.Fprintf(&b, "%-8s %14.4f %14s %22s\n", "exact", exactE, "-", "-")
	fmt.Fprintf(&b, "%-8s %14.4f %14.2e %22s\n", "GSE", gseE, math.Abs(gseE-exactE)/math.Abs(exactE), "radial (PPIP-able)")
	fmt.Fprintf(&b, "%-8s %14.4f %14.2e %22s\n", "SPME", spmeE, math.Abs(spmeE-exactE)/math.Abs(exactE), "B-spline (separable)")
	fmt.Fprintf(&b, "\nmesh workload per charged atom: GSE %.0f points (distance-limited sphere,\n", gse.MeshPointsPerAtom())
	fmt.Fprintf(&b, "runs on the HTIS); SPME %d points (6x6x6 stencil, needs gather/scatter on\n", 6*6*6)
	fmt.Fprintf(&b, "programmable cores) — GSE trades raw point count for hardware placement (§3.1)\n")
	if math.Abs(gseE-exactE)/math.Abs(exactE) > 5e-3 {
		return "", fmt.Errorf("GSE error too large")
	}
	return b.String(), nil
}

// AblationNTvsHalfShell compares the parallelization methods' import
// costs across parallelism levels, including an estimate of import time
// on the torus channels — Figure 3's argument quantified.
func AblationNTvsHalfShell() (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: NT method vs traditional half-shell import, 13-Å cutoff\n")
	fmt.Fprintf(&b, "%-10s %10s %12s %12s %8s\n", "nodes", "box (Å)", "NT atoms", "HS atoms", "NT/HS")
	const side = 62.2 // DHFR box
	const rho = 0.098
	for _, nodes := range []int{64, 512, 4096} {
		boxSide := side / math.Cbrt(float64(nodes))
		c := nt.Config{BoxSide: boxSide, Cutoff: 13}
		ntAtoms := c.ImportVolume() * rho
		hsAtoms := c.HalfShellImportVolume() * rho
		fmt.Fprintf(&b, "%-10d %10.2f %12.0f %12.0f %8.2f\n",
			nodes, boxSide, ntAtoms, hsAtoms, ntAtoms/hsAtoms)
		if nodes >= 512 && ntAtoms >= hsAtoms {
			return "", fmt.Errorf("NT import not smaller at %d nodes", nodes)
		}
	}
	fmt.Fprintf(&b, "(the NT advantage grows asymptotically with parallelism — §3.2.1)\n")
	return b.String(), nil
}
