package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"anton/internal/core"
	"anton/internal/machine"
	"anton/internal/obs"
	"anton/internal/system"
	"anton/internal/trace"
)

// PhaseGroupProfile is one row of the measured-vs-model comparison: a
// group of engine pipeline phases matched to one machine-model task row.
type PhaseGroupProfile struct {
	Name        string
	MeasuredNs  int64
	MeasuredPct float64
	ModelUs     float64
	ModelPct    float64
}

// ProfileData is the structured result of the profile experiment: the
// numbers the text report prints.
type ProfileData struct {
	System string
	Atoms  int
	Steps  int
	Nodes  int

	Groups []PhaseGroupProfile

	MatchEfficiencyMeasured float64
	MatchEfficiencyModel    float64
	PairsConsidered         int64 // candidates the modelled match units examine
	PairsTested             int64 // of those, distance-tested in software
	Subdiv                  int
	MeanBatchOccupancy      float64

	MigrationDriftA   float64
	MigrationInterval int
	ResidencySlackA   float64

	ForcedMigrations int64
	TotalMigrations  int64

	MemTracked     bool
	MallocsPerStep float64
	NumGC          int64
}

// ProfileMeasured runs the fixed-point core engine with the observability
// layer attached and compares the measured per-phase execution profile
// against the calibrated Anton machine model's prediction for the same
// workload — the software analogue of checking Table 2's task rows
// against the hardware. Absolute times are incomparable (a Go process vs
// 512 ASICs), so the comparison is over phase *shares* of the force
// pipeline, where the workload ratios should agree to first order.
func ProfileMeasured(steps int) (string, error) {
	s, err := system.Small(true, 77)
	if err != nil {
		return "", err
	}
	d, err := profileData(s, steps, 8)
	if err != nil {
		return "", err
	}
	return renderProfile(d), nil
}

// profileData runs the instrumented engine and collects the structured
// measured-vs-model profile.
func profileData(s *system.System, steps, nodes int) (*ProfileData, error) {
	cfg := core.DefaultConfig(nodes)
	e, err := core.NewEngine(s, cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(7))
	e.SetVelocities(system.InitVelocities(s.Top, 300, rng))

	rec := obs.NewRecorder()
	rec.EnableMemStats()
	e.Observe(rec)

	// Record one frame per migration interval, so the trajectory's
	// per-frame minimum-image displacement is exactly the drift the
	// residency slack must absorb.
	tr := trace.New(s.NAtoms())
	if err := tr.Record(0, 0, e.Positions()); err != nil {
		return nil, err
	}
	interval := cfg.MigrationInterval
	for done := 0; done < steps; done += interval {
		n := interval
		if steps-done < n {
			n = steps - done
		}
		e.Step(n)
		if err := tr.Record(e.StepCount(), float64(e.StepCount())*cfg.Dt, e.Positions()); err != nil {
			return nil, err
		}
	}
	snap := rec.Snapshot()

	// The machine model's prediction for the same workload on a small
	// Anton configuration.
	w := machine.WorkloadFromSystem(s)
	w.Dt = cfg.Dt
	w.MTSInterval = cfg.MTSInterval
	m, err := machine.New(nodes)
	if err != nil {
		return nil, err
	}
	pred := machine.DefaultModel.Estimate(m, w)

	// Measured force-pipeline phase groups vs the model's task rows.
	ns := func(ps ...obs.Phase) int64 {
		var t int64
		for _, p := range ps {
			t += snap.Phases[p].Ns
		}
		return t
	}
	groups := []PhaseGroupProfile{
		{Name: "range-limited", MeasuredNs: ns(obs.PhasePairGather, obs.PhasePairMatch, obs.PhasePairReduce), ModelUs: pred.RangeLimited * 1e6},
		{Name: "FFT", MeasuredNs: ns(obs.PhaseFFT), ModelUs: pred.FFT * 1e6},
		{Name: "mesh spread+interp", MeasuredNs: ns(obs.PhaseMeshSpread, obs.PhaseMeshInterp), ModelUs: pred.MeshInterp * 1e6},
		{Name: "corrections", MeasuredNs: ns(obs.PhasePair14, obs.PhaseExclusion), ModelUs: pred.Correction * 1e6},
		{Name: "bonded", MeasuredNs: ns(obs.PhaseBonded), ModelUs: pred.Bonded * 1e6},
		{Name: "integration+constr", MeasuredNs: ns(obs.PhaseIntegration, obs.PhaseConstraints), ModelUs: pred.Integration * 1e6},
	}
	var measTotal int64
	var predTotal float64
	for _, g := range groups {
		measTotal += g.MeasuredNs
		predTotal += g.ModelUs
	}
	for i := range groups {
		if measTotal > 0 {
			groups[i].MeasuredPct = 100 * float64(groups[i].MeasuredNs) / float64(measTotal)
		}
		if predTotal > 0 {
			groups[i].ModelPct = 100 * groups[i].ModelUs / predTotal
		}
	}

	d := &ProfileData{
		System: s.Name,
		Atoms:  s.NAtoms(),
		Steps:  steps,
		Nodes:  nodes,
		Groups: groups,

		MatchEfficiencyMeasured: snap.MatchEfficiency,
		MatchEfficiencyModel:    pred.MatchEfficiency,
		PairsConsidered:         snap.Counters[obs.CtrPairsConsidered].Value,
		PairsTested:             snap.Counters[obs.CtrPairsTested].Value,
		Subdiv:                  pred.Subdiv,
		MeanBatchOccupancy:      snap.MeanOccupancy,

		MigrationDriftA:   tr.MaxDisplacementPBC(s.Box),
		MigrationInterval: interval,
		ResidencySlackA:   e.MigrationSlack(),

		ForcedMigrations: snap.Counters[obs.CtrResidencyMigrations].Value,
		TotalMigrations:  snap.Counters[obs.CtrMigrations].Value,

		MemTracked: snap.Mem.Tracked,
	}
	if snap.Mem.Tracked {
		d.MallocsPerStep = snap.Mem.MallocsPerStep
		d.NumGC = snap.Mem.NumGC
	}
	return d, nil
}

// renderProfile formats the structured profile as the experiment's
// plain-text report.
func renderProfile(d *ProfileData) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Measured vs machine-model-predicted phase profile (%s, %d atoms, %d steps, %d nodes):\n",
		d.System, d.Atoms, d.Steps, d.Nodes)
	fmt.Fprintf(&b, "%-20s %12s %8s   %12s %8s\n", "phase group", "meas ms", "share", "model us", "share")
	for _, g := range d.Groups {
		fmt.Fprintf(&b, "%-20s %12.2f %7.1f%%   %12.3f %7.1f%%\n",
			g.Name, float64(g.MeasuredNs)/1e6, g.MeasuredPct, g.ModelUs, g.ModelPct)
	}
	fmt.Fprintf(&b, "(shares are of the force-pipeline total; absolute scales differ by design)\n\n")
	fmt.Fprintf(&b, "match efficiency: measured %.1f%%, model estimate %.1f%% (subdiv %d)\n",
		100*d.MatchEfficiencyMeasured, 100*d.MatchEfficiencyModel, d.Subdiv)
	fmt.Fprintf(&b, "match candidates: %d considered by the modelled match units, %d distance-tested in software (%.1f%%)\n",
		d.PairsConsidered, d.PairsTested, 100*float64(d.PairsTested)/float64(d.PairsConsidered))
	fmt.Fprintf(&b, "mean PPIP batch occupancy: %.1f%%\n", 100*d.MeanBatchOccupancy)

	// Residency safety margin: the slack must comfortably exceed the
	// worst per-migration-interval drift.
	fmt.Fprintf(&b, "migration-interval drift: max %.3f A per %d steps vs %.3f A residency slack (%.0f%% headroom)\n",
		d.MigrationDriftA, d.MigrationInterval, d.ResidencySlackA,
		100*(d.ResidencySlackA-d.MigrationDriftA)/d.ResidencySlackA)
	fmt.Fprintf(&b, "forced early migrations: %d of %d\n", d.ForcedMigrations, d.TotalMigrations)
	if d.MemTracked {
		fmt.Fprintf(&b, "allocations: %.1f/step (%d GCs over the run)\n",
			d.MallocsPerStep, d.NumGC)
	}
	return b.String()
}
