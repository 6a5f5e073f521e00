package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"anton/internal/core"
	"anton/internal/machine"
	"anton/internal/obs"
	"anton/internal/refmd"
	"anton/internal/system"
	"anton/internal/trace"
)

// PhaseGroupProfile is one row of the measured-vs-model comparison: a
// group of core-engine pipeline phases matched to one Table 2 task row,
// timed again on the double-precision reference engine (refmd) and
// predicted by the machine model.
type PhaseGroupProfile struct {
	Name        string
	MeasuredNs  int64 // core engine
	MeasuredPct float64
	RefmdNs     int64
	ModelUs     float64
	ModelPct    float64
}

// pipelineRows is the number of force-pipeline rows at the head of
// ProfileData.Groups, the rows the shares and the model cover. The row
// after them is the bookkeeping the model leaves out: core's migration
// against refmd's pair-list rebuilds.
const pipelineRows = 6

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
// pipeline, where the workload ratios should agree to first order. The
// double-precision reference engine runs the same system, seed and step
// count beside it: Table 2's commodity column, measured per task.
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

	ref, err := refmdProfile(s, steps)
	if err != nil {
		return nil, err
	}

	// Measured force-pipeline phase groups vs the model's task rows.
	ns := func(ps ...obs.Phase) int64 {
		var t int64
		for _, p := range ps {
			t += snap.Phases[p].Ns
		}
		return t
	}
	refNs := func(t refmd.Task) int64 { return ref.Profile[t].Nanoseconds() }
	groups := []PhaseGroupProfile{
		{Name: "range-limited", MeasuredNs: ns(obs.PhasePairGather, obs.PhasePairMatch, obs.PhasePairReduce), RefmdNs: refNs(refmd.TaskRangeLimited), ModelUs: pred.RangeLimited * 1e6},
		{Name: "FFT", MeasuredNs: ns(obs.PhaseFFT), RefmdNs: refNs(refmd.TaskFFT), ModelUs: pred.FFT * 1e6},
		{Name: "mesh spread+interp", MeasuredNs: ns(obs.PhaseMeshSpread, obs.PhaseMeshInterp), RefmdNs: refNs(refmd.TaskMeshInterp), ModelUs: pred.MeshInterp * 1e6},
		{Name: "corrections", MeasuredNs: ns(obs.PhasePair14, obs.PhaseExclusion), RefmdNs: refNs(refmd.TaskCorrection), ModelUs: pred.Correction * 1e6},
		{Name: "bonded", MeasuredNs: ns(obs.PhaseBonded), RefmdNs: refNs(refmd.TaskBonded), ModelUs: pred.Bonded * 1e6},
		{Name: "integration+constr", MeasuredNs: ns(obs.PhaseIntegration, obs.PhaseConstraints), RefmdNs: refNs(refmd.TaskIntegration), ModelUs: pred.Integration * 1e6},
		{Name: "pair list / migration", MeasuredNs: ns(obs.PhaseMigration), RefmdNs: refNs(refmd.TaskPairList)},
	}
	var measTotal int64
	var predTotal float64
	for _, g := range groups[:pipelineRows] {
		measTotal += g.MeasuredNs
		predTotal += g.ModelUs
	}
	for i := range groups[:pipelineRows] {
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

// refmdProfile runs the double-precision reference engine on s from the
// same seeded velocities as profileData's core run, for the same number
// of steps.
func refmdProfile(s *system.System, steps int) (*refmd.Engine, error) {
	e, err := refmd.NewEngine(s, refmd.DefaultConfig(s))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(7))
	e.SetVelocities(system.InitVelocities(s.Top, 300, rng))
	e.Step(steps)
	return e, nil
}

// renderProfile formats the structured profile as the experiment's
// plain-text report.
func renderProfile(d *ProfileData) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Measured vs machine-model-predicted phase profile (%s, %d atoms, %d steps, %d nodes):\n",
		d.System, d.Atoms, d.Steps, d.Nodes)
	fmt.Fprintf(&b, "%-22s %10s %8s %10s %10s   %10s %8s\n",
		"phase group", "core ms", "share", "refmd ms", "core/refmd", "model us", "share")
	for i, g := range d.Groups {
		coreMs, refMs := float64(g.MeasuredNs)/1e6, float64(g.RefmdNs)/1e6
		fmt.Fprintf(&b, "%-22s %10.2f ", g.Name, coreMs)
		if i < pipelineRows {
			fmt.Fprintf(&b, "%7.1f%% ", g.MeasuredPct)
		} else {
			fmt.Fprintf(&b, "%8s ", "-")
		}
		fmt.Fprintf(&b, "%10.2f %10.2f   ", refMs, coreMs/refMs)
		if i < pipelineRows {
			fmt.Fprintf(&b, "%10.3f %7.1f%%\n", g.ModelUs, g.ModelPct)
		} else {
			fmt.Fprintf(&b, "%10s %8s\n", "-", "-")
		}
	}
	fmt.Fprintf(&b, "(shares are of the force-pipeline total, the first %d rows; core and refmd ran the\n", pipelineRows)
	fmt.Fprintf(&b, " same system, seed and steps; absolute scales against the model differ by design)\n\n")
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
