package core

import (
	"anton/internal/machine"
	"anton/internal/obs"
)

// This file maps the engine onto the step tracer's virtual timeline: each
// of the 14 pipeline phases gets a fixed virtual slot inside the step
// window, sized from the machine performance model's predicted phase
// shares so the timeline's shape mirrors the paper's Table 2 execution
// profile (measured wall times ride in span args). The layout is derived
// from the configuration alone: two runs of the same configuration
// produce bitwise-identical virtual timelines.

// tracePhaseWeights distributes the machine model's predicted task times
// over the engine's pipeline phases. The within-group splits are fixed
// constants (they only shape the timeline; measured wall times are
// carried per span), so the layout is deterministic.
func (e *Engine) tracePhaseWeights() [obs.NumPhases]float64 {
	p := e.traceModelProfile()
	var w [obs.NumPhases]float64
	w[obs.PhaseDecode] = 0.10 * p.Integration
	w[obs.PhasePairGather] = 0.10 * p.RangeLimited
	w[obs.PhasePairMatch] = 0.60 * p.RangeLimited
	w[obs.PhasePairReduce] = 0.30 * p.RangeLimited
	w[obs.PhaseBonded] = p.Bonded
	w[obs.PhasePair14] = 0.30 * p.Correction
	w[obs.PhaseExclusion] = 0.70 * p.Correction
	w[obs.PhaseMeshSpread] = p.MeshInterp / 2
	w[obs.PhaseFFT] = p.FFT
	w[obs.PhaseMeshInterp] = p.MeshInterp / 2
	w[obs.PhaseConstraints] = 0.35 * p.Integration
	w[obs.PhaseIntegration] = 0.35 * p.Integration
	w[obs.PhaseMigration] = 0.10 * p.Integration
	return w
}

// traceModelProfile evaluates the calibrated performance model for this
// engine's workload and machine.
func (e *Engine) traceModelProfile() machine.StepProfile {
	w := machine.WorkloadFromSystem(e.Sys)
	w.Dt = e.Cfg.Dt
	w.MTSInterval = e.Cfg.MTSInterval
	return machine.DefaultModel.Estimate(e.Mach, w)
}
