// Package anton is a from-scratch Go reproduction of "Millisecond-Scale
// Molecular Dynamics Simulations on Anton" (Shaw et al., SC'09): a
// complete molecular dynamics stack built the way the Anton machine
// computes —
//
//   - fixed-point numerics with associative (wrapping) accumulation,
//     giving bitwise determinism, invariance to the number of nodes, and
//     exact time reversibility (paper §4);
//   - the NT method for parallelizing range-limited interactions, with
//     match units, subboxes and the tabulated pairwise point interaction
//     pipelines of the high-throughput interaction subsystem (§3.2.1);
//   - Gaussian Split Ewald long-range electrostatics through the same
//     pipelines plus a distributed 3D FFT (§3.1, §3.2.2);
//   - correction pipelines, statically assigned bonded terms, constraint
//     groups resident on single nodes, and deferred migration (§3.2.3-4);
//   - a calibrated performance model of the 512-node machine reproducing
//     the paper's Tables 2 and 4 and Figure 5, alongside a commodity
//     x86/cluster model for the published baselines;
//   - a GROMACS/Desmond-class double-precision reference engine used for
//     the paper's force-error and order-parameter validations (§5.2).
//
// This package is the public facade: it re-exports the main entry points
// from the internal implementation packages; the examples in
// example_test.go show it in use. The cmd/antonsim binary runs a
// simulation, cmd/antonbench regenerates every table and figure of the
// paper, and EXPERIMENTS.md maps each of them to its antonbench
// experiment.
package anton

import (
	"math/rand"

	"anton/internal/core"
	"anton/internal/machine"
	"anton/internal/refmd"
	"anton/internal/system"
	"anton/internal/vec"
)

// System is a fully built chemical system (topology, parameters, box,
// coordinates) plus its simulation parameters.
type System = system.System

// Engine is the Anton MD engine: fixed-point, NT-decomposed,
// deterministic, parallel-invariant and exactly reversible.
type Engine = core.Engine

// EngineConfig tunes the Anton engine.
type EngineConfig = core.Config

// ReferenceEngine is the double-precision commodity-class MD engine used
// as the accuracy baseline.
type ReferenceEngine = refmd.Engine

// ReferenceConfig tunes the reference engine.
type ReferenceConfig = refmd.Config

// Machine is an Anton machine configuration (node count and torus).
type Machine = machine.Machine

// Vec3 is the double-precision 3-vector used throughout the float APIs.
type Vec3 = vec.V3

// SystemByName builds one of the paper's benchmark systems: gpW, DHFR,
// aSFP, NADHOx, FtsZ, T7Lig (Table 4), BPTI (the millisecond system,
// §5.3) or GB3 (Figure 6).
func SystemByName(name string) (*System, error) { return system.ByName(name) }

// SystemNames lists the available named systems.
func SystemNames() []string { return system.Names() }

// SmallSystem builds a fast 645-particle demo system (with or without a
// mini-protein).
func SmallSystem(protein bool, seed int64) (*System, error) {
	return system.Small(protein, seed)
}

// NewEngine creates an Anton engine for a system on a simulated machine
// with the given node count.
func NewEngine(s *System, nodes int) (*Engine, error) {
	return core.NewEngine(s, core.DefaultConfig(nodes))
}

// NewEngineWithConfig creates an Anton engine with explicit parameters.
func NewEngineWithConfig(s *System, cfg EngineConfig) (*Engine, error) {
	return core.NewEngine(s, cfg)
}

// DefaultEngineConfig returns the paper's standard simulation parameters
// (2.5-fs steps, long-range every other step, migration every 4 steps,
// Berendsen thermostat at 300 K).
func DefaultEngineConfig(nodes int) EngineConfig { return core.DefaultConfig(nodes) }

// NewReferenceEngine creates the double-precision baseline engine with
// its default (SPME) configuration.
func NewReferenceEngine(s *System) (*ReferenceEngine, error) {
	return refmd.NewEngine(s, refmd.DefaultConfig(s))
}

// NewMachine builds an Anton machine model with a power-of-two node count
// between 1 and 32768.
func NewMachine(nodes int) (*Machine, error) { return machine.New(nodes) }

// ProjectRate runs the calibrated performance model for a system on a
// machine, returning the projected simulation rate in microseconds of
// biological time per day of wall-clock time (the paper's headline
// metric: 16.4 for DHFR on 512 nodes).
func ProjectRate(m *Machine, s *System) float64 {
	return machine.DefaultModel.Estimate(m, machine.WorkloadFromSystem(s)).RatePerDay
}

// MaxwellVelocities draws a Maxwell-Boltzmann velocity set at the given
// temperature with the center-of-mass motion removed.
func MaxwellVelocities(s *System, temperature float64, rng *rand.Rand) []Vec3 {
	return system.InitVelocities(s.Top, temperature, rng)
}

// IonicFluid builds an unconstrained charged LJ fluid — the simplest
// system exercising every force path while remaining exactly
// time-reversible on the Anton engine (no SHAKE).
func IonicFluid(nPairs int, side, cutoff float64, mesh int, seed int64) (*System, error) {
	return system.IonicFluid(nPairs, side, cutoff, mesh, seed)
}
