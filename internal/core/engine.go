package core

import (
	"fmt"
	"math"

	"anton/internal/ewald"
	"anton/internal/ff"
	"anton/internal/fixp"
	"anton/internal/htis"
	"anton/internal/machine"
	"anton/internal/nt"
	"anton/internal/obs"
	"anton/internal/ppip"
	"anton/internal/system"
	"anton/internal/vec"
)

// EwaldTol is the real-space screening at the cutoff: the Ewald split's σ
// makes erfc(R/(√2σ)) equal to it.
const EwaldTol = 1e-5

// Config tunes the Anton engine.
type Config struct {
	Nodes             int     // power-of-two node count (1..32768)
	Dt                float64 // time step, fs (paper: 2.5)
	MTSInterval       int     // long-range every k steps (paper: 2)
	MigrationInterval int     // steps between atom migrations (paper: 4-8)

	// Berendsen temperature control; TauT <= 0 gives NVE (required for
	// the exact-reversibility property).
	TargetT float64
	TauT    float64

	// Workers caps the number of concurrent force workers (0 = use up to
	// 16 or GOMAXPROCS, whichever is smaller). The trajectory and every
	// reported energy are bitwise identical for any value — wrapping
	// accumulation is associative.
	Workers int
}

// DefaultConfig mirrors the paper's standard simulation parameters.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:             nodes,
		Dt:                2.5,
		MTSInterval:       2,
		MigrationInterval: 4,
		TargetT:           300,
		TauT:              100,
	}
}

// Stats counts the work the simulated hardware performed on the
// trajectory. A supervised rollback restores it with the state, so each
// step counts once however often it was replayed; an attached recorder's
// counters, folded from it (Engine.foldCounters), also keep the work of
// the abandoned attempts.
type Stats struct {
	Steps            int
	PairsConsidered  int64 // candidates the modelled match units examine
	PairsTested      int64 // of those, distance-tested in software (prefilter survivors)
	PairsMatched     int64 // passed the low-precision check
	PairsComputed    int64 // inside the exact cutoff (PPIP work)
	MeshInteractions int64 // atom-mesh-point interactions (spread+interp)
	Migrations       int

	// SHAKE and RATTLE sweeps over a group's constraints, and groups that
	// used a sweep cap up without meeting the tolerance (want 0: such a
	// group carries on with its constraints violated).
	ConstraintSweeps      int64
	ConstraintUnconverged int64
}

// tally is one worker's pair-statistics accumulator (the HTIS observation
// counters, shared with the observability layer).
type tally = htis.PairStats

// MatchEfficiency returns computed/considered, the hardware utilization
// figure of Table 3.
func (s Stats) MatchEfficiency() float64 {
	if s.PairsConsidered == 0 {
		return 0
	}
	return float64(s.PairsComputed) / float64(s.PairsConsidered)
}

// Engine is the fixed-point Anton MD engine.
type Engine struct {
	Sys  *system.System
	Cfg  Config
	Mach *machine.Machine

	Coder PosCoder
	Pipe  *htis.Pipeline
	Split ewald.Split

	Pos []fixp.Vec3
	Vel []Vel3

	// topoHash is topologyHash(Sys.Top), taken once: the topology does
	// not change after construction, and every checkpoint write, restore
	// and rollback image reads it through fingerprint.
	topoHash uint64

	fShort []Force3 // per-step range-limited + bonded forces
	fLong  []Force3 // long-range impulse forces (unscaled), refreshed every MTS interval

	step int

	// Spatial decomposition: home boxes (one per node, ownership and NT
	// assignment) refined into subboxes (match-unit work granularity,
	// §3.2.1 / Figure 3e-f).
	grid     nt.Grid
	boxSide  [3]float64
	boxOf    []int32   // home box per atom
	boxAtoms [][]int32 // resident atoms per box, sorted
	groups   [][]int   // constraint groups (incl. singletons), sorted
	groupOf  []int32   // group index per atom

	subGrid  nt.Grid    // global subbox grid (boxes x subboxes per edge)
	subSide  [3]float64 // subbox edge lengths
	subSlack float64    // how far an atom may drift from its subbox
	subOf    []int32    // subbox per atom (assigned individually)
	subPairs [][2]int32 // interacting subbox pairs (linear ids), grouped by shard

	// pk is the cache-resident cluster pair kernel: slot-indexed SoA
	// gather of the subbox decomposition (pairkernel.go). Its exclusion
	// merge scan reads the topology's per-atom Skip lists.
	pk pairKernel

	mesh *meshSolver

	// groupCons caches, per constraint group, the group's constraints with
	// the endpoint positions remapped to indices within the group's atom
	// list, so SHAKE/RATTLE scratch is sized by the largest group instead
	// of the whole system. consGroups lists the groups that have
	// constraints, the index space the constraint phases chunk over.
	// Built in NewEngine.
	groupCons    [][]groupCon
	consGroups   []int32
	maxGroupLen  int
	maxGroupCons int

	// The force evaluation's shards (shard.go): one owning every home box
	// and run inline (NewEngine), or one per box on its own goroutine
	// (NewSharded, which sets net, their transport and supervision state).
	// primed is set once the initial force evaluation is done.
	shards []*shardState
	net    *network
	primed bool

	// View-rebuild scratch: epoch-stamped membership marks per atom and
	// per shard, and each import source's index in a shard's impSrcs.
	viewStamp  []int32
	shardStamp []int32
	shardSlot  []int32
	viewEpoch  int32

	// Preallocated chunk closures for the steady-state phases (a closure
	// passed to parallelChunks escapes; allocating them once keeps the
	// per-step path allocation-free): the mesh merge, and the constraint
	// phases with their per-worker SHAKE/RATTLE scratch.
	meshMergeFn   func(w, lo, hi int)
	shakeChunkFn  func(w, lo, hi int)
	rattleChunkFn func(w, lo, hi int)
	consWorkers   []consScratch

	// oldPos is the pre-drift position snapshot SHAKE reads (beforeForces).
	oldPos []fixp.Vec3

	// ljPairs caches the Lorentz-Berthelot combined parameters per
	// LJ-type pair (the parameter values a PPIP receives alongside each
	// pair), indexed ti*nTypes+tj.
	ljPairs []struct{ sigma, eps float64 }
	nTypes  int

	mu *htis.MatchUnit

	// rec is the optional observability registry (nil = disabled). It is
	// strictly read-only with respect to dynamics state: the trajectory is
	// bitwise identical with observability on or off, and the disabled
	// path costs one nil check per phase — never per pair. folded holds
	// the engine's tallies as foldCounters last read them.
	rec    *obs.Recorder
	folded [obs.NumCounters]int64

	// stepHooks are the end-of-step observers (the health watch and the
	// run-ledger tap). Hooks must be read-only with respect to dynamics
	// state, so their order does not matter.
	stepHooks []func()

	Stats Stats

	// Energies of the last force evaluation, in kcal/mol: each the float
	// of a wrapping sum of quantized term energies (evalDiag).
	PotentialEnergy float64
	longRangeEnergy float64

	// Breakdown holds the per-component energies of the last evaluation.
	Breakdown EnergyBreakdown
}

// NewEngine builds the engine for a system on an Anton machine with the
// given node count. Its force evaluation runs on one shard over every
// home box, inline on the caller.
func NewEngine(s *system.System, cfg Config) (*Engine, error) {
	return newEngine(s, cfg, false)
}

// newEngine builds the engine with one shard per home box (perBox, for
// NewSharded) or one over every box.
func newEngine(s *system.System, cfg Config, perBox bool) (*Engine, error) {
	if cfg.Dt <= 0 {
		return nil, fmt.Errorf("core: non-positive time step")
	}
	if cfg.MTSInterval < 1 {
		cfg.MTSInterval = 1
	}
	if cfg.MigrationInterval < 1 {
		cfg.MigrationInterval = 1
	}
	m, err := machine.New(cfg.Nodes)
	if err != nil {
		return nil, err
	}
	split := ewald.Split{
		Sigma:  ewald.SigmaForCutoff(s.Cutoff, EwaldTol),
		Cutoff: s.Cutoff,
	}
	// The stored position format is 2*x/L (state.go), so one unit of a
	// stored displacement corresponds to L/2 Å; the pipeline and match
	// unit are configured with that conversion scale.
	pipe, err := htis.NewPipeline(s.Box.L.X/2, split)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		Sys:    s,
		Cfg:    cfg,
		Mach:   m,
		Coder:  PosCoder{L: s.Box.L.X},
		Pipe:   pipe,
		Split:  split,
		Pos:    make([]fixp.Vec3, s.NAtoms()),
		Vel:    make([]Vel3, s.NAtoms()),
		fShort: make([]Force3, s.NAtoms()),
		fLong:  make([]Force3, s.NAtoms()),
		grid:   m.Grid(),
		mu:     htis.NewMatchUnit(s.Box.L.X/2, s.Cutoff, 8),

		topoHash: topologyHash(s.Top),
	}
	e.boxSide = m.BoxSide(s.Box.L.X)

	// Quantize the initial state.
	for i, r := range s.R {
		e.Pos[i] = e.Coder.Encode(r)
	}
	e.placeVSitesFixed()

	// Constraint groups, extended with singletons so every atom belongs
	// to exactly one group whose leader determines the home box.
	e.groupOf = make([]int32, s.NAtoms())
	for i := range e.groupOf {
		e.groupOf[i] = -1
	}
	for _, g := range s.Top.ConstraintGroups() {
		idx := len(e.groups)
		e.groups = append(e.groups, g)
		for _, a := range g {
			e.groupOf[a] = int32(idx)
		}
	}
	for i := 0; i < s.NAtoms(); i++ {
		if e.groupOf[i] < 0 {
			e.groupOf[i] = int32(len(e.groups))
			e.groups = append(e.groups, []int{i})
		}
	}

	// Group-local constraint views and the sizes of the SHAKE/RATTLE
	// scratch.
	e.buildGroupCons()

	// Subbox grid: each home box divided into a regular array of subboxes
	// (§3.2.1); atoms are assigned to subboxes individually at migration,
	// so the only slack needed is the drift accumulated between
	// migrations. The interacting subbox pairs are enumerated once with
	// the slack-expanded reach; the match units still apply the physical
	// cutoff, so the computed interaction set is exactly the within-cutoff
	// pairs (§3.2.4).
	const targetSubSide = 4.4 // Å
	subDims := [3]int{}
	for a := 0; a < 3; a++ {
		per := int(e.boxSide[a] / targetSubSide)
		if per < 1 {
			per = 1
		}
		subDims[a] = m.Dims[a] * per
		e.subSide[a] = s.Box.L.X / float64(subDims[a])
	}
	e.subGrid = nt.Grid{Nx: subDims[0], Ny: subDims[1], Nz: subDims[2]}
	e.subSlack = 0.45*float64(cfg.MigrationInterval) + 0.45
	reach := s.Cutoff + 2*e.subSlack

	// Combined LJ parameter table.
	e.nTypes = len(s.Params.LJTypes)
	e.ljPairs = make([]struct{ sigma, eps float64 }, e.nTypes*e.nTypes)
	for ti := 0; ti < e.nTypes; ti++ {
		for tj := 0; tj < e.nTypes; tj++ {
			sg, ep := s.Params.LJPair(ti, tj)
			e.ljPairs[ti*e.nTypes+tj] = struct{ sigma, eps float64 }{sg, ep}
		}
	}

	// Mesh solver.
	e.mesh, err = newMeshSolver(s, split)
	if err != nil {
		return nil, err
	}

	// The shards and the subbox pair list grouped by them.
	e.buildShards(reach, perBox)

	// Steady-state phase closures (allocated once, see parallel.go).
	e.meshMergeFn = e.meshMergeChunk
	e.shakeChunkFn = e.shakeChunk
	e.rattleChunkFn = e.rattleChunk

	e.oldPos = make([]fixp.Vec3, s.NAtoms())
	e.migrate(false)
	return e, nil
}

// SetVelocities quantizes and installs initial velocities.
func (e *Engine) SetVelocities(v []vec.V3) {
	for i := range v {
		if e.Sys.Top.Atoms[i].Mass == 0 {
			e.Vel[i] = Vel3{}
			continue
		}
		e.Vel[i] = EncodeVel(v[i])
	}
}

// NegateVelocities flips all velocities exactly (the reversibility
// experiment of §4).
func (e *Engine) NegateVelocities() {
	for i := range e.Vel {
		e.Vel[i] = e.Vel[i].Neg()
	}
}

// Positions returns the decoded positions (Å).
func (e *Engine) Positions() []vec.V3 {
	out := make([]vec.V3, len(e.Pos))
	for i, p := range e.Pos {
		out[i] = e.Coder.Decode(p)
	}
	return out
}

// Snapshot captures the exact fixed-point state for bitwise comparison.
func (e *Engine) Snapshot() ([]fixp.Vec3, []Vel3) {
	return append([]fixp.Vec3(nil), e.Pos...), append([]Vel3(nil), e.Vel...)
}

// StepCount returns the completed step count.
func (e *Engine) StepCount() int { return e.step }

// Observe attaches an observability registry — with its step tracer, if
// one is attached to it (obs.Recorder.Trace). Pass nil to detach. Must be
// called between Step calls (the recorder is read by worker goroutines
// during a step); attaching or detaching never perturbs the trajectory.
// The recorder's tally counters count from the moment it is attached.
func (e *Engine) Observe(r *obs.Recorder) {
	e.rec = r
	e.foldCounters(false)
}

// foldCounters adds to the attached recorder what each of the engine's
// tallies gained since the last fold — Stats, and under NewSharded the
// transport tallies, the measured-comm message counts and the
// supervisor's and fault plane's counts — then makes the current values
// the next fold's baseline (with add false it only does that). Step runs
// it after the priming evaluation and after each completed step, and a
// recovery before it restores Stats, so the recorder counts all the work
// done, the abandoned attempts' included.
func (e *Engine) foldCounters(add bool) {
	if e.rec == nil {
		return
	}
	var now [obs.NumCounters]int64
	s := &e.Stats
	now[obs.CtrPairsConsidered] = s.PairsConsidered
	now[obs.CtrPairsTested] = s.PairsTested
	now[obs.CtrPairsMatched] = s.PairsMatched
	now[obs.CtrPairsComputed] = s.PairsComputed
	now[obs.CtrMeshInteractions] = s.MeshInteractions
	now[obs.CtrMigrations] = int64(s.Migrations)
	now[obs.CtrConstraintSweeps] = s.ConstraintSweeps
	now[obs.CtrConstraintUnconverged] = s.ConstraintUnconverged
	if net := e.net; net != nil {
		t := e.TransportStats()
		now[obs.CtrStreamBlockedNs] = t.BlockedNs
		now[obs.CtrPosRawBytes] = t.PosRawBytes
		now[obs.CtrPosWireBytes] = t.PosWireBytes
		now[obs.CtrForceRawBytes] = t.ForceRawBytes
		now[obs.CtrForceWireBytes] = t.ForceWireBytes
		now[obs.CtrRetransmits] = t.Retransmits
		now[obs.CtrDupDiscards] = t.DupDiscards
		now[obs.CtrCrcDiscards] = t.CrcDiscards
		c := net.comm
		now[obs.CtrShardImportMsgs] = c.importMsgs
		now[obs.CtrShardExportMsgs] = c.exportMsgs
		now[obs.CtrShardMeshMsgs] = c.meshMsgs
		now[obs.CtrShardMigrationMsgs] = c.migrationMsgs
		if sup := net.sup; sup != nil {
			f := sup.plane.Counts()
			now[obs.CtrFaultDrops] = f.Drops
			now[obs.CtrFaultDups] = f.Dups
			now[obs.CtrFaultDelays] = f.Delays
			now[obs.CtrFaultCorrupts] = f.Corrupts
			now[obs.CtrFaultStalls] = f.Stalls
			now[obs.CtrFaultCrashes] = f.CrashesFired
			now[obs.CtrRecoveries] = sup.recoveries
			now[obs.CtrReplaySteps] = sup.replaySteps
			now[obs.CtrRecoveryNs] = sup.recoveryNs
		}
	}
	if add {
		for c, v := range now {
			if d := v - e.folded[c]; d != 0 {
				e.rec.Add(obs.Counter(c), d)
			}
		}
	}
	e.folded = now
}

// Recorder returns the attached observability registry (nil if detached).
func (e *Engine) Recorder() *obs.Recorder { return e.rec }

// AddStepHook appends an end-of-step observer. Hooks run after each
// completed step, after the recorder closes it, and must not mutate
// dynamics state. There is deliberately no removal: taps live for the
// engine's lifetime, like the recorder.
func (e *Engine) AddStepHook(fn func()) {
	if fn != nil {
		e.stepHooks = append(e.stepHooks, fn)
	}
}

// endStep closes a completed step: the step count, the recorder, then the
// end-of-step observers.
func (e *Engine) endStep() {
	e.Stats.Steps++
	if e.rec != nil {
		e.rec.StepDone(int64(e.step))
	}
	for _, fn := range e.stepHooks {
		fn()
	}
}

// MigrationSlack returns the residency slack: how far an atom may drift
// from its assigned subbox between migrations before correctness demands
// an early re-migration. Diagnostics compare the measured per-interval
// drift (trace.MaxDisplacementPBC) against this margin.
func (e *Engine) MigrationSlack() float64 { return e.subSlack }

// SpreadTable returns the mesh solver's PPIP table of the GSE spreading
// kernel; the four range-limited tables are on Pipe.
func (e *Engine) SpreadTable() *ppip.Table { return e.mesh.weightTab }

// obsNow returns the observability clock (obs.Now), or 0 with
// observability off. The nil checks are the entire cost of the disabled
// path.
func (e *Engine) obsNow() int64 {
	if e.rec == nil {
		return 0
	}
	return obs.Now()
}

// obsPhase closes a timed phase opened at t0 = obsNow(), handing the
// recorder its start and duration.
func (e *Engine) obsPhase(p obs.Phase, t0 int64) {
	if e.rec != nil {
		e.rec.AddPhase(p, t0, obs.Now()-t0)
	}
}

// migrate reassigns constraint groups to home boxes based on the group
// leader's current position (§3.2.4: all atoms of a constraint group
// reside on the same node, which takes full responsibility for them),
// then rebuilds the pair kernel's slot-indexed gather and the shard
// views. Under NewSharded the traffic measured under the old
// decomposition is settled first, and with traffic set (a migration of
// the trajectory, not the re-layout of a restore) every atom that changed
// home box is booked as a migration message.
func (e *Engine) migrate(traffic bool) {
	t0 := e.obsNow()
	if e.net != nil {
		e.net.comm.fold()
		copy(e.net.prevBoxOf, e.boxOf)
	}
	n := e.grid.NumBoxes()
	if e.boxAtoms == nil {
		e.boxAtoms = make([][]int32, n)
		e.boxOf = make([]int32, len(e.Pos))
	}
	for i := range e.boxAtoms {
		e.boxAtoms[i] = e.boxAtoms[i][:0]
	}
	for _, g := range e.groups {
		r := e.Coder.Decode(e.Pos[g[0]])
		bx := int(r.X / e.boxSide[0])
		by := int(r.Y / e.boxSide[1])
		bz := int(r.Z / e.boxSide[2])
		c := e.grid.Wrap(nt.BoxCoord{X: bx, Y: by, Z: bz})
		idx := int32(e.grid.Index(c))
		for _, a := range g {
			e.boxOf[a] = idx
		}
	}
	// Filled in atom order, so each box's list is sorted as built.
	for a, b := range e.boxOf {
		e.boxAtoms[b] = append(e.boxAtoms[b], int32(a))
	}
	// Subbox assignment is per atom (pair discovery does not depend on
	// ownership), so the residency slack only has to cover inter-
	// migration drift. The kernel rebuild sorts each subbox's slot range
	// by atom index by construction.
	if e.subOf == nil {
		e.subOf = make([]int32, len(e.Pos))
	}
	for i, p := range e.Pos {
		r := e.Coder.Decode(p)
		c := e.subGrid.Wrap(nt.BoxCoord{
			X: int(r.X / e.subSide[0]),
			Y: int(r.Y / e.subSide[1]),
			Z: int(r.Z / e.subSide[2]),
		})
		e.subOf[i] = int32(e.subGrid.Index(c))
	}
	e.pk.rebuild(e)
	e.rebuildViews()
	if e.net != nil {
		if traffic {
			e.noteMigrations()
		}
		e.relink()
	}
	e.Stats.Migrations++
	e.obsPhase(obs.PhaseMigration, t0)
}

// Step advances n time steps, priming the initial force evaluation
// first. It is the one step loop: the trajectory is bitwise identical for
// every layout, because all force and mesh accumulation is wrapping
// fixed-point (order-independent), each interaction is computed by exactly
// one shard from bit-copied positions, and every float collective runs
// driver-serial in one operation order. Under EnableFaults a failed stage
// rolls the engine back to the last rollback image and the loop replays
// toward the same target, so the guarantee holds for every injected fault
// schedule. A parked engine (Err set: an unrecoverable failure, or Close)
// does not step.
func (e *Engine) Step(n int) {
	var sup *supervisor
	if e.net != nil {
		if e.net.err != nil {
			return // parked
		}
		if sup = e.net.sup; sup != nil && sup.ckptImage == nil {
			sup.checkpoint() // the baseline rollback image
		}
	}
	target := e.step + n
	streak := 0 // recovery cycles since the last completed step
	for {
		var f *stageFail
		switch {
		case e.step == 0 && !e.primed:
			f = e.computeForces(true)
			e.primed = f == nil
		case e.step < target:
			f = e.stepOnce()
		default:
			return
		}
		// Only a supervised engine can fail a stage; it rolls back. A
		// completed section folds the counters and, under supervision,
		// takes the rollback image on the checkpoint cadence.
		if f != nil {
			streak++
			if !sup.recoverFrom(f, streak) {
				return
			}
			continue
		}
		e.foldCounters(true)
		if sup != nil {
			streak = 0
			sup.stepDone()
		}
	}
}

// totalForce returns the force on atom i including the MTS long-range
// impulse weighting for the current step.
func (e *Engine) totalForce(i int, withLong bool) Force3 {
	f := e.fShort[i]
	if withLong {
		f = f.Add(e.fLong[i].Scale(int64(e.Cfg.MTSInterval)))
	}
	return f
}

// stepOnce performs one velocity-Verlet step in fixed point. It returns
// the failed stage if a shard goroutine died in the force evaluation
// (NewSharded under a fault plane; the step is then abandoned).
func (e *Engine) stepOnce() *stageFail {
	refresh := e.beforeForces()
	if f := e.computeForces(refresh); f != nil {
		return f
	}
	if e.afterForces(refresh) {
		e.migrate(true)
	}
	e.endStep()
	return nil
}

// beforeForces runs a step up to its force evaluation: the first
// half-kick, the drift, SHAKE and the virtual-site placement, then the
// step count. It returns whether the coming evaluation refreshes the
// long-range forces. Each update is per atom or per constraint group,
// with no accumulation and no message, so one pass over the canonical
// state gives every shard layout the same bits.
func (e *Engine) beforeForces() bool {
	top := e.Sys.Top
	dt := e.Cfg.Dt
	// The long-range impulse is applied on the steps where it is
	// (re)evaluated; with the Verlet splitting both half-kicks around the
	// evaluation carry it.
	withLong := e.step%e.Cfg.MTSInterval == 0

	t0 := e.obsNow()
	for i, a := range top.Atoms {
		if a.Mass == 0 {
			continue
		}
		e.kick(i, a.Mass, dt/2, withLong)
	}
	copy(e.oldPos, e.Pos)
	cd := e.driftCoeff(dt)
	for i, a := range top.Atoms {
		if a.Mass == 0 {
			continue
		}
		e.driftAtom(i, cd)
	}
	e.obsPhase(obs.PhaseIntegration, t0)
	// Constraints (SHAKE) per group, then virtual sites.
	t0 = e.obsNow()
	e.shakeFixed()
	e.placeVSitesFixed()
	e.obsPhase(obs.PhaseConstraints, t0)

	e.step++
	return e.step%e.Cfg.MTSInterval == 0
}

// afterForces finishes a step after its force evaluation (refresh as
// beforeForces returned it): the second half-kick, RATTLE and the
// Berendsen thermostat. It returns whether the deferred migration
// (§3.2.4) is due.
func (e *Engine) afterForces(refresh bool) bool {
	top := e.Sys.Top
	t0 := e.obsNow()
	for i, a := range top.Atoms {
		if a.Mass == 0 {
			continue
		}
		e.kick(i, a.Mass, e.Cfg.Dt/2, refresh)
	}
	e.obsPhase(obs.PhaseIntegration, t0)
	t0 = e.obsNow()
	e.rattleFixed()
	if e.Cfg.TauT > 0 {
		e.berendsenFixed()
	}
	e.obsPhase(obs.PhaseConstraints, t0)
	return e.step%e.Cfg.MigrationInterval == 0
}

// driftCoeff returns the velocity-counts-to-position-counts conversion
// for a drift of dt.
func (e *Engine) driftCoeff(dt float64) float64 {
	return VelQuantum * dt * 2 / e.Coder.L * math.Exp2(float64(fixp.FracBits))
}

// driftAtom advances one atom's position by its velocity (rounded to the
// nearest even position count, preserving exact reversibility).
func (e *Engine) driftAtom(i int, cd float64) {
	e.Pos[i] = e.Pos[i].Add(fixp.Vec3{
		X: fixp.F32(int32(math.RoundToEven(float64(e.Vel[i].X) * cd))),
		Y: fixp.F32(int32(math.RoundToEven(float64(e.Vel[i].Y) * cd))),
		Z: fixp.F32(int32(math.RoundToEven(float64(e.Vel[i].Z) * cd))),
	})
}

// kick applies a half-kick: v += round(F * c) with the symmetric
// round-to-nearest/even rule, preserving exact reversibility.
func (e *Engine) kick(i int, mass, halfDt float64, withLong bool) {
	f := e.totalForce(i, withLong)
	c := htis.ForceQuantum * ff.ForceToAccel * halfDt / mass / VelQuantum
	e.Vel[i].X += int64(math.RoundToEven(float64(f.X) * c))
	e.Vel[i].Y += int64(math.RoundToEven(float64(f.Y) * c))
	e.Vel[i].Z += int64(math.RoundToEven(float64(f.Z) * c))
}

// EnergyBreakdown separates the potential energy by force component —
// the rows of Table 2, as energies.
type EnergyBreakdown struct {
	RangeLimited float64 // screened electrostatics + LJ within the cutoff
	Bonded       float64 // bonds + angles + dihedrals
	Mesh         float64 // long-range (k-space) including self correction
	Correction   float64 // excluded-pair and scaled 1-4 corrections
}

// Total sums the components.
func (b EnergyBreakdown) Total() float64 {
	return b.RangeLimited + b.Bonded + b.Mesh + b.Correction
}

// evalDiag accumulates one force evaluation's diagnostics as one shard
// worker sees them: the energy of each EnergyBreakdown term, the
// pair statistics and the atom-mesh interaction counts. Each
// term's energy is quantized where it is computed (htis.QuantizeEnergy)
// and summed with wrapping integer adds, like the forces, so partials
// merge to the same bits in any order and grouping: the reported
// energies do not depend on the worker or shard count.
type evalDiag struct {
	// Energy counts of the EnergyBreakdown terms; mesh holds the
	// interpolation energies and the exclusion corrections.
	rangeLimited, bonded, mesh, correction int64

	pairs          tally
	spread, interp int64 // atom-mesh interactions of spreading and interpolation
}

// merge adds another worker's partials.
func (d *evalDiag) merge(o *evalDiag) {
	d.rangeLimited += o.rangeLimited
	d.bonded += o.bonded
	d.mesh += o.mesh
	d.correction += o.correction
	d.pairs.Merge(&o.pairs)
	d.spread += o.spread
	d.interp += o.interp
}

// publish installs an evaluation's merged diagnostics: the energies and
// their breakdown, Stats, and the batch-queue counters that have no
// Stats field (the rest reach the recorder by foldCounters). On refresh
// evaluations the long-range energy (mesh, exclusion corrections and the
// Ewald self term) is replaced; between refreshes the stale one persists.
func (e *Engine) publish(d *evalDiag, refresh bool) {
	if refresh {
		self := htis.QuantizeEnergy(e.Split.SelfEnergy(e.Sys.Top.Atoms))
		e.longRangeEnergy = htis.EnergyValue(d.mesh + self)
	}
	e.Breakdown = EnergyBreakdown{
		RangeLimited: htis.EnergyValue(d.rangeLimited),
		Bonded:       htis.EnergyValue(d.bonded),
		Mesh:         e.longRangeEnergy,
		Correction:   htis.EnergyValue(d.correction),
	}
	e.PotentialEnergy = e.Breakdown.Total()
	e.Stats.PairsConsidered += d.pairs.Considered
	e.Stats.PairsTested += d.pairs.Tested
	e.Stats.PairsMatched += d.pairs.Matched
	e.Stats.PairsComputed += d.pairs.Computed
	e.Stats.MeshInteractions += d.spread + d.interp
	if e.rec == nil {
		return
	}
	e.rec.Add(obs.CtrBatchFlushes, d.pairs.BatchFlushes)
	e.rec.Add(obs.CtrBatchPairs, d.pairs.BatchPairs)
	e.rec.AddOccupancy(d.pairs.Occupancy)
	e.rec.AddPhaseBatch(obs.PhasePairPPIP, d.pairs.PPIPNs, d.pairs.BatchFlushes)
	if refresh {
		e.rec.Add(obs.CtrLongRangeEvals, 1)
	}
}

// bondedTerm evaluates one bonded term by flat index (bonds, then angles,
// then dihedrals, then impropers): it reads its atoms' float positions
// from the slot-indexed r, and adds each atom's returned force, quantized,
// into the slot-indexed buf. Returns the term energy in energy counts.
func (e *Engine) bondedTerm(t int, r []vec.V3, buf []Force3) int64 {
	top := e.Sys.Top
	slotOf := e.pk.slotOf
	atoms, n := top.BondedTermAtoms(t)
	var rt [4]vec.V3
	for i, a := range atoms[:n] {
		rt[i] = r[slotOf[a]]
	}
	eTerm, f := top.BondedTermForce(t, e.Sys.Box, &rt)
	for i, a := range atoms[:n] {
		s := slotOf[a]
		buf[s] = buf[s].AddRaw(
			htis.QuantizeForce(f[i].X),
			htis.QuantizeForce(f[i].Y),
			htis.QuantizeForce(f[i].Z),
		)
	}
	return htis.QuantizeEnergy(eTerm)
}

// exclScan runs the correction pipeline's slow-cadence part: subtract
// the mesh's smooth-component contribution for excluded pairs (§3.2.3).
// The smooth kernel is bounded and slowly varying, so it belongs with the
// long-range impulse. Reads the given excluded pairs' positions from the
// slot-indexed pos, accumulates the quantized corrections into the
// slot-indexed dst and returns the energy correction in energy counts.
func (e *Engine) exclScan(list [][2]int32, pos []fixp.Vec3, dst []Force3) int64 {
	top := e.Sys.Top
	slotOf := e.pk.slotOf
	var energy int64
	for _, p := range list {
		qi, qj := top.Atoms[p[0]].Charge, top.Atoms[p[1]].Charge
		if qi == 0 || qj == 0 {
			continue
		}
		i, j := slotOf[p[0]], slotOf[p[1]]
		d := e.Coder.DeltaToPhys(pos[i].Sub(pos[j]))
		r2 := d.Norm2()
		if r2 < 1e-12 {
			continue
		}
		es, fs := e.Split.SmoothPair(r2, qi, qj)
		energy -= htis.QuantizeEnergy(es)
		fv := d.Scale(-fs)
		fx := htis.QuantizeForce(fv.X)
		fy := htis.QuantizeForce(fv.Y)
		fz := htis.QuantizeForce(fv.Z)
		dst[i] = dst[i].AddRaw(fx, fy, fz)
		dst[j] = dst[j].AddRaw(-fx, -fy, -fz)
	}
	return energy
}

// pair14One evaluates a single scaled 1-4 pair — with the mesh's smooth
// part for it subtracted — reading positions from the slot-indexed pos
// and accumulating the quantized forces into the slot-indexed dst. These
// are stiff bonded-range forces, so they run in the fast loop (every
// step) on the correction pipeline. Returns the energy in energy counts.
func (e *Engine) pair14One(p *ff.Pair14, pos []fixp.Vec3, dst []Force3) int64 {
	top := e.Sys.Top
	ps := e.Sys.Params
	energy := 0.0
	ai, aj := top.Atoms[p.I], top.Atoms[p.J]
	i, j := e.pk.slotOf[p.I], e.pk.slotOf[p.J]
	d := e.Coder.DeltaToPhys(pos[i].Sub(pos[j]))
	r2 := d.Norm2()
	var fs float64
	if qq := ai.Charge * aj.Charge; qq != 0 {
		es, f1 := e.Split.SmoothPair(r2, ai.Charge, aj.Charge)
		energy -= es
		fs -= f1
		eb, f2 := ff.Coulomb(r2, ai.Charge, aj.Charge)
		energy += top.Scale14Elec * eb
		fs += top.Scale14Elec * f2
	}
	sigma, eps := ps.LJPair(ai.LJType, aj.LJType)
	if eps != 0 {
		el, f3 := ff.LJ126(r2, sigma, eps)
		energy += top.Scale14LJ * el
		fs += top.Scale14LJ * f3
	}
	fv := d.Scale(fs)
	fx := htis.QuantizeForce(fv.X)
	fy := htis.QuantizeForce(fv.Y)
	fz := htis.QuantizeForce(fv.Z)
	dst[i] = dst[i].AddRaw(fx, fy, fz)
	dst[j] = dst[j].AddRaw(-fx, -fy, -fz)
	return htis.QuantizeEnergy(energy)
}

// placeVSite recomputes one virtual site's position from its parents in
// fixed point (deterministic per constraint group; the parents and the
// site share a constraint group, so the site's owner does this locally).
func (e *Engine) placeVSite(v *ff.VSite) {
	dj := e.Coder.DeltaToPhys(e.Pos[v.J].Sub(e.Pos[v.I]))
	dk := e.Coder.DeltaToPhys(e.Pos[v.K].Sub(e.Pos[v.I]))
	ri := e.Coder.Decode(e.Pos[v.I])
	site := ri.Add(dj.Scale(v.A)).Add(dk.Scale(v.B))
	e.Pos[v.Site] = e.Coder.Encode(e.Sys.Box.Wrap(site))
}

// placeVSitesFixed recomputes all virtual-site positions.
func (e *Engine) placeVSitesFixed() {
	for i := range e.Sys.Top.VSites {
		e.placeVSite(&e.Sys.Top.VSites[i])
	}
}

// spreadVSiteForce redistributes one site's accumulated force counts to
// the parent atoms with quantized weights, then zeroes the site. Must run
// after the site's force is fully merged: the rounding is nonlinear in
// the total, so partial spreads would change bits.
func spreadVSiteForce(f []Force3, v *ff.VSite) {
	fs := f[v.Site]
	if fs == (Force3{}) {
		return
	}
	wI := 1 - v.A - v.B
	add := func(idx int, w float64) {
		f[idx] = f[idx].AddRaw(
			int64(math.RoundToEven(float64(fs.X)*w)),
			int64(math.RoundToEven(float64(fs.Y)*w)),
			int64(math.RoundToEven(float64(fs.Z)*w)),
		)
	}
	add(v.I, wI)
	add(v.J, v.A)
	add(v.K, v.B)
	f[v.Site] = Force3{}
}

// groupCon is one constraint of a group with its endpoints remapped to
// positions within the group's atom list (scratch indices), plus the terms
// of the SHAKE/RATTLE updates that depend on the topology alone: the
// inverse masses 1/m_i, 1/m_j and the squared target length R*R, each
// evaluated once with the expression the sweeps used to evaluate.
type groupCon struct {
	li, lj int32   // local positions of c.I, c.J within groups[g]
	mi, mj float64 // 1/Mass of c.I, c.J
	r2     float64 // c.R * c.R
}

// SHAKE and RATTLE sweep caps. A group that uses its cap up without
// meeting the tolerance is counted in Stats.ConstraintUnconverged.
const (
	shakeMaxSweeps  = 200
	rattleMaxSweeps = 100
)

// consTally counts one worker's constraint work: sweeps over a group's
// constraints, SHAKE's and RATTLE's together, and groups that left a loop
// at its cap.
type consTally struct {
	sweeps, unconverged int64
}

// consScratch is the SHAKE/RATTLE scratch of one worker, sized by the
// largest constraint group: group-local positions (cur doubles as
// RATTLE's velocities), and per constraint the vector that stays fixed
// over a group's sweeps — SHAKE's reference bond, RATTLE's bond — with
// RATTLE's denominator |d|^2 (1/m_i + 1/m_j).
type consScratch struct {
	cur, ref []vec.V3
	d        []vec.V3
	den      []float64
	tally    consTally
}

// newConsScratch allocates one worker's scratch. The arrays are a few
// dozen bytes and rewritten on every sweep, and the allocator lays equal-
// sized blocks side by side, so each block ends in two cache lines of
// padding: without it two workers' scratch shares a line and the parallel
// constraint phase runs no faster than the serial one.
func (e *Engine) newConsScratch() consScratch {
	const pad = 128
	n, m := e.maxGroupLen, e.maxGroupCons
	vs := make([]vec.V3, 2*n+m+pad/24+1)
	return consScratch{
		cur: vs[:n:n],
		ref: vs[n : 2*n : 2*n],
		d:   vs[2*n : 2*n+m : 2*n+m],
		den: make([]float64, m+pad/8)[:m:m],
	}
}

// buildGroupCons groups the constraints by constraint group with local
// endpoint indices, lists the groups that have any, and records the sizes
// the group-local SHAKE/RATTLE scratch needs.
func (e *Engine) buildGroupCons() {
	top := e.Sys.Top
	e.groupCons = make([][]groupCon, len(e.groups))
	local := make([]int32, len(e.Pos))
	for _, atoms := range e.groups {
		if len(atoms) > e.maxGroupLen {
			e.maxGroupLen = len(atoms)
		}
		for li, a := range atoms {
			local[a] = int32(li)
		}
	}
	for ci := range top.Constraints {
		c := &top.Constraints[ci]
		g := e.groupOf[c.I]
		e.groupCons[g] = append(e.groupCons[g], groupCon{
			li: local[c.I],
			lj: local[c.J],
			mi: 1 / top.Atoms[c.I].Mass,
			mj: 1 / top.Atoms[c.J].Mass,
			r2: c.R * c.R,
		})
	}
	for gi, cons := range e.groupCons {
		if len(cons) == 0 {
			continue
		}
		e.consGroups = append(e.consGroups, int32(gi))
		if len(cons) > e.maxGroupCons {
			e.maxGroupCons = len(cons)
		}
	}
}

// shakeGroup applies SHAKE to one constraint group: positions are
// decoded into the group-local scratch, iteratively corrected, and
// re-encoded; velocities of group members are recomputed from the
// constrained displacement. Deterministic per group and independent of
// the node layout (groups live on one node), and groups are disjoint in
// the atoms they write, so any assignment of groups to workers or shards
// gives the same bits; each caller passes its own scratch.
//
// The reference bond rd never changes during a group's sweeps (ref is
// read-only), so it is taken once per constraint instead of once per
// constraint per sweep. Every expression keeps the operand order of the
// sweep-by-sweep form (kept as the oracle in constraints_test.go): float
// arithmetic is not associative, and the trajectory must not move a bit.
func (e *Engine) shakeGroup(gi int, sc *consScratch) {
	cons := e.groupCons[gi]
	if len(cons) == 0 {
		return
	}
	top := e.Sys.Top
	box := e.Sys.Box
	atoms := e.groups[gi]
	oldPos := e.oldPos
	cur, ref, rds := sc.cur, sc.ref, sc.d
	for li, a := range atoms {
		cur[li] = e.Coder.Decode(e.Pos[a])
		ref[li] = e.Coder.Decode(oldPos[a])
	}
	for ci := range cons {
		gc := &cons[ci]
		rds[ci] = box.MinImage(ref[gc.li].Sub(ref[gc.lj]))
	}
	const tol = 1e-10
	converged := false
	sweeps := 0
	for ; sweeps < shakeMaxSweeps && !converged; sweeps++ {
		worst := 0.0
		moved := false
		for ci := range cons {
			gc := &cons[ci]
			d := box.MinImage(cur[gc.li].Sub(cur[gc.lj]))
			diff := d.Norm2() - gc.r2
			if v := math.Abs(diff) / gc.r2; v > worst {
				worst = v
			}
			if math.Abs(diff) < tol {
				continue
			}
			moved = true
			rd := rds[ci]
			g := diff / (2 * (gc.mi + gc.mj) * d.Dot(rd))
			corr := rd.Scale(g)
			cur[gc.li] = cur[gc.li].Sub(corr.Scale(gc.mi))
			cur[gc.lj] = cur[gc.lj].Add(corr.Scale(gc.mj))
		}
		// A sweep that moved no atom leaves every later sweep the same
		// input, so they would all move nothing too: stopping here is
		// exact. It happens: a bond shorter than 1 Å (water's O-H) can sit
		// inside the absolute tolerance that gates its update and outside
		// the relative one that ends the loop.
		converged = worst < tol || !moved
	}
	sc.tally.note(sweeps, converged)
	// Re-encode and recompute velocities from the constrained motion.
	dt := e.Cfg.Dt
	for li, a := range atoms {
		if top.Atoms[a].Mass == 0 {
			continue
		}
		e.Pos[a] = e.Coder.Encode(box.Wrap(cur[li]))
		disp := e.Coder.DeltaToPhys(e.Pos[a].Sub(oldPos[a]))
		e.Vel[a] = EncodeVel(disp.Scale(1 / dt))
	}
}

// shakeChunk applies SHAKE to constrained groups [lo, hi) of consGroups as
// worker w (installed once as Engine.shakeChunkFn).
func (e *Engine) shakeChunk(w, lo, hi int) {
	sc := e.consWorkers[w] // a copy: the tally is written per group, and the slots are neighbours
	for _, gi := range e.consGroups[lo:hi] {
		e.shakeGroup(int(gi), &sc)
	}
	e.consWorkers[w].tally = sc.tally
}

// shakeFixed applies SHAKE to every constraint group, reading the
// pre-drift positions from e.oldPos — a parallel phase over groups.
func (e *Engine) shakeFixed() {
	e.constrain(e.shakeChunkFn)
}

// constrain runs one constraint pass (SHAKE or RATTLE chunks) over the
// constrained groups and books the workers' sweep tallies into Stats.
func (e *Engine) constrain(chunkFn func(w, lo, hi int)) {
	if len(e.consGroups) == 0 {
		return
	}
	workers := e.workers()
	for len(e.consWorkers) < workers {
		e.consWorkers = append(e.consWorkers, e.newConsScratch())
	}
	parallelChunks(len(e.consGroups), workers, chunkFn)
	var t consTally
	for w := range e.consWorkers[:workers] {
		wt := &e.consWorkers[w].tally
		t.sweeps += wt.sweeps
		t.unconverged += wt.unconverged
		*wt = consTally{}
	}
	e.Stats.ConstraintSweeps += t.sweeps
	e.Stats.ConstraintUnconverged += t.unconverged
}

// note books one group's pass.
func (t *consTally) note(sweeps int, converged bool) {
	t.sweeps += int64(sweeps)
	if !converged {
		t.unconverged++
	}
}

// rattleGroup removes velocity components along one group's constrained
// bonds. Positions do not move during RATTLE, so each bond vector d and
// the denominator |d|^2 (1/m_i + 1/m_j) are taken once per constraint;
// operand order as in shakeGroup.
func (e *Engine) rattleGroup(gi int, sc *consScratch) {
	cons := e.groupCons[gi]
	if len(cons) == 0 {
		return
	}
	top := e.Sys.Top
	atoms := e.groups[gi]
	v, ds, dens := sc.cur, sc.d, sc.den
	for li, a := range atoms {
		v[li] = e.Vel[a].Float()
	}
	for ci := range cons {
		gc := &cons[ci]
		d := e.Coder.DeltaToPhys(e.Pos[atoms[gc.li]].Sub(e.Pos[atoms[gc.lj]]))
		ds[ci] = d
		dens[ci] = d.Norm2() * (gc.mi + gc.mj)
	}
	converged := false
	sweeps := 0
	for ; sweeps < rattleMaxSweeps && !converged; sweeps++ {
		worst := 0.0
		for ci := range cons {
			gc := &cons[ci]
			d := ds[ci]
			rel := v[gc.li].Sub(v[gc.lj])
			dot := d.Dot(rel)
			if math.Abs(dot) > worst {
				worst = math.Abs(dot)
			}
			k := dot / dens[ci]
			v[gc.li] = v[gc.li].Sub(d.Scale(k * gc.mi))
			v[gc.lj] = v[gc.lj].Add(d.Scale(k * gc.mj))
		}
		converged = worst < 1e-12
	}
	sc.tally.note(sweeps, converged)
	for li, a := range atoms {
		if top.Atoms[a].Mass == 0 {
			continue
		}
		e.Vel[a] = EncodeVel(v[li])
	}
}

// rattleChunk is shakeChunk's RATTLE counterpart (Engine.rattleChunkFn).
func (e *Engine) rattleChunk(w, lo, hi int) {
	sc := e.consWorkers[w]
	for _, gi := range e.consGroups[lo:hi] {
		e.rattleGroup(int(gi), &sc)
	}
	e.consWorkers[w].tally = sc.tally
}

// rattleFixed removes velocity components along constrained bonds, in
// parallel over groups like shakeFixed.
func (e *Engine) rattleFixed() {
	e.constrain(e.rattleChunkFn)
}

// berendsenFixed rescales all velocities toward the target temperature.
// The scale factor is a deterministic function of the kinetic energy,
// which is summed in atom order — identical on every node layout.
func (e *Engine) berendsenFixed() {
	T := e.Temperature()
	if T <= 0 {
		return
	}
	lam := math.Sqrt(1 + e.Cfg.Dt/e.Cfg.TauT*(e.Cfg.TargetT/T-1))
	for i := range e.Vel {
		e.Vel[i].X = int64(math.RoundToEven(float64(e.Vel[i].X) * lam))
		e.Vel[i].Y = int64(math.RoundToEven(float64(e.Vel[i].Y) * lam))
		e.Vel[i].Z = int64(math.RoundToEven(float64(e.Vel[i].Z) * lam))
	}
}

// residencyViolated reports whether any atom has drifted further from its
// subbox than the slack allows. Real Anton sizes the import slack so this
// cannot happen between its scheduled migrations (§3.2.4); the software
// engine checks and re-migrates (see computeForces).
func (e *Engine) residencyViolated() bool {
	for i, p := range e.Pos {
		r := e.Coder.Decode(p)
		c := e.subGrid.Coord(int(e.subOf[i]))
		if e.distToSubbox(r, c) > e.subSlack {
			return true
		}
	}
	return false
}

// distToSubbox returns the distance from a point to its subbox volume.
func (e *Engine) distToSubbox(r vec.V3, c nt.BoxCoord) float64 {
	box := e.Sys.Box
	gap := func(x, lo, hi, l float64) float64 {
		// Periodic distance from x to the interval [lo, hi).
		if x >= lo && x < hi {
			return 0
		}
		d1 := math.Abs(vec.MinImage1(x-lo, l))
		d2 := math.Abs(vec.MinImage1(x-hi, l))
		return math.Min(d1, d2)
	}
	gx := gap(r.X, float64(c.X)*e.subSide[0], float64(c.X+1)*e.subSide[0], box.L.X)
	gy := gap(r.Y, float64(c.Y)*e.subSide[1], float64(c.Y+1)*e.subSide[1], box.L.Y)
	gz := gap(r.Z, float64(c.Z)*e.subSide[2], float64(c.Z+1)*e.subSide[2], box.L.Z)
	return math.Sqrt(gx*gx + gy*gy + gz*gz)
}

// KineticEnergy returns the kinetic energy (kcal/mol).
func (e *Engine) KineticEnergy() float64 {
	ke := 0.0
	for i, a := range e.Sys.Top.Atoms {
		if a.Mass == 0 {
			continue
		}
		v := e.Vel[i].Float()
		ke += 0.5 * ff.VelToKinetic * a.Mass * v.Norm2()
	}
	return ke
}

// Temperature returns the instantaneous kinetic temperature (K).
func (e *Engine) Temperature() float64 {
	dof := e.Sys.Top.DegreesOfFreedom()
	if dof <= 0 {
		return 0
	}
	return 2 * e.KineticEnergy() / (float64(dof) * ff.KB)
}

// TotalEnergy returns kinetic plus potential energy.
func (e *Engine) TotalEnergy() float64 { return e.KineticEnergy() + e.PotentialEnergy }

// Forces returns the current total physical forces in kcal/mol/Å
// (short-range plus the latest unscaled long-range evaluation) — the
// quantity compared against the double-precision reference for the force
// errors of Table 4.
func (e *Engine) Forces() []vec.V3 {
	out := make([]vec.V3, len(e.fShort))
	for i := range out {
		f := e.fShort[i].Add(e.fLong[i])
		out[i] = vec.V3{
			X: htis.ForceValue(f.X),
			Y: htis.ForceValue(f.Y),
			Z: htis.ForceValue(f.Z),
		}
	}
	return out
}
