package core

import (
	"anton/internal/htis"
	"anton/internal/obs"
)

// The sharded step pipeline. Each stage is a closure broadcast to every
// shard through its command channel; the driver's wait between stages is
// the barrier. Within a stage a shard first performs all its sends, then
// receives its expected message count — the inboxes are buffered to hold
// a whole evaluation's message set, so sends never block and a stage
// cannot deadlock.
//
// Stage map (driver-serial collectives marked *):
//
//	S1  integratePre     half-kick, drift (owned atoms)
//	S2  constrainPre     SHAKE + virtual-site placement (owned groups)
//	 *  decode/residency position cache refresh, early-migration check
//	A   streamBody       position frames out; owned canonical forces
//	                     zeroed; every import in (force frames are added
//	                     as they arrive), then range-limited pairs,
//	                     bonded, 1-4 (refresh: exclusion corrections);
//	                     one force frame out per import link (refresh:
//	                     with a long-range section); (refresh) charge
//	                     spreading
//	 *  mergeMesh        wrapping merge of shard mesh counts; FFT convolve
//	B   finishForces     (refresh) long-range interpolation (owned); own
//	                     contributions added, remaining force frames in,
//	                     vsite spread
//	 *  diagnostics      float energy/tally merge in ascending shard order
//	S7  integratePost    half-kick (owned atoms)
//	S8  constrainPost    RATTLE (owned groups); * Berendsen collective
//	 *  migration        deferred migration + view rebuild when due
//
// Stages A and B are the force evaluation (shardstream.go) and share one
// exchange id. The phases reported to the observability layer are the
// monolithic engine's (no new phase enums): S1/S7 time as Integration,
// S2/S8 as Constraints, stage A's wall splits between PairMatch and
// MeshSpread and stage B's between PairReduce and MeshInterp in
// proportion to the shards' own timers (see obsStageSplit), and the
// collectives keep their monolithic phases.
//
// Under fault injection every stage can fail: a shard goroutine may have
// been crashed by the fault plane, leaving the stage barrier incomplete.
// stepOnce/computeForces then return a non-nil *stageFail instead of
// running the driver-serial collectives (whose inputs are garbage after a
// partial stage), and the supervisor rolls the whole engine back to the
// last checkpoint. That makes mid-step state after a failure irrelevant:
// correctness only requires that a *completed* step is bitwise identical
// to the monolithic one, which holds because the reliable transport
// applies exactly the plain transport's message set (exactly-once) and
// all accumulation is order-independent fixed-point.

// Pipeline stage identifiers — the "phase" key of the fault plane's
// deterministic draws (stalls are keyed by (step, stage, shard); crashes
// fire at the position exchange, before or after its send half). The
// values are part of every recorded campaign: 3 and 4 belonged to stages
// that no longer exist and stay unused so the others keep their draws.
const (
	stIntegratePre  uint8 = 0
	stConstrainPre  uint8 = 1
	stExchangePos   uint8 = 2 // stage A
	stMergeForces   uint8 = 5 // stage B
	stIntegratePost uint8 = 6
	stConstrainPost uint8 = 7
)

// stageFail reports an incomplete stage barrier: the executors that never
// signaled completion (empty = spurious heartbeat timeout; every executor
// turned out to be alive, but the abort already poisoned the stage).
type stageFail struct {
	crashed []int32
}

// Step advances n time steps on the sharded pipeline. The trajectory is
// bitwise identical to Engine.Step for every shard count: all force and
// mesh accumulation is wrapping fixed-point (order-independent), each
// interaction is computed by exactly one shard from bit-copied positions,
// and every float collective runs driver-serial in the monolithic
// operation order. Under EnableFaults the same guarantee holds for every
// injected fault schedule; an unrecoverable failure parks the engine with
// Err() set.
func (s *Sharded) Step(n int) {
	sup := s.sup
	if s.err != nil || sup != nil && sup.ckptImage == nil && !sup.checkpoint() {
		return // parked already, or by a baseline rollback image that could not be taken
	}
	target := s.E.step + n
	streak := 0 // recovery cycles since the last completed step
	for {
		var f *stageFail
		switch {
		case s.E.step == 0 && !s.primed:
			f = s.computeForces(true)
			s.primed = f == nil
		case s.E.step < target:
			f = s.stepOnce()
		default:
			return
		}
		// Plain runs never fail a stage and have nothing to close; under
		// supervision a failed stage rolls back to the last image (the
		// loop then replays toward the same target).
		switch {
		case f != nil:
			streak++
			if !sup.recoverFrom(f, streak) {
				return
			}
		case sup != nil:
			streak = 0
			if !sup.stepDone() {
				return
			}
		}
	}
}

func (s *Sharded) stepOnce() *stageFail {
	e := s.E
	dt := e.Cfg.Dt
	withLongNow := e.step%e.Cfg.MTSInterval == 0
	cd := e.driftCoeff(dt)

	t0 := e.obsNow()
	if f := s.runEach(stIntegratePre, nil, func(st *shardState) { st.integratePre(dt, cd, withLongNow) }); f != nil {
		return f
	}
	e.obsPhase(obs.PhaseIntegration, t0)
	t0 = e.obsNow()
	if f := s.runEach(stConstrainPre, nil, func(st *shardState) { st.constrainPre() }); f != nil {
		return f
	}
	e.obsPhase(obs.PhaseConstraints, t0)

	e.step++
	withLongNext := e.step%e.Cfg.MTSInterval == 0
	if f := s.computeForces(withLongNext); f != nil {
		return f
	}

	t0 = e.obsNow()
	if f := s.runEach(stIntegratePost, nil, func(st *shardState) { st.integratePost(dt, withLongNext) }); f != nil {
		return f
	}
	e.obsPhase(obs.PhaseIntegration, t0)
	t0 = e.obsNow()
	if f := s.runEach(stConstrainPost, nil, func(st *shardState) { st.constrainPost() }); f != nil {
		return f
	}
	if e.Cfg.TauT > 0 {
		// Thermostat collective: the kinetic-energy sum runs in atom order
		// on the driver, so the scale factor matches the monolithic step.
		e.berendsenFixed()
	}
	var ct consTally
	for _, st := range s.shards {
		ct.drain(&st.cons.tally)
	}
	e.noteConstraints(ct)
	e.obsPhase(obs.PhaseConstraints, t0)

	if e.step%e.Cfg.MigrationInterval == 0 {
		s.migrate()
	}
	e.endStep()
	return nil
}

// computeForces runs one force evaluation through its two stages (one
// exchange id shared by both): stage A sends the position frames,
// computes once every import has arrived and ends with the force
// exports, the driver runs the mesh collectives, and stage B assembles
// the canonical forces. Stage A keeps the stExchangePos
// fault-plane identity (crash points fire there), stage B keeps
// stMergeForces.
func (s *Sharded) computeForces(refresh bool) *stageFail {
	e := s.E

	t0 := e.obsNow()
	e.refreshPosCache()
	viol := e.residencyViolated()
	e.obsPhase(obs.PhaseDecode, t0)
	if viol {
		if e.rec != nil {
			e.rec.Add(obs.CtrResidencyMigrations, 1)
		}
		s.migrate()
	}

	t0 = e.obsNow()
	x := s.newExchange()
	if f := s.runEach(stExchangePos,
		func(st *shardState) { st.sendPositionsStream(x) },
		func(st *shardState) { st.streamBody(x, refresh) }); f != nil {
		return f
	}
	s.obsStageSplit(t0, obs.PhaseMeshSpread, obs.PhasePairMatch)
	if e.rec != nil {
		for _, st := range s.shards {
			e.rec.AddLane("shard", "stage-a", int(st.id), st.bodyT0, st.bodyNs, 1)
		}
	}
	s.comm.noteImport(e.rec)

	if refresh {
		s.mergeMesh()
		t0 = e.obsNow()
		e.mesh.convolve(e.workers())
		e.obsPhase(obs.PhaseFFT, t0)
	}

	t0 = e.obsNow()
	if f := s.runEach(stMergeForces, nil,
		func(st *shardState) { st.finishForces(x, refresh) }); f != nil {
		return f
	}
	s.obsStageSplit(t0, obs.PhaseMeshInterp, obs.PhasePairReduce)
	s.comm.noteExport(e.rec, refresh)

	s.mergeDiagnostics(refresh)
	s.noteStream()
	return nil
}

// obsStageSplit closes a stage opened at t0 = obsNow(), booking its wall
// to two phases: the share of their stage bodies the shards spent in mesh
// work (summed meshNs over summed bodyNs, both stamped by the body) goes
// to mesh, the remainder to rest. A sharded run thereby reports spreading
// and interpolation under the monolithic engine's phases, and the phases
// still sum to the stage wall. On the timeline the two shares lie back to
// back across the stage's wall, rest first: they are shares of it, not
// separately timed intervals.
func (s *Sharded) obsStageSplit(t0 int64, mesh, rest obs.Phase) {
	e := s.E
	if e.rec == nil {
		return
	}
	wall := obs.Now() - t0
	var meshNs, bodyNs int64
	for _, st := range s.shards {
		meshNs += st.meshNs
		bodyNs += st.bodyNs
	}
	var share int64
	if meshNs > 0 { // refresh evaluations only
		share = int64(float64(wall) * float64(meshNs) / float64(bodyNs))
	}
	e.rec.AddPhase(rest, t0, wall-share)
	if meshNs > 0 {
		e.rec.AddPhase(mesh, t0+wall-share, share)
	}
}

// noteStream folds the evaluation's wait and wire-byte deltas into the
// obs counters. Driver-serial; the cumulative totals surface through
// TransportStats and Comm().
func (s *Sharded) noteStream() {
	e := s.E
	if e.rec == nil {
		return
	}
	t, last := s.tallyTotals(), s.lastTally
	s.lastTally = t
	e.rec.Add(obs.CtrStreamBlockedNs, t.BlockedNs-last.BlockedNs)
	e.rec.Add(obs.CtrPosRawBytes, t.PosRawB-last.PosRawB)
	e.rec.Add(obs.CtrPosWireBytes, t.PosWireB-last.PosWireB)
	e.rec.Add(obs.CtrForceRawBytes, t.ForceRawB-last.ForceRawB)
	e.rec.Add(obs.CtrForceWireBytes, t.ForceWireB-last.ForceWireB)
}

// mergeMesh merges the shards' fixed-point mesh contributions into the
// canonical mesh (wrapping adds: order-independent) and measures the
// resulting mesh traffic — for every shard, the count of nonzero cells it
// contributed to each remote home box, one message per (src, dst) pair.
func (s *Sharded) mergeMesh() {
	e := s.E
	ms := e.mesh
	t0 := e.obsNow()
	workers := e.workers()
	shards := s.shards
	if len(s.meshCellRows) < len(shards) {
		s.meshCellRows = make([][]int64, len(shards))
		for i := range s.meshCellRows {
			s.meshCellRows[i] = make([]int64, e.grid.NumBoxes())
		}
	}
	// Canonical merge, parallel across disjoint cell ranges: each cell is
	// summed over shards in fixed shard order and written by exactly one
	// chunk (wrapping adds — order-independent anyway). Folded shards may
	// have no mesh buffer yet.
	parallelChunks(len(ms.counts), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			var c int64
			for _, st := range shards {
				if len(st.meshCounts) == 0 {
					continue
				}
				c += st.meshCounts[i]
			}
			ms.counts[i] = c
		}
	})
	// Traffic measurement, parallel across shards: each shard's
	// per-destination row is written by exactly one chunk.
	parallelChunks(len(shards), workers, func(_, lo, hi int) {
		for si := lo; si < hi; si++ {
			row := s.meshCellRows[si]
			for b := range row {
				row[b] = 0
			}
			for i, c := range shards[si].meshCounts {
				if c != 0 {
					row[s.cellBox[i]]++
				}
			}
		}
	})
	// The measured-comm notes land serially in ascending (shard, dst)
	// order, keeping the traffic ledger deterministic.
	var meshMsgs int64
	for si, st := range shards {
		for dst, cells := range s.meshCellRows[si] {
			if cells > 0 && int32(dst) != st.id {
				s.comm.noteMesh(int(st.id), dst, int(cells))
				meshMsgs++
			}
		}
	}
	if e.rec != nil && meshMsgs > 0 {
		e.rec.Add(obs.CtrShardMeshMsgs, meshMsgs)
	}
	e.obsPhase(obs.PhaseMeshSpread, t0)
}

// mergeDiagnostics folds the shards' float energies, pair tallies and
// virials in ascending shard order (deterministic for a fixed shard
// count; these sums feed reporting only, never dynamics).
func (s *Sharded) mergeDiagnostics(refresh bool) {
	e := s.E
	var merged tally
	var eRL, eBonded, eP14 float64
	var spread, interp int64
	if e.Cfg.TrackVirial {
		e.virial = htis.Virial{}
	}
	for _, st := range s.shards {
		eRL += st.energyRL
		eBonded += st.energyBonded
		eP14 += st.energyP14
		merged.Merge(&st.tally)
		if e.Cfg.TrackVirial {
			e.virial.Merge(&st.virial)
		}
		spread += st.spreadTally
		interp += st.interpTally
	}
	e.Breakdown.RangeLimited = eRL
	e.Breakdown.Bonded = eBonded
	e.Breakdown.Correction = eP14
	e.Stats.PairsConsidered += merged.Considered
	e.Stats.PairsTested += merged.Tested
	e.Stats.PairsMatched += merged.Matched
	e.Stats.PairsComputed += merged.Computed
	e.Stats.MeshInteractions += spread + interp
	if refresh {
		var eMesh, eExcl float64
		for _, st := range s.shards {
			eMesh += st.energyMesh
			eExcl += st.energyExcl
		}
		eMesh += e.Split.SelfEnergy(e.Sys.Top.Atoms)
		e.Breakdown.Mesh = eMesh + eExcl
		e.longRangeEnergy = e.Breakdown.Mesh
		if e.rec != nil {
			e.rec.Add(obs.CtrLongRangeEvals, 1)
		}
	} else {
		e.Breakdown.Mesh = e.longRangeEnergy
	}
	e.PotentialEnergy = e.Breakdown.Total()
	if e.rec != nil {
		e.rec.Add(obs.CtrPairsConsidered, merged.Considered)
		e.rec.Add(obs.CtrPairsTested, merged.Tested)
		e.rec.Add(obs.CtrPairsMatched, merged.Matched)
		e.rec.Add(obs.CtrPairsComputed, merged.Computed)
		e.rec.Add(obs.CtrBatchFlushes, merged.BatchFlushes)
		e.rec.Add(obs.CtrBatchPairs, merged.BatchPairs)
		e.rec.AddOccupancy(merged.Occupancy)
		e.rec.AddPhaseBatch(obs.PhasePairPPIP, merged.PPIPNs, merged.BatchFlushes)
		if refresh {
			e.rec.Add(obs.CtrMeshInteractions, spread+interp)
		}
	}
}

// migrate runs the migration collective: settle the measured traffic
// accumulated under the old decomposition, migrate the monolithic state,
// count the atoms that changed home box as migration messages, and
// rebuild every shard view.
func (s *Sharded) migrate() {
	e := s.E
	s.comm.fold()
	copy(s.prevBoxOf, e.boxOf)
	e.migrate()
	t0 := e.obsNow()
	var moved int64
	for i := range e.boxOf {
		if e.boxOf[i] != s.prevBoxOf[i] {
			s.comm.noteMigration(int(s.prevBoxOf[i]), int(e.boxOf[i]))
			moved++
		}
	}
	if e.rec != nil && moved > 0 {
		e.rec.Add(obs.CtrShardMigrationMsgs, moved)
	}
	s.rebuildViews()
	e.obsPhase(obs.PhaseMigration, t0)
}

// --- Shard stage bodies. Each runs on the shard's goroutine and touches
// only owned entries of the canonical arrays, its private buffers, and
// read-only shared state. ---

// integratePre: first half-kick, pre-drift snapshot, drift — owned atoms.
func (st *shardState) integratePre(dt, cd float64, withLong bool) {
	e := st.s.E
	top := e.Sys.Top
	for _, ai := range st.owned {
		a := int(ai)
		if top.Atoms[a].Mass == 0 {
			continue
		}
		e.kick(a, top.Atoms[a].Mass, dt/2, withLong)
	}
	for _, ai := range st.owned {
		a := int(ai)
		e.oldPos[a] = e.Pos[a]
		if top.Atoms[a].Mass == 0 {
			continue
		}
		e.driftAtom(a, cd)
	}
}

// constrainPre: SHAKE per owned group (group-local scratch), then owned
// virtual-site placement (the site and its parents share a group, so all
// reads are owner-local). The sweep tally restarts here, so a step that
// is replayed after a failed stage is counted once.
func (st *shardState) constrainPre() {
	e := st.s.E
	st.cons.tally = consTally{}
	for _, gi := range st.groups {
		e.shakeGroup(int(gi), &st.cons)
	}
	for _, vi := range st.vsites {
		e.placeVSite(&e.Sys.Top.VSites[vi])
	}
}

// interpolate (refresh steps): add the mesh interpolation for owned
// charged atoms onto their long-range forces (zeroed at the start of
// stage A). Reads only the shared post-convolution mesh.
func (st *shardState) interpolate() {
	e := st.s.E
	ms := e.mesh
	top := e.Sys.Top
	for _, a := range st.owned {
		q := top.Atoms[a].Charge
		if q == 0 {
			continue
		}
		en, fx, fy, fz, n := ms.interpAtom(q, st.lposF[a])
		st.energyMesh += en
		e.fLong[a] = e.fLong[a].AddRaw(fx, fy, fz)
		st.interpTally += n
	}
}

// integratePost: second half-kick — owned atoms.
func (st *shardState) integratePost(dt float64, withLong bool) {
	e := st.s.E
	top := e.Sys.Top
	for _, ai := range st.owned {
		a := int(ai)
		if top.Atoms[a].Mass == 0 {
			continue
		}
		e.kick(a, top.Atoms[a].Mass, dt/2, withLong)
	}
}

// constrainPost: RATTLE per owned group.
func (st *shardState) constrainPost() {
	e := st.s.E
	for _, gi := range st.groups {
		e.rattleGroup(int(gi), &st.cons)
	}
}
