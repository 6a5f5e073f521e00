package core

import (
	"math"

	"anton/internal/obs"
)

// The force evaluation. There is one: Engine.computeForces drives it for
// both layouts (shard.go), as two stages over the engine's shards — run
// inline on the caller for the one-shard engine, broadcast to every
// shard's goroutine with the driver's wait as the barrier under
// NewSharded. Within a stage a shard first performs all its sends, then
// receives its expected message count — the inboxes are buffered to hold
// a whole evaluation's message set, so sends never block and a stage
// cannot deadlock. The step around it is the engine's own (marked *):
//
//	 *  Engine.beforeForces  half-kick, drift, SHAKE, virtual-site
//	                         placement, step count
//	 *  decode/residency     early-migration check on the decoded positions
//	A   streamBody           position frames out; owned canonical forces
//	                         zeroed; every import in (force frames are
//	                         added as they arrive), then range-limited
//	                         pairs, bonded, 1-4 (refresh: exclusion
//	                         corrections); one force frame out per import
//	                         link (refresh: with a long-range section);
//	                         (refresh) charge spreading
//	 *  mergeMesh            wrapping merge of the shards' mesh buffers;
//	                         FFT convolve
//	B   finishForces         (refresh) long-range interpolation (owned);
//	                         own contributions added, remaining force
//	                         frames in, vsite spread
//	 *  publish              merge of the workers' fixed-point diagnostics
//	 *  Engine.afterForces   half-kick, RATTLE, Berendsen, migration due?
//	 *  migrate              deferred migration + view rebuild when due
//
// The kicks, the drift and the constraint sweeps accumulate nothing and
// send nothing: each writes one atom or one constraint group of the
// canonical state, so the engine's own parallel sections give the same
// bits as any split over shards. Stages A and B share one exchange id. A
// shard times each section of its stage body under the section's obs
// phase, and one split books every stage wall by the shards' summed
// timers (bookStage), so both layouts report Table 2's phases the same
// way.
//
// Under fault injection either stage can fail: a shard goroutine may have
// been crashed by the fault plane, leaving the stage barrier incomplete.
// computeForces then returns a non-nil *stageFail instead of running the
// driver-serial collectives (whose inputs are garbage after a partial
// stage), and the supervisor rolls the whole engine back to the last
// checkpoint. That makes mid-step state after a failure irrelevant:
// correctness only requires that a *completed* step is bitwise identical
// to the monolithic one, which holds because the reliable transport
// applies exactly the plain transport's message set (exactly-once) and
// all accumulation is order-independent fixed-point.

// Stage identifiers — the "phase" key of the fault plane's deterministic
// draws (stalls are keyed by (step, stage, shard); crashes fire at the
// position exchange, before or after its send half). The values are part
// of every recorded campaign: 0, 1, 3, 4, 6 and 7 belonged to stages that
// no longer exist and stay unused so these two keep their draws.
const (
	stExchangePos uint8 = 2 // stage A
	stMergeForces uint8 = 5 // stage B
)

// stageFail reports an incomplete stage barrier: the executors that never
// signaled completion (empty = spurious heartbeat timeout; every executor
// turned out to be alive, but the abort already poisoned the stage).
type stageFail struct {
	crashed []int32
}

// computeForces runs one force evaluation: the short-range terms every
// step, the long-range terms when refresh is true. Stage A keeps the
// stExchangePos fault-plane identity (crash points fire there), stage B
// keeps stMergeForces.
func (e *Engine) computeForces(refresh bool) *stageFail {
	t0 := e.obsNow()
	viol := e.residencyViolated()
	e.obsPhase(obs.PhaseDecode, t0)
	if viol {
		// A residency-slack violation could mean missed pairs, so the
		// engine re-migrates immediately (deterministic: the decision
		// depends only on positions).
		if e.rec != nil {
			e.rec.Add(obs.CtrResidencyMigrations, 1)
		}
		e.migrate(true)
	}

	var x *xchg
	if e.net != nil {
		x = e.newExchange()
	}
	if f := e.runStage(stExchangePos, x, refresh); f != nil {
		return f
	}
	e.bookStage(stageAPhases)
	e.drawLanes()
	if e.net != nil {
		e.net.comm.noteImport(e.rec)
	}

	if refresh {
		e.mergeMesh()
		t0 = e.obsNow()
		e.mesh.convolve(e.workers())
		e.obsPhase(obs.PhaseFFT, t0)
	}

	if f := e.runStage(stMergeForces, x, refresh); f != nil {
		return f
	}
	e.bookStage(stageBPhases)

	var d evalDiag
	for _, st := range e.shards {
		for w := range st.wk[:st.wps] {
			d.merge(&st.wk[w].diag)
		}
	}
	e.publish(&d, refresh)
	if e.net != nil {
		e.net.comm.noteExport(e.rec, refresh)
		e.noteStream()
	}
	return nil
}

// runStage runs one stage on every shard: inline on the caller for the
// one-shard engine, on the shard goroutines under NewSharded.
func (e *Engine) runStage(stage uint8, x *xchg, refresh bool) *stageFail {
	if e.net != nil {
		return e.runEach(stage, x, refresh)
	}
	st := e.shards[0]
	if stage == stExchangePos {
		st.streamBody(x, refresh)
	} else {
		st.finishForces(x, refresh)
	}
	return nil
}

// bookStage closes a stage, booking its wall to the phases of its
// sections (in order): the shards' summed section timers, laid back to
// back from the first body's start. For one shard these are the sections'
// own intervals; when the summed timers exceed the stage's wall (shards
// running side by side) each phase gets its share of the wall, so the
// phases still sum to the stage wall.
func (e *Engine) bookStage(phases []obs.Phase) {
	if e.rec == nil {
		return
	}
	end := obs.Now()
	start := int64(math.MaxInt64)
	var tot [obs.NumPhases]int64
	var sum int64
	for _, st := range e.shards {
		start = min(start, st.bodyT0)
		for _, p := range phases {
			tot[p] += st.secNs[p]
			sum += st.secNs[p]
		}
	}
	scale := 1.0
	if wall := end - start; sum > wall {
		scale = float64(wall) / float64(sum)
	}
	t := start
	for _, p := range phases {
		ns := int64(float64(tot[p]) * scale)
		if tot[p] > 0 {
			e.rec.AddPhase(p, t, ns)
		}
		t += ns
	}
}

// drawLanes hands an attached tracer the stage-A lanes: each worker's
// busy interval in the pair section ("worker N", with its PPIP time) for
// the one-shard engine, each shard's stage-A body ("shard N") under
// NewSharded.
func (e *Engine) drawLanes() {
	if e.rec == nil {
		return
	}
	if e.net != nil {
		for _, st := range e.shards {
			e.rec.AddLane("shard", "stage-a", int(st.id), st.bodyT0, st.bodyNs, 1, 0)
		}
		return
	}
	st := e.shards[0]
	for w := range st.wk[:st.wps] {
		wk := &st.wk[w]
		if wk.busy.end != 0 {
			t := &wk.diag.pairs
			e.rec.AddLane("worker", "pair-blocks", w, wk.busy.t0, wk.busy.end-wk.busy.t0, t.BatchFlushes, t.PPIPNs)
		}
	}
}

// noteStream folds the evaluation's wait and wire-byte deltas into the
// obs counters. Driver-serial; the cumulative totals surface through
// TransportStats and Comm().
func (e *Engine) noteStream() {
	if e.rec == nil {
		return
	}
	t, last := e.TransportStats(), e.net.lastTally
	e.net.lastTally = t
	e.rec.Add(obs.CtrStreamBlockedNs, t.BlockedNs-last.BlockedNs)
	e.rec.Add(obs.CtrPosRawBytes, t.PosRawBytes-last.PosRawBytes)
	e.rec.Add(obs.CtrPosWireBytes, t.PosWireBytes-last.PosWireBytes)
	e.rec.Add(obs.CtrForceRawBytes, t.ForceRawBytes-last.ForceRawBytes)
	e.rec.Add(obs.CtrForceWireBytes, t.ForceWireBytes-last.ForceWireBytes)
}

// mergeMesh merges the shards' fixed-point mesh buffers into the
// canonical mesh, parallel across disjoint cell ranges: each cell is
// summed over shards and their workers in fixed order and written by
// exactly one block (wrapping adds — order-independent anyway). Under
// NewSharded it also measures the resulting mesh traffic.
func (e *Engine) mergeMesh() {
	t0 := e.obsNow()
	parallelChunks(len(e.mesh.counts), e.workers(), e.meshMergeFn)
	if e.net != nil {
		e.noteMeshTraffic()
	}
	e.obsPhase(obs.PhaseMeshSpread, t0)
}

// meshMergeChunk merges cells [lo, hi) of the shards' buffers.
func (e *Engine) meshMergeChunk(_, lo, hi int) {
	counts := e.mesh.counts
	for i := lo; i < hi; i++ {
		var c int64
		for _, st := range e.shards {
			for _, wk := range st.wk[:st.wps] {
				c += wk.mesh[i]
			}
		}
		counts[i] = c
	}
}

// noteMeshTraffic measures the evaluation's mesh traffic: for every
// shard, the count of nonzero cells it contributed to each remote home
// box, one message per (src, dst) pair.
func (e *Engine) noteMeshTraffic() {
	net := e.net
	shards := e.shards
	if len(net.meshCellRows) < len(shards) {
		net.meshCellRows = make([][]int64, len(shards))
		for i := range net.meshCellRows {
			net.meshCellRows[i] = make([]int64, e.grid.NumBoxes())
		}
	}
	// Parallel across shards: each shard's per-destination row is written
	// by exactly one block.
	parallelChunks(len(shards), e.workers(), func(_, lo, hi int) {
		for si := lo; si < hi; si++ {
			row := net.meshCellRows[si]
			clear(row)
			wk := shards[si].wk[:shards[si].wps]
			for i := range wk[0].mesh {
				c := wk[0].mesh[i]
				for w := 1; w < len(wk); w++ {
					c += wk[w].mesh[i]
				}
				if c != 0 {
					row[net.cellBox[i]]++
				}
			}
		}
	})
	// The measured-comm notes land serially in ascending (shard, dst)
	// order, keeping the traffic ledger deterministic.
	var meshMsgs int64
	for si, st := range shards {
		for dst, cells := range net.meshCellRows[si] {
			if cells > 0 && int32(dst) != st.id {
				net.comm.noteMesh(int(st.id), dst, int(cells))
				meshMsgs++
			}
		}
	}
	if e.rec != nil && meshMsgs > 0 {
		e.rec.Add(obs.CtrShardMeshMsgs, meshMsgs)
	}
}
