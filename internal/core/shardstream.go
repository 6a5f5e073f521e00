package core

import (
	"hash/crc32"
	"time"

	"anton/internal/htis"
	"anton/internal/obs"
)

// The shard force evaluation, on one schedule: every shard sends its
// position frame, receives every import, then computes. It runs as two
// stages sharing one exchange id:
//
//	A  sendPositionsStream   one position frame out per importer
//	   streamBody            copy the owned positions into the slot view
//	                         and zero the accumulators; receive every
//	                         import (force frames that arrive early are
//	                         added at once; pos sends settled), then the
//	                         sections: gather, pair scan, bonded, 1-4,
//	                         partials reduce, (refresh) exclusion
//	                         corrections; one force frame out per import
//	                         link; (refresh) charge spreading
//	 * mergeMesh + convolve  (refresh) driver-serial collectives
//	B  finishForces          interpolate, receive the remaining force
//	                         frames, copy the owned slots' forces into
//	                         the canonical arrays, vsites
//
// Every section but the gather and the vsite spread runs through
// parallelChunks on the shard's wps workers, in the shard's one index
// space, the pair kernel's slots (shard.go, "Memory"). Worker 0
// accumulates its pairs, bonded terms and 1-4 pairs straight into
// lfShort, and each other worker into its own buffer, added in once after
// the 1-4 section; the exclusion corrections go the same way into lfLong.
// A section is timed into secNs under its obs phase, and the driver splits
// the stage wall by those timers (Engine.bookStage).
//
// A force frame carries the short-range forces at the link's foot slots
// and, on refresh evaluations, a second section with their long-range
// exclusion corrections; the owner adds it into its own accumulators at
// the same slots, its owned ones. Every contribution is a wrapping add
// onto the zeroes stage A starts from, so a frame is applied whenever it
// arrives, in either stage. Force exports go out before the spread, so
// their flight overlaps the spread. Between goroutines of one address
// space that is all the overlap worth having: running pair work as its
// imports arrived measured no faster (EXPERIMENTS.md, "One shard
// schedule").
//
// Two stages, not one: the driver-serial mesh collective (merge, FFT
// convolve) sits between the spread that ends stage A and the
// interpolation that opens stage B, so the evaluation has a barrier there
// on every refresh. The stage ids are also keys of every recorded fault
// campaign (stall draws; the crash points fire in stage A).
//
// Bitwise contract: arrival order and the worker split vary, accumulation
// does not matter. Every force/mesh/energy accumulator is wrapping
// fixed-point (associative and commutative), each slot's position copy is
// written by exactly one sender, and each interaction is computed once
// from bit-copied positions — so any interleaving of frame arrivals, and
// any worker count, produces identical bits.

// --- Stage A: position send half. ---

// sendPositionsStream encodes the owned positions into one frame and
// multicasts it. The frame is immutable until the next evaluation's send
// half (a global barrier away), so retransmissions and delayed
// deliveries resend or alias identical bytes.
func (st *shardState) sendPositionsStream(x *xchg) {
	st.posFrame = appendPosFrame(st.posFrame[:0], st.e.Pos, st.owned)
	st.beginSend()
	for _, dst := range st.expDsts {
		st.sendStream(x, dst, msgPos, st.posFrame, posRawBytes(len(st.owned)))
	}
}

// sendStream transmits one frame of rawB payload bytes: a blocking
// buffered-channel send in plain runs, a CRC-stamped envelope tracked
// until settled under the reliable transport.
func (st *shardState) sendStream(x *xchg, dst int32, kind uint8, frame []byte, rawB int64) {
	if kind == msgPos {
		st.tstats.PosRawBytes += rawB
		st.tstats.PosWireBytes += int64(len(frame))
	} else {
		st.tstats.ForceRawBytes += rawB
		st.tstats.ForceWireBytes += int64(len(frame))
	}
	if !x.reliable() {
		st.e.shards[dst].inbox <- shardMsg{from: st.id, kind: kind, frame: frame}
		return
	}
	m := shardMsg{from: st.id, kind: kind, epoch: x.epoch, xid: x.xid,
		crc: crc32.ChecksumIEEE(frame), frame: frame}
	st.out = append(st.out, outMsg{dst: dst, kind: kind, attempt: 1, m: m})
	st.tstats.Sends++
	st.deliver(x, &st.out[len(st.out)-1])
}

// --- Stage A: body. ---

// Section order of each stage body, the order Engine.bookStage lays the
// stage's phases out in. Sends and receive waits are timed into the
// section they precede or follow: the import wait into the gather, the
// force sends and the wait for the remaining force frames into the
// reduce, which also takes the workers' short-range partials.
var (
	stageAPhases = []obs.Phase{obs.PhasePairGather, obs.PhasePairMatch, obs.PhasePairReduce,
		obs.PhaseBonded, obs.PhasePair14, obs.PhaseExclusion, obs.PhaseMeshSpread}
	stageBPhases = []obs.Phase{obs.PhaseMeshInterp, obs.PhasePairReduce}
)

// startStage opens a stage body's timers.
func (st *shardState) startStage() {
	st.bodyT0 = obs.Now()
	st.last = st.bodyT0
	st.secNs = [obs.NumPhases]int64{}
}

// mark closes a section: the time since the previous one goes to phase p.
func (st *shardState) mark(p obs.Phase) {
	now := obs.Now()
	st.secNs[p] += now - st.last
	st.last = now
}

// section runs fn over [0, n) on the shard's workers.
func (st *shardState) section(n int, fn func(w, lo, hi int)) {
	parallelChunks(n, st.wps, fn)
}

// partial returns where worker w accumulates slot-indexed forces bound
// for dst: dst itself for worker 0, its own buffer for the others.
func (st *shardState) partial(w int, dst []Force3) []Force3 {
	if w == 0 {
		return dst
	}
	return st.wk[w].buf
}

// clearPartials zeroes the buffers of the workers past 0 at needSlots,
// the only slots a term of this shard can touch.
func (st *shardState) clearPartials() {
	for _, wk := range st.wk[1:st.wps] {
		for _, s := range st.needSlots {
			wk.buf[s] = Force3{}
		}
	}
}

// addPartials adds the buffers of the workers past 0 into dst at
// needSlots.
func (st *shardState) addPartials(dst []Force3) {
	for _, wk := range st.wk[1:st.wps] {
		for _, s := range st.needSlots {
			dst[s] = dst[s].Add(wk.buf[s])
		}
	}
}

// streamBody is the evaluation's main stage: copy the owned positions in
// and zero the accumulators, receive every import, then compute the
// shard's range-limited, bonded, 1-4 and (refresh) exclusion terms, send
// the force exports, and (refresh) spread the owned charges.
func (st *shardState) streamBody(x *xchg, refresh bool) {
	e := st.e
	st.startStage()
	st.begin(refresh)

	// Owned positions come from the canonical state, the rest from the
	// import frames, each atom's from its owner alone. The accumulators
	// start from zero before the first force frame can be added in.
	for i, a := range st.owned {
		st.spos[st.ownedSlots[i]] = e.Pos[a]
	}
	for _, s := range st.needSlots {
		st.lfShort[s] = Force3{}
		if refresh {
			st.lfLong[s] = Force3{}
		}
	}
	if !st.streamLoop(x, refresh, func() int { return len(st.impSrcs) - st.arrived }) {
		return // aborted: recovery restores everything from the checkpoint
	}

	// Every import is in: gather, then compute.
	st.gather()
	st.mark(obs.PhasePairGather)
	st.section(len(st.myPairs), st.pairFn)
	st.mark(obs.PhasePairMatch)
	st.section(len(st.bondTerms), st.bondedFn)
	st.mark(obs.PhaseBonded)
	st.section(len(st.pair14Idx), st.pair14Fn)
	st.mark(obs.PhasePair14)
	st.addPartials(st.lfShort)
	st.mark(obs.PhasePairReduce)
	if refresh {
		st.clearPartials()
		st.section(len(st.exclTerms), st.exclFn)
		st.addPartials(st.lfLong)
		st.mark(obs.PhaseExclusion)
	}

	// Force exports go out before the spread, so their flight overlaps it.
	st.sendForcesStream(x, refresh)
	st.mark(obs.PhasePairReduce)
	if refresh {
		for _, wk := range st.wk[:st.wps] {
			clear(wk.mesh)
		}
		st.section(len(st.owned), st.spreadFn)
		st.mark(obs.PhaseMeshSpread)
	}
	st.bodyNs = obs.Now() - st.bodyT0
}

// begin resets the shard for an evaluation: its refresh flag, its worker
// count, and the workers' diagnostics.
func (st *shardState) begin(refresh bool) {
	st.refresh = refresh
	st.wps = max(1, st.e.workers()/len(st.e.shards))
	st.ensureWorkers(st.wps)
	for w := range st.wk[:st.wps] {
		st.wk[w].diag = evalDiag{}
		st.wk[w].busy = busySpan{}
	}
	st.arrived, st.footGot = 0, 0
}

// gather decodes the float view of needSlots from spos and zeroes the
// buffers of the workers past 0.
func (st *shardState) gather() {
	for _, s := range st.needSlots {
		st.lposF[s] = st.e.Coder.Decode(st.spos[s])
	}
	st.clearPartials()
}

// scanChunk scans pairs [lo, hi) of the shard's list as worker w into its
// partial (lfShort for worker 0): match-unit prefilter, exclusion merge
// scan, batched PPIP evaluation. The scan accumulates on this goroutine's
// stack (neighbouring workers' diagnostics may share a cache line); with
// an observer attached the block also extends the worker's busy interval.
func (st *shardState) scanChunk(w, lo, hi int) {
	e := st.e
	wk := &st.wk[w]
	var t0 int64
	if e.rec != nil {
		t0 = obs.Now()
	}
	var d evalDiag
	e.scanPairs(st.myPairs[lo:hi], st.spos, st.partial(w, st.lfShort), &wk.batch, &d, true)
	wk.diag.merge(&d)
	if e.rec != nil {
		if wk.busy.end == 0 {
			wk.busy.t0 = t0
		}
		wk.busy.end = obs.Now()
	}
}

// bondedChunk evaluates owned bonded terms [lo, hi) as worker w.
func (st *shardState) bondedChunk(w, lo, hi int) {
	e := st.e
	dst := st.partial(w, st.lfShort)
	var energy int64
	for _, t := range st.bondTerms[lo:hi] {
		energy += e.bondedTerm(int(t), st.lposF, dst)
	}
	st.wk[w].diag.bonded += energy
}

// pair14Chunk evaluates owned scaled 1-4 pairs [lo, hi) as worker w.
func (st *shardState) pair14Chunk(w, lo, hi int) {
	e := st.e
	dst := st.partial(w, st.lfShort)
	var energy int64
	for _, pi := range st.pair14Idx[lo:hi] {
		energy += e.pair14One(&e.Sys.Top.Pairs14[pi], st.spos, dst)
	}
	st.wk[w].diag.correction += energy
}

// exclChunk evaluates owned exclusion corrections [lo, hi) as worker w.
func (st *shardState) exclChunk(w, lo, hi int) {
	energy := st.e.exclScan(st.exclTerms[lo:hi], st.spos, st.partial(w, st.lfLong))
	st.wk[w].diag.mesh += energy
}

// spreadChunk spreads owned atoms [lo, hi)'s charges onto worker w's mesh
// buffer (it reads only owned positions).
func (st *shardState) spreadChunk(w, lo, hi int) {
	e := st.e
	ms := e.mesh
	k := &e.pk
	wk := &st.wk[w]
	var tally int64
	for _, s := range st.ownedSlots[lo:hi] {
		if q := k.q[s]; q != 0 {
			tally += ms.spreadAtom(q, st.lposF[s], wk.mesh)
		}
	}
	wk.diag.spread += tally
}

// applyImport decodes one position frame into the slot view, at the
// sender's owned slots.
func (st *shardState) applyImport(m *shardMsg) {
	if err := decodePosFrame(m.frame, st.e.shards[m.from].ownedSlots, st.spos); err != nil {
		// A malformed frame cannot pass the CRC gate; reaching here means
		// the codec itself broke its round-trip invariant.
		panic("core: position frame round-trip violation: " + err.Error())
	}
	st.arrived++
}

// applyFoot adds one force frame into the accumulators at the owned
// slots it covers (wrapping fixed-point adds: arrival order, and the
// stage it lands in, are invisible).
func (st *shardState) applyFoot(m *shardMsg, refresh bool) {
	var long []Force3
	if refresh {
		long = st.lfLong
	}
	if err := decodeForceFrame(m.frame, st.inFootFrom[m.from], st.lfShort, long); err != nil {
		// As for positions: only a codec fault can get here past the CRC.
		panic("core: force frame round-trip violation: " + err.Error())
	}
	st.footGot++
}

// applyStream applies one fresh (non-stale, integrity-checked) envelope:
// position frames land in the slot view, force frames in the
// accumulators. Returns false for duplicates.
func (st *shardState) applyStream(x *xchg, m *shardMsg, refresh bool) bool {
	stamp := st.gotPos
	if m.kind == msgForce {
		stamp = st.gotF
	}
	if x.reliable() {
		if stamp[m.from] == x.xid {
			return false
		}
		stamp[m.from] = x.xid
	}
	if m.kind == msgPos {
		st.applyImport(m)
	} else {
		st.applyFoot(m, refresh)
	}
	return true
}

// handleStream runs one received envelope through the staleness,
// integrity and idempotence layers, then applyStream.
func (st *shardState) handleStream(x *xchg, m *shardMsg, refresh bool) {
	if !x.reliable() {
		st.applyStream(x, m, refresh)
		return
	}
	if m.epoch != x.epoch || m.xid != x.xid {
		// From an earlier exchange or recovery epoch: the sender may
		// already be refilling the frame's backing buffer — discard
		// without touching it.
		st.tstats.StaleDiscards++
		return
	}
	if crc32.ChecksumIEEE(m.frame) != m.crc {
		// Corrupted in flight. No ack: the sender's timeout retransmits.
		st.tstats.CrcDiscards++
		return
	}
	if !st.applyStream(x, m, refresh) {
		st.tstats.DupDiscards++
	}
	// Ack duplicates too — a duplicate usually means the first ack was
	// lost or is still in flight.
	st.sendAck(x, m)
}

// streamLoop drives one stage's receive side to completion: receive
// until pending() reaches zero and (reliable mode) every send is
// *settled*. Waits that find nothing to receive count as blocked time.
// Returns false if the supervisor aborted the stage — the shard's local
// state is then garbage, and recovery restores everything from the
// checkpoint.
//
// Settled means acked, OR transmitted beyond the plane's safe attempt
// (which the plane guarantees to deliver). The second arm matters: the
// exchange must not *require* acks to complete, because the final ack of
// an exchange has no retransmission backstop — the receiver that sent it
// moves on and parks, and a parked shard cannot re-ack. Waiting on a
// dropped final ack would wedge the sender in the old stage until the
// heartbeat aborts it, turning a routine ack drop into a full rollback.
// With settle-by-attempt, acks only stop retransmission early; delivery
// itself is guaranteed by the safe-attempt rule (a full-inbox drop at the
// safe attempt is the one residual loss, and the heartbeat rollback is
// the backstop for that).
func (st *shardState) streamLoop(x *xchg, refresh bool, pending func() int) bool {
	if !x.reliable() {
		for pending() > 0 {
			t0 := obs.Now()
			m := <-st.inbox
			st.tstats.BlockedNs += obs.Now() - t0
			st.handleStream(x, &m, refresh)
		}
		return true
	}

	// Reliable mode: settle/retransmit.
	settle := x.plane.Spec().SafeAttempt + 2
	unsettled := 0
	for i := range st.out {
		if o := &st.out[i]; !o.acked && o.attempt < settle {
			unsettled++
		}
	}
	rto := rtoBase
	timer := time.NewTimer(rto)
	defer timer.Stop()
	ackOne := func(a shardAck) {
		if a.epoch != x.epoch || a.xid != x.xid {
			return
		}
		for i := range st.out {
			o := &st.out[i]
			if !o.acked && o.dst == a.from && o.kind == a.kind {
				o.acked = true
				if o.attempt < settle {
					unsettled--
				}
				break
			}
		}
	}
	for pending() > 0 || unsettled > 0 {
		progressed := false
		select {
		case m := <-st.inbox:
			st.handleStream(x, &m, refresh)
			progressed = true
		case a := <-st.acks:
			ackOne(a)
			progressed = true
		case <-x.abort:
			return false
		default:
			t0 := obs.Now()
			select {
			case m := <-st.inbox:
				st.tstats.BlockedNs += obs.Now() - t0
				st.handleStream(x, &m, refresh)
				progressed = true
			case a := <-st.acks:
				st.tstats.BlockedNs += obs.Now() - t0
				ackOne(a)
				progressed = true
			case <-x.abort:
				return false
			case <-timer.C:
				st.tstats.BlockedNs += obs.Now() - t0
				// Quiescence timeout: retransmit everything unsettled and
				// back off (the plane never faults attempts >= SafeAttempt).
				for i := range st.out {
					o := &st.out[i]
					if o.acked || o.attempt >= settle {
						continue
					}
					o.attempt++
					st.tstats.Retransmits++
					st.deliver(x, o)
					if o.attempt >= settle {
						unsettled--
					}
				}
				if rto < rtoMax {
					rto *= 2
				}
				timer.Reset(rto)
			}
		}
		if progressed {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(rto)
		}
	}
	return true
}

// sendForcesStream encodes and sends one force frame per import link:
// the short-range section and, on refresh, the long-range section for the
// same foot atoms. The position sends are settled by the time the import
// wait exits, so resetting the in-flight tracking here is safe; these
// sends settle in stage B's loop under the same exchange id.
func (st *shardState) sendForcesStream(x *xchg, refresh bool) {
	st.beginSend()
	for di, dst := range st.impSrcs {
		slots := st.footSlots[di]
		frame := appendForceFrame(st.footFrames[di][:0], st.lfShort, slots)
		rawB := forceRawBytes(len(slots))
		if refresh {
			frame = appendForceFrame(frame, st.lfLong, slots)
			rawB *= 2
		}
		st.footFrames[di] = frame
		st.sendStream(x, dst, msgForce, frame, rawB)
	}
}

// --- Stage B: force assembly. ---

// interpChunk (refresh steps) adds the mesh interpolation for owned atoms
// [lo, hi) into lfLong at their slots. Reads only the shared
// post-convolution mesh.
func (st *shardState) interpChunk(w, lo, hi int) {
	e := st.e
	ms := e.mesh
	k := &e.pk
	var energy, tally int64
	for _, s := range st.ownedSlots[lo:hi] {
		q := k.q[s]
		if q == 0 {
			continue
		}
		en, fx, fy, fz, n := ms.interpAtom(q, st.lposF[s])
		energy += htis.QuantizeEnergy(en)
		st.lfLong[s] = st.lfLong[s].AddRaw(fx, fy, fz)
		tally += n
	}
	d := &st.wk[w].diag
	d.mesh += energy
	d.interp += tally
}

// assembleChunk writes owned atoms [lo, hi)'s forces, complete in the
// accumulators at their slots, into the canonical arrays.
func (st *shardState) assembleChunk(_, lo, hi int) {
	e := st.e
	for i, a := range st.owned[lo:hi] {
		s := st.ownedSlots[lo+i]
		e.fShort[a] = st.lfShort[s]
		if st.refresh {
			e.fLong[a] = st.lfLong[s]
		}
	}
}

// finishForces is the evaluation's second stage: (refresh) mesh
// interpolation, the receive loop for the force frames still to come
// (which also settles the force sends), the owned forces' assembly into
// the canonical arrays, and finally the virtual-site spreads — only after
// every contribution is merged, since the spread rounding is nonlinear in
// the total. The spreads run serially: sites may share a parent atom.
func (st *shardState) finishForces(x *xchg, refresh bool) {
	e := st.e
	st.startStage()
	if refresh {
		st.section(len(st.owned), st.interpFn)
		st.mark(obs.PhaseMeshInterp)
	}
	if !st.streamLoop(x, refresh, func() int { return st.inFoot - st.footGot }) {
		return // aborted: recovery restores everything from the checkpoint
	}
	st.section(len(st.owned), st.assembleFn)
	if refresh {
		for _, vi := range st.vsites {
			spreadVSiteForce(e.fLong, &e.Sys.Top.VSites[vi])
		}
	}
	for _, vi := range st.vsites {
		spreadVSiteForce(e.fShort, &e.Sys.Top.VSites[vi])
	}
	st.mark(obs.PhasePairReduce)
	st.bodyNs = obs.Now() - st.bodyT0
}
