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
//	   streamBody            zero the owned canonical forces; receive
//	                         every import (force frames that arrive early
//	                         are applied at once; pos sends settled), then
//	                         range-limited pairs, bonded, 1-4, (refresh)
//	                         exclusion corrections; one force frame out
//	                         per import link; (refresh) charge spreading
//	 * mergeMesh + convolve  (refresh) driver-serial collectives
//	B  finishForces          interpolate, add the shard's own owned
//	                         forces, apply the remaining force frames,
//	                         vsites
//
// A force frame carries the short-range forces for the link's foot
// atoms and, on refresh evaluations, a second section with their
// long-range exclusion corrections. Every contribution to an owned
// atom's canonical force is a wrapping add onto the zeroes stage A
// starts from, so a frame is applied whenever it arrives, in either
// stage. Force exports go out before the spread, so their flight
// overlaps the spread. Between goroutines of one address space that is
// all the overlap worth having: running pair work as its imports arrived
// measured no faster (EXPERIMENTS.md, "One shard schedule").
//
// Two stages, not one: the driver-serial mesh collective (merge, FFT
// convolve) sits between the spread that ends stage A and the
// interpolation that opens stage B, so the evaluation has a barrier there
// on every refresh. The stage ids are also keys of every recorded fault
// campaign (stall draws; the crash points fire in stage A).
//
// Bitwise contract: arrival order varies, accumulation does not matter.
// Every force/mesh/energy accumulator is wrapping fixed-point
// (associative and commutative), each atom's position copy is written by
// exactly one sender, and each interaction is computed once from
// bit-copied positions — so any interleaving of frame arrivals produces
// identical bits.

// --- Stage A: position send half. ---

// sendPositionsStream encodes the owned positions into one frame and
// multicasts it. The frame is immutable until the next evaluation's send
// half (a global barrier away), so retransmissions and delayed
// deliveries resend or alias identical bytes.
func (st *shardState) sendPositionsStream(x *xchg) {
	st.posFrame = appendPosFrame(st.posFrame[:0], st.s.E.Pos, st.owned)
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
		st.tstats.PosRawB += rawB
		st.tstats.PosWireB += int64(len(frame))
	} else {
		st.tstats.ForceRawB += rawB
		st.tstats.ForceWireB += int64(len(frame))
	}
	if !x.reliable() {
		st.s.shards[dst].inbox <- shardMsg{from: st.id, kind: kind, frame: frame}
		return
	}
	m := shardMsg{from: st.id, kind: kind, epoch: x.epoch, xid: x.xid,
		crc: crc32.ChecksumIEEE(frame), frame: frame}
	st.out = append(st.out, outMsg{dst: dst, kind: kind, attempt: 1, m: m})
	st.tstats.Sends++
	st.deliver(x, &st.out[len(st.out)-1])
}

// --- Stage A: body. ---

// streamBody is the evaluation's main stage: zero the owned canonical
// forces, receive every import, then compute the shard's range-limited,
// bonded, 1-4 and (refresh) exclusion terms, send the force exports, and
// (refresh) spread the owned charges.
func (st *shardState) streamBody(x *xchg, refresh bool) {
	e := st.s.E
	k := &e.pk
	t0 := obs.Now()
	st.bodyT0 = t0

	// Per-evaluation reset.
	st.meshNs = 0
	st.diag = evalDiag{}
	st.arrived, st.footGot = 0, 0

	// Owned positions come from the canonical state, the rest from the
	// import frames, each atom's from its owner alone. The owned forces
	// start from zero before the first force frame can be applied.
	for _, a := range st.owned {
		st.lpos[a] = e.Pos[a]
		e.fShort[a] = Force3{}
		if refresh {
			e.fLong[a] = Force3{}
		}
	}
	if !st.streamLoop(x, refresh, func() int { return len(st.impSrcs) - st.arrived }) {
		return // aborted: recovery restores everything from the checkpoint
	}

	// Every import is in: refresh the float and slot views, zero the
	// accumulators, and compute.
	for _, a := range st.needAll {
		st.lposF[a] = e.Coder.Decode(st.lpos[a])
		st.lfShort[a] = Force3{}
		if refresh {
			st.lfLong[a] = Force3{}
		}
	}
	for _, sb := range st.touchedSubs {
		for slot := k.subStart[sb]; slot < k.subStart[sb+1]; slot++ {
			st.spos[slot] = st.lpos[k.atomOf[slot]]
			st.sbuf[slot] = Force3{}
		}
	}
	e.pairScan(st.myPairs, st.spos, st.sbuf, &st.batch, &st.diag)
	for _, sb := range st.touchedSubs {
		for slot := k.subStart[sb]; slot < k.subStart[sb+1]; slot++ {
			if f := st.sbuf[slot]; f != (Force3{}) {
				a := k.atomOf[slot]
				st.lfShort[a] = st.lfShort[a].Add(f)
			}
		}
	}

	for _, t := range st.bondTerms {
		st.diag.bonded += e.bondedTerm(int(t), st.lposF, st.scratch, st.lfShort)
	}
	for _, pi := range st.pair14Idx {
		st.diag.correction += e.pair14One(&e.Sys.Top.Pairs14[pi], st.lpos, st.lfShort)
	}
	if refresh {
		st.diag.mesh += e.exclScan(st.exclTerms, st.lpos, st.lfLong)
	}

	// Force exports go out before the spread, so their flight overlaps it.
	st.sendForcesStream(x, refresh)
	if refresh {
		st.runSpread()
	}
	st.bodyNs = obs.Now() - t0
}

// runSpread spreads the owned atoms' charges onto the private mesh
// buffer (it reads only owned positions).
func (st *shardState) runSpread() {
	t0 := obs.Now()
	e := st.s.E
	ms := e.mesh
	top := e.Sys.Top
	for i := range st.meshCounts {
		st.meshCounts[i] = 0
	}
	for _, a := range st.owned {
		q := top.Atoms[a].Charge
		if q == 0 {
			continue
		}
		st.diag.spread += ms.spreadAtom(q, st.lposF[a], st.meshCounts)
	}
	st.meshNs = obs.Now() - t0
}

// applyImport decodes one position frame into the local copies of the
// sender's owned atoms.
func (st *shardState) applyImport(m *shardMsg) {
	if err := decodePosFrame(m.frame, st.s.shards[m.from].owned, st.lpos); err != nil {
		// A malformed frame cannot pass the CRC gate; reaching here means
		// the codec itself broke its round-trip invariant.
		panic("core: position frame round-trip violation: " + err.Error())
	}
	st.arrived++
}

// applyFoot adds one force frame into the canonical force arrays of the
// owned atoms it covers (wrapping fixed-point adds: arrival order, and
// the stage it lands in, are invisible).
func (st *shardState) applyFoot(m *shardMsg, refresh bool) {
	e := st.s.E
	var long []Force3
	if refresh {
		long = e.fLong
	}
	if err := decodeForceFrame(m.frame, st.inFootFrom[m.from], e.fShort, long); err != nil {
		// As for positions: only a codec fault can get here past the CRC.
		panic("core: force frame round-trip violation: " + err.Error())
	}
	st.footGot++
}

// applyStream applies one fresh (non-stale, integrity-checked) envelope:
// position frames land in the local copies, force frames in the
// canonical force arrays. Returns false for duplicates.
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
		atoms := st.footAtoms[di]
		frame := appendForceFrame(st.footFrames[di][:0], st.lfShort, atoms)
		rawB := forceRawBytes(len(atoms))
		if refresh {
			frame = appendForceFrame(frame, st.lfLong, atoms)
			rawB *= 2
		}
		st.footFrames[di] = frame
		st.sendStream(x, dst, msgForce, frame, rawB)
	}
}

// --- Stage B: force assembly. ---

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
		st.diag.mesh += htis.QuantizeEnergy(en)
		e.fLong[a] = e.fLong[a].AddRaw(fx, fy, fz)
		st.diag.interp += n
	}
}

// finishForces is the evaluation's second stage: (refresh) mesh
// interpolation, the shard's own contributions to its owned atoms, then
// the receive loop for the force frames still to come (which also
// settles the force sends), and finally the virtual-site spreads — only
// after every contribution is merged, since the spread rounding is
// nonlinear in the total.
func (st *shardState) finishForces(x *xchg, refresh bool) {
	e := st.s.E
	t0 := obs.Now()
	st.meshNs = 0
	if refresh {
		st.interpolate()
		st.meshNs = obs.Now() - t0
	}
	for _, a := range st.owned {
		e.fShort[a] = e.fShort[a].Add(st.lfShort[a])
		if refresh {
			e.fLong[a] = e.fLong[a].Add(st.lfLong[a])
		}
	}
	if !st.streamLoop(x, refresh, func() int { return st.inFoot - st.footGot }) {
		return // aborted: recovery restores everything from the checkpoint
	}

	if refresh {
		for _, vi := range st.vsites {
			spreadVSiteForce(e.fLong, &e.Sys.Top.VSites[vi])
		}
	}
	for _, vi := range st.vsites {
		spreadVSiteForce(e.fShort, &e.Sys.Top.VSites[vi])
	}
	st.bodyNs = obs.Now() - t0
}
