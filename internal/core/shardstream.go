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
//	   streamBody            receive every import (early force envelopes
//	                         buffered + acked; pos sends settled), then
//	                         range-limited pairs, bonded, 1-4, (refresh)
//	                         exclusion corrections; force frames out;
//	                         (refresh) mesh charge spreading
//	 * mergeMesh + convolve  (refresh) driver-serial collectives
//	B  finishForces          interpolate, owner force assembly, buffered
//	                         + remaining force frames applied, vsites
//
// Force exports go out before the spread, so their flight overlaps the
// spread. Between goroutines of one address space that is all the
// overlap worth having: running pair work as its imports arrived
// measured no faster (EXPERIMENTS.md, "One shard schedule").
//
// Two stages, not one: the driver-serial mesh collective (merge, FFT
// convolve) sits between the spread that ends stage A and the
// interpolation that opens stage B, so the evaluation has a barrier there
// on every refresh. The stage ids are also keys of every recorded fault
// campaign (stall draws; the crash points fire in stage A).
//
// Bitwise contract: arrival order varies, accumulation does not matter.
// Every force/mesh/virial accumulator is wrapping fixed-point
// (associative and commutative), each atom's copy is written by exactly
// one sender, and each interaction is computed once from bit-copied
// positions — so any interleaving of frame arrivals produces identical
// bits. The compute runs after the last arrival, over the shard's static
// pair list, so even the float diagnostic energies do not depend on
// arrival order.

func resizeBytes(ls [][]byte, n int) [][]byte {
	for len(ls) < n {
		ls = append(ls, nil)
	}
	return ls[:n]
}

// streamTally is one shard's cumulative wait/wire accounting, read by
// the driver between stages only. BlockedNs is wall clock
// (nondeterministic diagnostics); the byte fields are functions of the
// trajectory alone and are therefore deterministic for a fixed config.
type streamTally struct {
	BlockedNs  int64 // ns blocked on a receive
	PosRawB    int64 // position payload bytes
	PosWireB   int64 // position frame bytes actually sent
	ForceRawB  int64 // force payload bytes before varint packing
	ForceWireB int64 // force frame bytes actually sent
}

func (t *streamTally) add(o streamTally) {
	t.BlockedNs += o.BlockedNs
	t.PosRawB += o.PosRawB
	t.PosWireB += o.PosWireB
	t.ForceRawB += o.ForceRawB
	t.ForceWireB += o.ForceWireB
}

func (t streamTally) sub(o streamTally) streamTally {
	return streamTally{
		BlockedNs:  t.BlockedNs - o.BlockedNs,
		PosRawB:    t.PosRawB - o.PosRawB,
		PosWireB:   t.PosWireB - o.PosWireB,
		ForceRawB:  t.ForceRawB - o.ForceRawB,
		ForceWireB: t.ForceWireB - o.ForceWireB,
	}
}

// streamTotals sums the per-shard stream tallies. Driver-serial.
func (s *Sharded) streamTotals() streamTally {
	var t streamTally
	for _, st := range s.shards {
		t.add(st.stream)
	}
	return t
}

// --- Stage A: position send half. ---

// sendPositionsStream encodes the owned positions into one frame and
// multicasts it. The frame is immutable until the next evaluation's send
// half (a global barrier away), so retransmissions and delayed
// deliveries resend or alias identical bytes.
func (st *shardState) sendPositionsStream(x *xchg) {
	st.posFrame = appendPosFrame(st.posFrame[:0], st.s.E.Pos, st.owned)
	st.beginSend()
	for _, dst := range st.expDsts {
		st.sendStream(x, dst, msgPos, st.posFrame,
			posRawBytes(len(st.owned)), &st.stream.PosRawB, &st.stream.PosWireB)
	}
}

// sendStream transmits one frame: a blocking buffered-channel send in
// plain runs, a CRC-stamped envelope tracked until settled under the
// reliable transport.
func (st *shardState) sendStream(x *xchg, dst int32, kind uint8, frame []byte, rawB int64, raw, wire *int64) {
	*raw += rawB
	*wire += int64(len(frame))
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

// streamBody is the evaluation's main stage: receive every import, then
// compute the shard's range-limited, bonded, 1-4 and (refresh) exclusion
// terms, send the force exports, and (refresh) spread the owned charges.
func (st *shardState) streamBody(x *xchg, refresh bool) {
	e := st.s.E
	k := &e.pk
	t0 := obs.Now()
	st.bodyT0 = t0

	// Per-evaluation reset.
	st.meshNs = 0
	st.energyRL, st.energyBonded, st.energyP14 = 0, 0, 0
	st.energyExcl, st.energyMesh = 0, 0
	st.tally = tally{}
	st.virial = htis.Virial{}
	st.spreadTally, st.interpTally = 0, 0
	st.arrived, st.footGot = 0, 0
	st.footDirect = false
	st.fbuf = st.fbuf[:0]

	// Owned positions come from the canonical state, the rest from the
	// import frames, each atom's from its owner alone.
	for _, a := range st.owned {
		st.lpos[a] = e.Pos[a]
	}
	if !st.streamLoop(x, refresh, func() int { return len(st.impSrcs) - st.arrived }) {
		return // aborted: recovery restores everything from the checkpoint
	}

	// Every import is in: refresh the float and slot views, zero the
	// accumulators, and compute.
	for _, a := range st.needAll {
		st.lposF[a] = e.Coder.Decode(st.lpos[a])
		st.lfShort[a] = Force3{}
	}
	for _, sb := range st.touchedSubs {
		for slot := k.subStart[sb]; slot < k.subStart[sb+1]; slot++ {
			st.spos[slot] = st.lpos[k.atomOf[slot]]
			st.sbuf[slot] = Force3{}
		}
	}
	e.pairScan(st.myPairs, st.spos, st.sbuf, &st.batch, &st.energyRL, &st.tally, &st.virial)
	for _, sb := range st.touchedSubs {
		for slot := k.subStart[sb]; slot < k.subStart[sb+1]; slot++ {
			if f := st.sbuf[slot]; f != (Force3{}) {
				a := k.atomOf[slot]
				st.lfShort[a] = st.lfShort[a].Add(f)
			}
		}
	}

	for _, t := range st.bondTerms {
		st.energyBonded += e.bondedTerm(int(t), st.lposF, st.scratch, st.lfShort)
	}
	for _, pi := range st.pair14Idx {
		st.energyP14 += e.pair14One(&e.pair14[pi], st.lpos, st.lfShort)
	}
	if refresh {
		for _, a := range st.exclTouch {
			st.lfLong[a] = Force3{}
		}
		st.energyExcl = e.exclScan(st.exclTerms, st.lpos, st.lfLong)
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
		st.spreadTally += ms.spreadAtom(q, st.lposF[a], st.meshCounts)
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

// applyFoot folds one force frame into the canonical force arrays
// (wrapping fixed-point adds: arrival order is invisible). Runs in stage
// B only, after the owner's base assignment.
func (st *shardState) applyFoot(m *shardMsg, refresh bool) {
	e := st.s.E
	switch m.kind {
	case msgForce:
		atoms := st.inFootFrom[m.from]
		err := decodeForceFrame(m.frame, len(atoms), func(i int, f Force3) {
			a := atoms[i]
			e.fShort[a] = e.fShort[a].Add(f)
		})
		if err != nil {
			panic("core: force frame round-trip violation: " + err.Error())
		}
	case msgForceLong:
		if !refresh {
			return
		}
		atoms := st.inExclFootFrom[m.from]
		err := decodeForceFrame(m.frame, len(atoms), func(i int, f Force3) {
			a := atoms[i]
			e.fLong[a] = e.fLong[a].Add(f)
		})
		if err != nil {
			panic("core: force frame round-trip violation: " + err.Error())
		}
	}
}

// applyStream dispatches one fresh (non-stale, integrity-checked)
// envelope: position frames land in the local copies, force frames are
// buffered during stage A (the owner's base assignment has not run yet)
// and applied directly during stage B. Returns false for duplicates.
func (st *shardState) applyStream(x *xchg, m *shardMsg, refresh bool) bool {
	switch m.kind {
	case msgPos:
		if x.reliable() {
			if st.gotPos[m.from] == x.xid {
				return false
			}
			st.gotPos[m.from] = x.xid
		}
		st.applyImport(m)
		return true
	case msgForce:
		if x.reliable() {
			if st.gotF[m.from] == x.xid {
				return false
			}
			st.gotF[m.from] = x.xid
		}
	case msgForceLong:
		if x.reliable() {
			if st.gotFL[m.from] == x.xid {
				return false
			}
			st.gotFL[m.from] = x.xid
		}
	default:
		return false
	}
	st.footGot++
	if st.footDirect {
		st.applyFoot(m, refresh)
	} else {
		st.fbuf = append(st.fbuf, *m)
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
			st.stream.BlockedNs += obs.Now() - t0
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
				st.stream.BlockedNs += obs.Now() - t0
				st.handleStream(x, &m, refresh)
				progressed = true
			case a := <-st.acks:
				st.stream.BlockedNs += obs.Now() - t0
				ackOne(a)
				progressed = true
			case <-x.abort:
				return false
			case <-timer.C:
				st.stream.BlockedNs += obs.Now() - t0
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

// sendForcesStream encodes and multicasts the force export frames. The
// position sends are settled by the time the import wait exits, so
// resetting the in-flight tracking here is safe; these sends settle in
// stage B's loop under the same exchange id.
func (st *shardState) sendForcesStream(x *xchg, refresh bool) {
	st.beginSend()
	for di, dst := range st.impSrcs {
		out := st.footOut[di]
		for oi, a := range st.footAtoms[di] {
			out[oi] = st.lfShort[a]
		}
		st.footFrames[di] = appendForceFrame(st.footFrames[di][:0], out)
		st.sendStream(x, dst, msgForce, st.footFrames[di],
			forceRawBytes(len(out)), &st.stream.ForceRawB, &st.stream.ForceWireB)
	}
	if refresh {
		for di, dst := range st.exclFootDst {
			out := st.exclFootOut[di]
			for oi, a := range st.exclFootAtoms[di] {
				out[oi] = st.lfLong[a]
			}
			st.exclFrames[di] = appendForceFrame(st.exclFrames[di][:0], out)
			st.sendStream(x, dst, msgForceLong, st.exclFrames[di],
				forceRawBytes(len(out)), &st.stream.ForceRawB, &st.stream.ForceWireB)
		}
	}
}

// --- Stage B: force assembly. ---

// finishForces is the evaluation's second stage: (refresh) mesh
// interpolation, the owner's canonical force assembly, application of
// the force frames buffered during stage A, then the receive loop for
// the remainder (which also settles the force sends), and finally the
// virtual-site spreads — only after every contribution is merged, since
// the spread rounding is nonlinear in the total.
func (st *shardState) finishForces(x *xchg, refresh bool) {
	e := st.s.E
	t0 := obs.Now()
	st.meshNs = 0
	if refresh {
		st.interpolate()
		st.meshNs = obs.Now() - t0
	}
	for _, a := range st.owned {
		e.fShort[a] = st.lfShort[a]
	}
	if refresh {
		// Only the entries this shard's exclusion terms touched are valid
		// in lfLong (it is sparse-zeroed); the rest would be stale.
		for _, a := range st.exclTouchOwned {
			e.fLong[a] = e.fLong[a].Add(st.lfLong[a])
		}
	}
	st.footDirect = true
	for i := range st.fbuf {
		st.applyFoot(&st.fbuf[i], refresh)
	}
	st.fbuf = st.fbuf[:0]

	expect := st.inFoot
	if refresh {
		expect += st.inExclFoot
	}
	if !st.streamLoop(x, refresh, func() int { return expect - st.footGot }) {
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
