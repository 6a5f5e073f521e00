package core

import (
	"time"

	"anton/internal/faults"
)

// The reliable shard transport. Every message is one frame
// (shardcodec.go) sent by sendStream and consumed by streamLoop
// (shardstream.go). In plain runs (no fault plane attached) that is a
// blocking buffered-channel send and a counted receive, with no
// per-message overhead. With a supervisor attached (EnableFaults) every
// remote message becomes an envelope carrying a recovery epoch, the
// exchange id, and a CRC32 of the frame; the receiver acks each accepted
// or duplicate envelope, and the sender retransmits unacked messages on
// a bounded-exponential-backoff timer. Delivery becomes exactly-once at
// the application layer:
//
//   - staleness: an envelope whose (epoch, xid) is not the current
//     exchange is discarded before its payload is touched — its backing
//     buffer may already be refilled by a later exchange;
//   - integrity: a CRC mismatch (injected bit-flip) is discarded without
//     an ack, so the sender's timeout retransmits it;
//   - idempotence: per-sender xid stamps accept exactly one message per
//     (sender, kind) per exchange; duplicates are discarded but re-acked,
//     because the duplicate may mean the first ack was lost.
//
// Every reliable-mode channel send is non-blocking: a full buffer counts
// as a drop and the retransmission timer recovers it, so no injected
// schedule can deadlock the pipeline.
//
// Determinism: none of this machinery can change a bit of the trajectory.
// Each exchange applies exactly the message set the plain transport
// would, and all accumulation is wrapping fixed-point (associative and
// commutative), so arrival order — however mangled by drops, delays and
// retransmits — is invisible to the physics.

// Retransmission timer bounds (quiescence timeout, doubled per firing).
const (
	rtoBase = 2 * time.Millisecond
	rtoMax  = 64 * time.Millisecond
)

// msgAck is the fault-plane message kind for acks (the data kinds are
// msgPos/msgForce); acks are never corrupted (no payload) and duplicating
// one is harmless, so only drop/delay verdicts apply. Message kinds key
// the fault plane's draws, so the value is part of every recorded
// campaign: 2 belonged to a data kind that no longer exists and stays
// unused so acks keep their draws.
const msgAck uint8 = 3

// shardAck acknowledges one accepted (or duplicate) data envelope.
type shardAck struct {
	from  int32
	kind  uint8
	epoch uint32
	xid   uint32
}

// xchg identifies one transport exchange: the driver mints a fresh xid
// per evaluation so stale envelopes from earlier exchanges (or earlier
// recovery epochs) are recognizable before their payloads are read. The
// one-shard engine exchanges nothing and passes nil.
type xchg struct {
	step  int64
	xid   uint32
	epoch uint32
	plane *faults.Plane
	abort <-chan struct{}
}

func (x *xchg) reliable() bool { return x != nil && x.plane != nil }

// newExchange mints the next exchange. Driver-serial.
func (s *Sharded) newExchange() *xchg {
	s.xid++
	x := &xchg{step: int64(s.E.step), xid: s.xid}
	if s.sup != nil {
		x.epoch = s.sup.epoch
		x.plane = s.sup.plane
		x.abort = s.sup.abort
	}
	return x
}

// outMsg tracks one in-flight reliable send until its ack arrives.
type outMsg struct {
	dst     int32
	kind    uint8
	attempt int
	acked   bool
	m       shardMsg
}

// transportTally is one shard's cumulative link accounting, read by the
// driver between stages only. The reliable-transport counts are zero in
// plain runs; BlockedNs is wall clock (nondeterministic diagnostics); the
// byte fields are functions of the trajectory alone and are therefore
// deterministic for a fixed config.
type transportTally struct {
	Sends         int64 // data envelopes first-transmitted
	Retransmits   int64 // timeout-driven re-sends
	DupDiscards   int64 // duplicate envelopes dropped by the xid stamps
	CrcDiscards   int64 // envelopes dropped by the payload CRC check
	StaleDiscards int64 // envelopes from an earlier exchange or epoch
	AckDrops      int64 // acks lost to a full ack channel
	FullDrops     int64 // data envelopes lost to a full inbox

	BlockedNs  int64 // ns blocked on a receive
	PosRawB    int64 // position payload bytes
	PosWireB   int64 // position frame bytes actually sent
	ForceRawB  int64 // force payload bytes before varint packing
	ForceWireB int64 // force frame bytes actually sent
}

func (t *transportTally) add(o transportTally) {
	t.Sends += o.Sends
	t.Retransmits += o.Retransmits
	t.DupDiscards += o.DupDiscards
	t.CrcDiscards += o.CrcDiscards
	t.StaleDiscards += o.StaleDiscards
	t.AckDrops += o.AckDrops
	t.FullDrops += o.FullDrops
	t.BlockedNs += o.BlockedNs
	t.PosRawB += o.PosRawB
	t.PosWireB += o.PosWireB
	t.ForceRawB += o.ForceRawB
	t.ForceWireB += o.ForceWireB
}

// tallyTotals sums the per-shard link tallies. Driver-serial.
func (s *Sharded) tallyTotals() transportTally {
	var t transportTally
	for _, st := range s.E.shards {
		t.add(st.tstats)
	}
	return t
}

// TransportStats is the summed reliable-transport accounting of a
// supervised run (all fields zero in plain runs). The trajectory is
// bitwise invariant under any schedule; these counts are not — spurious
// retransmits depend on wall timing — so tests assert on the trajectory
// and treat these as diagnostics.
type TransportStats struct {
	Sends         int64 `json:"sends"`
	Retransmits   int64 `json:"retransmits"`
	DupDiscards   int64 `json:"dup_discards"`
	CrcDiscards   int64 `json:"crc_discards"`
	StaleDiscards int64 `json:"stale_discards"`
	AckDrops      int64 `json:"ack_drops"`
	FullDrops     int64 `json:"full_drops"`

	// Force-evaluation accounting: wall time blocked on a receive, and
	// payload vs frame bytes per traffic class (a position frame is its
	// payload; force frames are varint packed). The byte counts are a
	// function of the trajectory alone, BlockedNs is wall clock.
	// OverlapNs is always zero: no schedule computes while imports are
	// in flight. It remains for the benchmark harness (bench/engine.go),
	// which still reads it for core.shard.overlap_share.
	OverlapNs      int64 `json:"overlap_ns"`
	BlockedNs      int64 `json:"blocked_ns"`
	PosRawBytes    int64 `json:"pos_raw_bytes"`
	PosWireBytes   int64 `json:"pos_wire_bytes"`
	ForceRawBytes  int64 `json:"force_raw_bytes"`
	ForceWireBytes int64 `json:"force_wire_bytes"`
}

// TransportStats sums the per-shard link tallies. Call it between Step
// calls (driver-serial), e.g. from an end-of-step hook.
func (s *Sharded) TransportStats() TransportStats {
	t := s.tallyTotals()
	return TransportStats{
		Sends:          t.Sends,
		Retransmits:    t.Retransmits,
		DupDiscards:    t.DupDiscards,
		CrcDiscards:    t.CrcDiscards,
		StaleDiscards:  t.StaleDiscards,
		AckDrops:       t.AckDrops,
		FullDrops:      t.FullDrops,
		BlockedNs:      t.BlockedNs,
		PosRawBytes:    t.PosRawB,
		PosWireBytes:   t.PosWireB,
		ForceRawBytes:  t.ForceRawB,
		ForceWireBytes: t.ForceWireB,
	}
}

// TransportCounts returns cumulative (sends, retransmits) — the health
// watchdog's retry-storm source (see Watch.WatchTransport).
func (s *Sharded) TransportCounts() (sends, retransmits int64) {
	t := s.TransportStats()
	return t.Sends, t.Retransmits
}

// beginSend resets the shard's in-flight send tracking for one exchange.
func (st *shardState) beginSend() {
	st.out = st.out[:0]
}

// deliver pushes one attempt of an in-flight message through the fault
// plane. Attempts at or past the plane's SafeAttempt always deliver, so
// the retransmission loop terminates under every schedule.
func (st *shardState) deliver(x *xchg, o *outMsg) {
	m := o.m
	if o.attempt <= 255 {
		m.attempt = uint8(o.attempt)
	} else {
		m.attempt = 255
	}
	dst := st.e.shards[o.dst]
	switch v := x.plane.Message(x.step, x.xid, o.kind, st.id, o.dst, o.attempt); v.Act {
	case faults.ActDrop:
		return
	case faults.ActCorrupt:
		// Flip one payload bit in a copy; the CRC still covers the
		// original bytes, so the receiver discards the envelope and the
		// retransmission timer recovers it.
		if !trySend(dst.inbox, corruptMsg(m, v.Raw)) {
			st.tstats.FullDrops++
		}
	case faults.ActDup:
		for i := 0; i < 2; i++ {
			if !trySend(dst.inbox, m) {
				st.tstats.FullDrops++
			}
		}
	case faults.ActDelay:
		// Deliver late from a helper goroutine (reordering). The helper
		// never reads the payload and never touches shard tallies — the
		// receiver's staleness check makes the buffer aliasing safe.
		go func(ch chan shardMsg, m shardMsg, ns int64, closed <-chan struct{}) {
			t := time.NewTimer(time.Duration(ns))
			defer t.Stop()
			select {
			case <-t.C:
				trySend(ch, m)
			case <-closed:
			}
		}(dst.inbox, m, v.DelayNs, st.e.net.closed)
	default:
		if !trySend(dst.inbox, m) {
			st.tstats.FullDrops++
		}
	}
}

// sendAck acknowledges a data envelope back to its sender, routed through
// the fault plane under the msgAck kind (drop and delay verdicts apply;
// an ack has no payload to corrupt and duplicating it is harmless, so
// those verdicts degrade to delivery).
func (st *shardState) sendAck(x *xchg, m *shardMsg) {
	a := shardAck{from: st.id, kind: m.kind, epoch: m.epoch, xid: m.xid}
	dst := st.e.shards[m.from]
	switch v := x.plane.Message(x.step, m.xid, msgAck, st.id, m.from, int(m.attempt)); v.Act {
	case faults.ActDrop:
		return
	case faults.ActDelay:
		go func(ch chan shardAck, a shardAck, ns int64, closed <-chan struct{}) {
			t := time.NewTimer(time.Duration(ns))
			defer t.Stop()
			select {
			case <-t.C:
				select {
				case ch <- a:
				default:
				}
			case <-closed:
			}
		}(dst.acks, a, v.DelayNs, st.e.net.closed)
	default:
		select {
		case dst.acks <- a:
		default:
			st.tstats.AckDrops++
		}
	}
}

// corruptMsg returns the envelope with one payload bit flipped in a
// private copy (the original buffer belongs to the sender and may be
// retransmitted intact).
func corruptMsg(m shardMsg, raw uint64) shardMsg {
	if len(m.frame) > 0 {
		cp := make([]byte, len(m.frame))
		copy(cp, m.frame)
		bit := raw % uint64(len(cp)*8)
		cp[bit/8] ^= 1 << (bit % 8)
		m.frame = cp
	}
	return m
}

// trySend is a non-blocking channel send (reliable mode only; a full
// buffer is a counted drop recovered by retransmission). It is tally-free
// so delayed-delivery goroutines can share it.
func trySend(ch chan shardMsg, m shardMsg) bool {
	select {
	case ch <- m:
		return true
	default:
		return false
	}
}

// drainMsgs / drainAcks empty a channel's buffer (recovery quiesce).
func drainMsgs(ch chan shardMsg) {
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}

func drainAcks(ch chan shardAck) {
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}
