package core

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"anton/internal/faults"
	"anton/internal/obs"
)

// The shard supervisor: crash detection and checkpoint-rollback recovery
// for the sharded engine under fault injection.
//
// Recovery state machine (one cycle per detected failure):
//
//	RUNNING --(heartbeat timeout on a stage barrier)--> DETECTING
//	DETECTING: close the abort channel; survivors bail out of their
//	    protocol loops and report in during a second heartbeat of grace.
//	    Executors still silent after the grace period are declared crashed
//	    (none crashed = a spurious timeout; the stage is poisoned either
//	    way, so recovery proceeds identically).
//	RECOVERING: bump the epoch (in-flight messages become stale), respawn
//	    every crashed executor (an executor is a goroutine; it can always
//	    come back), drain every inbox and ack queue, restore the whole
//	    engine from the in-memory checkpoint image, drop the trace spans
//	    of the steps after it (the replay records them again), and
//	    resume. A restore error parks the engine with Err() set.
//
// Rollback-everyone (rather than surgical per-shard repair) is what makes
// the recovery provably bitwise: the restored state is a complete, CRC-
// verified image of a committed step, and replaying from it re-executes
// the exact monolithic operation sequence. Crash events are consumed from
// the fault schedule when they fire, so the replay does not refire them.

// errShardCrash is the panic value the fault plane uses to kill a shard
// executor mid-stage (recovered in the goroutine wrapper; the executor
// simply never signals completion, like a dead node).
var errShardCrash = errors.New("core: injected shard crash")

// FaultConfig wires a fault plane and the recovery machinery into a
// sharded engine.
type FaultConfig struct {
	// Plane injects the faults; required. A quiet plane (faults.Spec{Seed:
	// 1}) runs the full reliable protocol (CRC, acks, retransmit timers)
	// with nothing to recover from — useful for overhead measurement.
	Plane *faults.Plane

	// CheckpointEvery is the interval in steps between the in-memory
	// rollback images (default 10). Recovery replays at most this many
	// steps. The supervisor writes no file: making a run survive process
	// death is the caller's job (service.Run.Persist).
	CheckpointEvery int

	// Heartbeat is the stage-barrier timeout that declares a shard dead
	// (default 2s; crash detection latency is between one and two
	// heartbeats). Injected stalls are bounded by Spec.MaxStall, so keep
	// the heartbeat comfortably above it.
	Heartbeat time.Duration

	// OnRecovery, when set, observes every completed recovery cycle.
	OnRecovery func(RecoveryEvent)
}

// RecoveryEvent describes one completed recovery cycle.
type RecoveryEvent struct {
	DetectedStep int     // engine step when the failure surfaced
	RestoredStep int     // checkpointed step rolled back to
	Crashed      []int32 // executors that went silent
	Spurious     bool    // heartbeat timeout with every executor alive
}

const (
	defaultCheckpointEvery = 10
	defaultHeartbeat       = 2 * time.Second

	// maxConsecutiveRecoveries bounds recovery cycles that make no forward
	// progress (possible only with a pathological heartbeat/stall ratio).
	maxConsecutiveRecoveries = 32
)

type supervisor struct {
	e     *Engine
	plane *faults.Plane
	cfg   FaultConfig

	epoch uint32        // recovery epoch, stamped into every envelope
	abort chan struct{} // closed to abort the current stage; re-armed per recovery
	tick  uint64        // stage sequence number (discriminates straggler signals)

	seen []bool // collect() scratch

	ckptImage []byte // the rollback image (nil before the baseline)
	ckptStep  int

	recoveries, spurious, replaySteps, recoveryNs int64

	// Counter-fold deltas (obs counters are add-only).
	prevT TransportStats
	prevF faults.Counts
	prevR [3]int64 // recoveries, replaySteps, recoveryNs folded
}

// EnableFaults attaches a fault plane and the supervised recovery
// machinery to a sharded engine (NewSharded; an engine built by NewEngine
// has no transport to fault and returns an error). Call once, before
// Step, from the driver. From then on Step runs the reliable transport,
// keeps a periodic in-memory rollback image, and recovers from injected
// crashes; unrecoverable failures park the engine with Err() set instead
// of panicking.
func (e *Engine) EnableFaults(cfg FaultConfig) error {
	if e.net == nil {
		return errors.New("core: EnableFaults needs a sharded engine (NewSharded)")
	}
	if e.net.sup != nil {
		return errors.New("core: EnableFaults called twice")
	}
	if cfg.Plane == nil {
		return errors.New("core: EnableFaults needs a fault plane (a quiet one injects nothing)")
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = defaultCheckpointEvery
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = defaultHeartbeat
	}
	e.net.sup = &supervisor{
		e:     e,
		plane: cfg.Plane,
		cfg:   cfg,
		epoch: 1,
		abort: make(chan struct{}),
		seen:  make([]bool, len(e.shards)),
	}
	e.relink() // resize inboxes and allocate ack channels for reliable mode
	return nil
}

// Err returns why a sharded engine parked, if it did: an unrecoverable
// failure under EnableFaults, or Close. Once set, Step is a no-op. An
// engine built by NewEngine never parks.
func (e *Engine) Err() error {
	if e.net == nil {
		return nil
	}
	return e.net.err
}

// FaultReport summarizes a supervised run: recovery statistics, the
// transport's reliability accounting, and the plane's injected tallies.
type FaultReport struct {
	Recoveries  int64 `json:"recoveries"`
	Spurious    int64 `json:"spurious"`
	ReplaySteps int64 `json:"replay_steps"`
	RecoveryNs  int64 `json:"recovery_ns"`

	Transport TransportStats `json:"transport"`
	Injected  faults.Counts  `json:"injected"`
}

// FaultReport snapshots the supervised run's fault statistics (zero value
// when EnableFaults was never called). Driver-serial.
func (e *Engine) FaultReport() FaultReport {
	if e.net == nil || e.net.sup == nil {
		return FaultReport{}
	}
	sup := e.net.sup
	return FaultReport{
		Recoveries:  sup.recoveries,
		Spurious:    sup.spurious,
		ReplaySteps: sup.replaySteps,
		RecoveryNs:  sup.recoveryNs,
		Transport:   e.TransportStats(),
		Injected:    sup.plane.Counts(),
	}
}

// collect waits for every executor to signal completion of stage tick. On
// a heartbeat timeout it closes the abort channel (unblocking survivors
// parked in their protocol loops) and grants one more heartbeat of grace;
// executors still silent after that are the crashed set.
func (sup *supervisor) collect(tick uint64) *stageFail {
	done := sup.e.net.done
	for i := range sup.seen {
		sup.seen[i] = false
	}
	got := 0
	timer := time.NewTimer(sup.cfg.Heartbeat)
	defer timer.Stop()
	aborted := false
	for got < len(sup.seen) {
		select {
		case d := <-done:
			if d.tick != tick {
				continue // straggler from an earlier aborted stage
			}
			if !sup.seen[d.id] {
				sup.seen[d.id] = true
				got++
			}
		case <-timer.C:
			if !aborted {
				aborted = true
				close(sup.abort)
				timer.Reset(sup.cfg.Heartbeat)
				continue
			}
			var crashed []int32
			for id, ok := range sup.seen {
				if !ok {
					crashed = append(crashed, int32(id))
				}
			}
			return &stageFail{crashed: crashed}
		}
	}
	if aborted {
		// Everyone reported in after the abort: a spurious timeout. The
		// aborted protocol loops still poisoned the stage, so the caller
		// must recover exactly as for a real crash (with no respawns).
		return &stageFail{}
	}
	return nil
}

// recoverFrom runs one recovery cycle after a failed stage; streak counts
// the cycles since the last completed step. Returns false when the
// failure is unrecoverable (the engine's err is then set).
func (sup *supervisor) recoverFrom(f *stageFail, streak int) bool {
	e := sup.e
	start := time.Now()
	detected := e.step
	if len(f.crashed) == 0 {
		sup.spurious++
	}

	// New epoch first: everything still in flight (including messages a
	// delayed-delivery goroutine will push after the drain below) is
	// stale-discarded by the receivers.
	sup.epoch++
	sup.abort = make(chan struct{})

	for _, id := range f.crashed {
		st := e.shards[id]
		select {
		case <-st.exited: // orders the dead executor's last writes before the restore
		default: // silent but alive (a stall past two heartbeats)
		}
		e.spawnShard(st)
	}
	for _, st := range e.shards {
		drainMsgs(st.inbox)
		drainAcks(st.acks)
		st.out = st.out[:0]
	}
	if err := e.RestoreCheckpoint(bytes.NewReader(sup.ckptImage)); err != nil {
		e.net.err = fmt.Errorf("core: recovery restore failed: %w", err)
		return false
	}
	if rec := e.rec; rec != nil {
		rec.Rewind(int64(sup.ckptStep))
	}

	sup.recoveries++
	if d := detected - sup.ckptStep; d > 0 {
		sup.replaySteps += int64(d)
	}
	sup.recoveryNs += time.Since(start).Nanoseconds()
	if cb := sup.cfg.OnRecovery; cb != nil {
		cb(RecoveryEvent{
			DetectedStep: detected,
			RestoredStep: sup.ckptStep,
			Crashed:      f.crashed,
			Spurious:     len(f.crashed) == 0,
		})
	}
	if streak > maxConsecutiveRecoveries {
		e.net.err = fmt.Errorf("core: %d consecutive recoveries without progress", streak)
		return false
	}
	return true
}

// checkpoint captures the engine image the next recovery rolls back to.
// Driver-serial, between steps only. Returns false with the engine's err
// set when the image could not be encoded.
func (sup *supervisor) checkpoint() bool {
	buf := bytes.NewBuffer(sup.ckptImage[:0]) // the old image's storage, reused
	if err := sup.e.WriteCheckpoint(buf); err != nil {
		sup.e.net.err = fmt.Errorf("core: rollback checkpoint failed: %w", err)
		return false
	}
	sup.ckptImage, sup.ckptStep = buf.Bytes(), sup.e.step
	return true
}

// stepDone closes one completed step (or the step-0 force evaluation)
// under supervision: refresh the rollback image on the checkpoint cadence
// and fold the fault counters.
func (sup *supervisor) stepDone() bool {
	if step := sup.e.step; step%sup.cfg.CheckpointEvery == 0 && step != sup.ckptStep {
		if !sup.checkpoint() {
			return false
		}
	}
	sup.foldFaultCounters()
	return true
}

// foldFaultCounters delta-folds the plane's and the transport's tallies
// into the obs recorder (driver-serial, once per completed step).
func (sup *supervisor) foldFaultCounters() {
	rec := sup.e.rec
	if rec == nil {
		return
	}
	add := func(c obs.Counter, v int64) {
		if v > 0 {
			rec.Add(c, v)
		}
	}
	fc := sup.plane.Counts()
	add(obs.CtrFaultDrops, fc.Drops-sup.prevF.Drops)
	add(obs.CtrFaultDups, fc.Dups-sup.prevF.Dups)
	add(obs.CtrFaultDelays, fc.Delays-sup.prevF.Delays)
	add(obs.CtrFaultCorrupts, fc.Corrupts-sup.prevF.Corrupts)
	add(obs.CtrFaultStalls, fc.Stalls-sup.prevF.Stalls)
	add(obs.CtrFaultCrashes, fc.CrashesFired-sup.prevF.CrashesFired)
	sup.prevF = fc

	t := sup.e.TransportStats()
	add(obs.CtrRetransmits, t.Retransmits-sup.prevT.Retransmits)
	add(obs.CtrDupDiscards, t.DupDiscards-sup.prevT.DupDiscards)
	add(obs.CtrCrcDiscards, t.CrcDiscards-sup.prevT.CrcDiscards)
	sup.prevT = t

	add(obs.CtrRecoveries, sup.recoveries-sup.prevR[0])
	add(obs.CtrReplaySteps, sup.replaySteps-sup.prevR[1])
	add(obs.CtrRecoveryNs, sup.recoveryNs-sup.prevR[2])
	sup.prevR = [3]int64{sup.recoveries, sup.replaySteps, sup.recoveryNs}
}
