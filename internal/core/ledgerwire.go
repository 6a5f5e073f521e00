package core

import (
	"anton/internal/ledger"
	"anton/internal/obs"
)

// LedgerTap appends trajectory-digest records from a running engine to
// a run ledger on the audit cadence (auditCadence, shared with the health
// watch). Like the watch, it hooks the end-of-step callback and is
// strictly read-only with respect to dynamics state: the trajectory is
// bitwise identical with a ledger attached or detached (test-asserted
// over migration-crossing steps).
type LedgerTap struct {
	e       *Engine
	w       *ledger.Writer
	cadence int

	// prev holds the writer's counters at the last fold, so the tap can
	// delta-fold them into the (add-only) obs recorder.
	prev ledger.Stats
}

// AttachLedger installs a ledger tap on the engine: every audit cadence
// it appends a digest record to w. The caller owns the writer (and
// closes it). Works identically under sharded execution — the sharded
// step loop fires the same end-of-step hooks, and StateDigest is
// shard-count independent.
func AttachLedger(e *Engine, w *ledger.Writer) *LedgerTap {
	t := &LedgerTap{e: e, w: w, cadence: auditCadence(e), prev: w.Stats()}
	e.AddStepHook(t.tick)
	return t
}

// RecordCheckpoint appends a checkpoint record for a file the driver
// just wrote: the checkpoint's own CRC32 trailer is read back (which
// also validates it) and recorded with the digest at the current step.
func (t *LedgerTap) RecordCheckpoint(path string) error {
	crc, err := CheckpointFileCRC(path)
	if err != nil {
		return err
	}
	return t.w.AppendCheckpoint(int64(t.e.step), path, crc, t.e.StateDigest())
}

// tick runs after every completed step; on the cadence it appends one
// digest record and folds the writer's volume counters into the obs
// recorder. A dead ledger never stops the simulation — provenance is an
// audit trail, not a control path: the writer latches the first append
// failure and the driver reads it from ledger.Writer.Err.
func (t *LedgerTap) tick() {
	e := t.e
	if e.step%t.cadence != 0 {
		return
	}
	_ = t.w.AppendDigest(int64(e.step), e.StateDigest())
	if rec := e.rec; rec != nil {
		st := t.w.Stats()
		rec.Add(obs.CtrLedgerRecords, st.Records-t.prev.Records)
		rec.Add(obs.CtrLedgerCommits, st.Commits-t.prev.Commits)
		rec.Add(obs.CtrLedgerBytes, st.Bytes-t.prev.Bytes)
		t.prev = st
	}
}
