package service

import (
	"fmt"
	"time"
)

// worker is one pool goroutine: it drains the queue until the queue
// closes (daemon stop).
func (d *Daemon) worker() {
	defer d.wg.Done()
	for {
		id, ok := d.q.pop()
		if !ok {
			return
		}
		d.busy.Add(1)
		d.runJob(id)
		d.busy.Add(-1)
	}
}

// deadlineFor computes the job's wall-clock cutoff: the spec override
// wins, else the daemon default, else none. Anchored at the *first*
// StartedAt, so the budget spans retries — a job cannot launder its
// deadline by failing.
func (d *Daemon) deadlineFor(js *JobStatus) time.Time {
	budget := d.cfg.JobDeadline
	if js.Spec.DeadlineSec > 0 {
		budget = time.Duration(js.Spec.DeadlineSec) * time.Second
	}
	if budget <= 0 {
		return time.Time{}
	}
	return js.StartedAt.Add(budget)
}

// runJob owns one job attempt end to end. The simulation itself — build,
// resume, ledger, chaos, observers, and how a boundary is made durable —
// is a Run; what stays here is the daemon's: queue state, the cancel,
// drain and deadline checks, and the status record. Every chunk boundary
// persists checkpoint → ledger commit (Run.Persist) → status, in that
// order: a status record never points past its checkpoint, so a daemon
// death OR an injected storage crash at any instant leaves a resumable
// job that finishes bitwise identical to an uninterrupted run.
//
// Failures route through supervise: storage crashes abandon the job to
// the next daemon's recovery scan, transient storage faults requeue it
// with backoff, poisoned artifacts quarantine it, everything else fails
// it permanently.
func (d *Daemon) runJob(id string) {
	js, ok := d.store.Get(id)
	if !ok || js.State != StateQueued {
		return
	}
	if d.jobCanceled(id) {
		d.finish(&js, StateCanceled, nil)
		return
	}

	// Progress heartbeat for the stall supervisor: touched at start and
	// at every chunk boundary, dropped when this attempt ends.
	beat := &jobBeat{}
	beat.touch()
	d.beats.Store(id, beat)
	defer d.beats.Delete(id)

	js.State = StateRunning
	if js.StartedAt.IsZero() {
		js.StartedAt = time.Now().UTC()
	}
	js.Attempts++
	retry := func(op func() error) error { return d.retryPersist(id, op) }
	if err := retry(func() error { return d.store.Put(js) }); err != nil {
		d.supervise(&js, fmt.Errorf("persisting running state: %w", err))
		return
	}
	deadline := d.deadlineFor(&js)

	// A persisted checkpoint means this job was interrupted (or the daemon
	// was): the run resumes from it.
	ckptPath := d.store.CheckpointPath(id)
	run, err := OpenRun(js.Spec, ckptPath, ckptPath, d.store.LedgerPath(id), d.fs, retry)
	if err != nil {
		d.supervise(&js, err)
		return
	}
	defer func() {
		if err := run.Close(); err != nil {
			d.log.Error("close ledger", "job", id, "err", err)
		}
	}()
	if run.ResumedFrom >= 0 {
		js.Resumes++
		js.ResumedFrom = run.ResumedFrom
		d.log.Info("job resumed from checkpoint", "job", id, "step", run.ResumedFrom)
	}

	// Per-job telemetry: the same /metrics, /healthz, /trace surface the
	// CLI serves per run, published into the daemon's TelemetrySet and
	// routed at /api/v1/jobs/{id}/{endpoint}. The surface outlives the
	// attempt so terminal states stay scrapeable, until retireTelemetry
	// drops it as the oldest of more than retainedTelemetry ended jobs.
	tel := d.acquireTelemetry(id)
	defer d.retireTelemetry(id)
	publish := func() {
		if err := run.Publish(tel); err != nil {
			d.log.Error("publish trace", "job", id, "err", err)
		}
	}
	// refresh copies the live engine's progress into the status record.
	refresh := func() {
		js.Step = run.Eng.StepCount()
		js.Digest = fmt.Sprintf("%016x", run.Eng.StateDigest())
		js.Temperature = run.Eng.Temperature()
		js.TotalEnergy = run.Eng.TotalEnergy()
	}
	persist := func() error {
		if err := run.Persist(); err != nil {
			return err
		}
		refresh()
		if err := retry(func() error { return d.store.Put(js) }); err != nil {
			return fmt.Errorf("persisting status: %w", err)
		}
		beat.touch()
		return nil
	}

	for run.Eng.StepCount() < js.Spec.Steps {
		// Daemon draining? A graceful stop persists the boundary we just
		// reached; a kill persists nothing (the previous boundary's
		// checkpoint is the resume point — that is the contract under
		// test). Either way the job stays "running" on disk, which is
		// what recovery re-queues.
		select {
		case <-d.ctx.Done():
			if d.graceful.Load() {
				if err := persist(); err != nil {
					d.log.Error("drain checkpoint", "job", id, "err", err)
				}
			}
			return
		default:
		}
		if d.jobCanceled(id) {
			if err := persist(); err != nil {
				d.log.Error("cancel checkpoint", "job", id, "err", err)
			}
			d.finish(&js, StateCanceled, nil)
			publish()
			return
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			// Past the wall-clock budget: permanent failure, not a retry —
			// requeueing a job that is out of time would spin forever.
			d.finish(&js, StateFailed, fmt.Errorf("deadline exceeded after %s (at step %d of %d)",
				time.Since(js.StartedAt).Round(time.Millisecond), run.Eng.StepCount(), js.Spec.Steps))
			publish()
			return
		}
		chunk := js.Spec.CheckpointEvery
		if rem := js.Spec.Steps - run.Eng.StepCount(); chunk > rem {
			chunk = rem
		}
		if err := run.Advance(chunk); err != nil {
			d.finish(&js, StateFailed, err)
			return
		}
		if d.ctx.Err() != nil && !d.graceful.Load() {
			// Killed mid-chunk: abandon this boundary unpersisted, exactly
			// like a SIGKILL between checkpoint writes. The previous
			// boundary's checkpoint is the resume point.
			return
		}
		if err := persist(); err != nil {
			d.supervise(&js, err)
			return
		}
		publish()
	}

	// The status record can trail the checkpoint by one boundary (a crash
	// between the checkpoint/ledger stage and the status stage leaves
	// exactly that cut — the persist order guarantees it is the only
	// possible skew). A resume that lands on the final step skips the
	// loop entirely, so refresh the completion fields from the live
	// engine rather than trusting the possibly-stale record.
	refresh()

	// A dead ledger never stops the dynamics, but it does gate "done":
	// a run whose provenance chain has a hole is not auditable, and done
	// certifies auditability. A transiently dead writer requeues — the
	// re-run resumes from the final checkpoint and re-commits the chain.
	if err := run.Ledger.Err(); err != nil {
		d.supervise(&js, fmt.Errorf("run ledger: %w", err))
		return
	}
	d.finish(&js, StateDone, nil)
	publish()
	d.log.Info("job finished", "job", id, "steps", js.Step, "digest", js.Digest,
		"attempts", js.Attempts)
}

// finish writes a terminal state (or the success reset of the failure
// counter). Persistence here retries transient faults like any other
// stage; a storage crash can only be logged — the job's checkpoint is
// still on disk, so the next daemon's recovery scan re-runs the tail
// idempotently.
func (d *Daemon) finish(js *JobStatus, state JobState, cause error) {
	js.State = state
	js.FinishedAt = time.Now().UTC()
	if state == StateDone {
		js.Failures = 0
	}
	if cause != nil {
		js.Error = cause.Error()
		d.log.Error("job failed", "job", js.ID, "state", state, "err", cause)
	}
	if err := d.retryPersist(js.ID, func() error { return d.store.Put(*js) }); err != nil {
		d.log.Error("persist terminal state", "job", js.ID, "err", err)
	}
}
