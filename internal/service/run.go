package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"

	"anton/internal/core"
	"anton/internal/faults"
	"anton/internal/ledger"
	"anton/internal/obs"
	"anton/internal/obs/health"
	"anton/internal/system"
)

// ErrDamaged tags an OpenRun failure caused by what an earlier attempt
// left on disk: a checkpoint that read back but failed validation, or a
// ledger stage that failed while resuming. OpenRun only tags; whether
// that means quarantine (antond, unless the cause is a crash or a
// transient fault) or exit (antonsim) is the caller's decision.
var ErrDamaged = errors.New("service: run artifact damaged")

// Run is one attached simulation: the engine a JobSpec describes, the
// checkpoint it persists to, its run ledger, its fault campaign and its
// observers. antonsim, antond's worker and antonaudit's replay all drive
// a simulation through it, so how a run is attached and how a boundary is
// made durable is decided here and nowhere else.
type Run struct {
	Eng         *core.Engine // monolithic or sharded, as the spec says
	ResumedFrom int          // the restored step, -1 on a fresh run

	// Observers, on every run; attaching them never perturbs a bit of the
	// trajectory.
	Rec    *obs.Recorder
	Tracer *obs.Tracer
	Watch  *core.Watch

	Ledger *ledger.Writer // nil without a ledger path
	tap    *core.LedgerTap

	ckpt  string
	fs    *faults.FS
	retry func(op func() error) error
}

// BuildSim constructs the execution engine a job spec describes: the
// system, the (optionally sharded) engine, and the deterministic initial
// velocities. A resumed run builds the same way — the checkpoint restore
// then overwrites the seeded state, exactly as the uninterrupted run
// would have evolved it.
//
// The engine is the second result. The first is the same engine as a
// core.Sim, and the third the same engine when sharded (nil otherwise):
// both remain only because the benchmark harness (bench/service.go)
// still reads them.
func BuildSim(spec JobSpec) (core.Sim, *core.Engine, *core.Sharded, error) {
	s, err := system.ByName(spec.System)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("service: building system: %w", err)
	}
	nodes := spec.Nodes
	if spec.Shards > 0 {
		nodes = spec.Shards
	}
	cfg := core.DefaultConfig(nodes)
	if spec.Ensemble == "nve" {
		cfg.TauT = 0
	} else {
		cfg.TargetT = spec.Temperature
	}
	vel := system.InitVelocities(s.Top, 300, rand.New(rand.NewSource(spec.Seed)))
	if spec.Shards > 0 {
		eng, err := core.NewSharded(s, cfg)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("service: building sharded engine: %w", err)
		}
		eng.SetVelocities(vel)
		return eng, eng, eng, nil
	}
	eng, err := core.NewEngine(s, cfg)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("service: building engine: %w", err)
	}
	eng.SetVelocities(vel)
	return eng, eng, nil, nil
}

// OpenRun builds the simulation a normalized spec describes and attaches
// everything a run carries, in this order (DESIGN §14 "Run lifecycle"):
// build; restore from resume when that file exists (read through fs,
// fingerprint + CRC validated before any state is touched); the ledger
// (see openLedger); the spec's chaos campaign, with an in-memory rollback
// image every spec.CheckpointEvery steps and the campaign and its
// recoveries ledgered; then recorder, tracer and health watch. Persist is
// the only writer of ckpt.
//
// resume, ckpt and ledgerPath may each be empty (skip). fs is the storage
// fault plane (nil = plain I/O: the CLI and the daemon run the same code)
// and retry wraps each checkpoint read and write through it (nil = once).
func OpenRun(spec JobSpec, resume, ckpt, ledgerPath string, fs *faults.FS, retry func(op func() error) error) (_ *Run, err error) {
	if retry == nil {
		retry = func(op func() error) error { return op() }
	}
	_, eng, _, err := BuildSim(spec)
	if err != nil {
		return nil, err
	}
	r := &Run{Eng: eng, ResumedFrom: -1, ckpt: ckpt, fs: fs, retry: retry}
	defer func() {
		if err != nil {
			r.Close()
		}
	}()

	if _, statErr := os.Stat(resume); resume != "" && statErr == nil {
		var blob []byte
		if err := retry(func() (rerr error) { blob, rerr = fs.ReadFile(resume); return }); err != nil {
			return nil, fmt.Errorf("reading checkpoint: %w", err)
		}
		if err := eng.RestoreCheckpoint(bytes.NewReader(blob)); err != nil {
			return nil, fmt.Errorf("%w: resuming from checkpoint %s: %w", ErrDamaged, resume, err)
		}
		r.ResumedFrom = eng.StepCount()
	}

	if ledgerPath != "" {
		if err := r.openLedger(spec, ledgerPath); err != nil {
			err = fmt.Errorf("run ledger: %w", err)
			if r.ResumedFrom >= 0 {
				err = fmt.Errorf("%w: %w", ErrDamaged, err)
			}
			return nil, err
		}
		r.tap = core.AttachLedger(eng, r.Ledger)
	}

	if spec.Chaos != "" {
		sp, err := faults.ParseSpec(spec.Chaos) // validated by Normalize
		if err != nil {
			return nil, err
		}
		if err := eng.EnableFaults(core.FaultConfig{
			Plane:           faults.New(sp, eng.Shards()),
			CheckpointEvery: spec.CheckpointEvery,
			OnRecovery: func(ev core.RecoveryEvent) {
				if r.Ledger != nil {
					// A failed append latches in the writer and fails the next Persist.
					_ = r.Ledger.AppendRecovery(ledger.Recovery(ev))
				}
			},
		}); err != nil {
			return nil, err
		}
		if r.Ledger != nil {
			if err := r.Ledger.AppendFaults(int64(eng.StepCount()), sp.String(), sp.Seed); err != nil {
				return nil, fmt.Errorf("run ledger: %w", err)
			}
		}
	}

	r.Rec = obs.NewRecorder()
	r.Tracer = obs.NewTracer(4096)
	r.Rec.Trace(r.Tracer)
	eng.Observe(r.Rec)
	r.Watch = core.NewWatch(eng)
	return r, nil
}

// openLedger opens the run's provenance chain. A fresh run creates it
// and writes the genesis: the spec, the config fingerprint and the system
// identity, everything a replay audit rebuilds from. A resumed run
// re-opens the existing chain — ledger.Open audits it end to end first,
// because extending an untrustworthy history would launder it — and
// stamps a resume record with the restored step and the chain's running
// resume count; with no ledger file to re-open it starts a chain (genesis,
// then the resume).
func (r *Run) openLedger(spec JobSpec, path string) error {
	opts := ledger.Options{FS: r.fs}
	resumes := 1
	if _, statErr := os.Stat(path); r.ResumedFrom >= 0 && statErr == nil {
		lw, err := ledger.Open(path, opts)
		if err != nil {
			return fmt.Errorf("audit on resume: %w", err)
		}
		r.Ledger = lw
		recs, err := ledger.ReadFile(path)
		if err != nil {
			return err
		}
		for _, rec := range recs {
			if rec.Kind == ledger.KindResume {
				resumes++
			}
		}
	} else {
		lw, err := ledger.Create(path, opts)
		if err != nil {
			return err
		}
		r.Ledger = lw
		genesis, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		if err := lw.AppendGenesis(ledger.Genesis{
			Spec:        genesis,
			Fingerprint: r.Eng.FingerprintHex(),
			System:      spec.System,
			Atoms:       r.Eng.Sys.NAtoms(),
		}); err != nil {
			return err
		}
	}
	if r.ResumedFrom < 0 {
		return nil
	}
	return r.Ledger.AppendResume(r.ResumedFrom, resumes)
}

// Advance steps the simulation n steps and reports a sharded engine that
// parked itself (a fault campaign it could not recover from).
func (r *Run) Advance(n int) error {
	r.Eng.Step(n)
	if err := r.Eng.Err(); err != nil {
		return fmt.Errorf("sharded engine parked: %w", err)
	}
	return nil
}

// DrainAlerts returns the watchdog alerts latched since the last drain,
// ledgering each one first.
func (r *Run) DrainAlerts() ([]health.Alert, error) {
	alerts := r.Watch.Drain()
	if r.Ledger != nil {
		for _, a := range alerts {
			if err := r.Ledger.AppendAlert(a.Step, ledger.Alert{
				Monitor:   a.Monitor,
				Severity:  a.Severity.String(),
				Value:     a.Value,
				Threshold: a.Threshold,
				Message:   a.Message,
			}); err != nil {
				return alerts, fmt.Errorf("ledgering alert: %w", err)
			}
		}
	}
	return alerts, nil
}

// Persist seals one boundary: serialize the checkpoint once, write it
// through the fault plane (retried), ledger it and any latched alerts,
// then commit the batch — the commit fsyncs, so everything up to this
// boundary is durable before the caller's status record can claim it, and
// a committed ledger never trails its checkpoint. The ledger writer
// retries its own appends with rollback, so a re-driven stage never
// double-appends; re-recording the checkpoint after a commit failure is
// harmless (audit tolerates agreeing duplicates).
func (r *Run) Persist() error {
	if r.ckpt != "" {
		var buf bytes.Buffer
		if err := r.Eng.WriteCheckpoint(&buf); err != nil {
			return fmt.Errorf("serializing checkpoint: %w", err)
		}
		if err := r.retry(func() error { return r.fs.WriteFile(r.ckpt, buf.Bytes()) }); err != nil {
			return fmt.Errorf("writing checkpoint: %w", err)
		}
		if r.tap != nil {
			if err := r.tap.RecordCheckpoint(r.ckpt); err != nil {
				return fmt.Errorf("ledgering checkpoint: %w", err)
			}
		}
	}
	if _, err := r.DrainAlerts(); err != nil {
		return err
	}
	if r.Ledger != nil {
		if err := r.Ledger.Commit(); err != nil {
			return fmt.Errorf("committing ledger: %w", err)
		}
	}
	return nil
}

// Publish pushes fresh copies of the run's observability state to a
// telemetry surface (whose HTTP handlers only ever read those copies).
func (r *Run) Publish(tel *obs.Telemetry) error {
	tel.PublishSnapshot(r.Rec.Snapshot())
	tel.PublishSample(r.Eng.TelemetrySample())
	tel.PublishHealth(r.Watch.Registry().Status())
	return tel.PublishTrace(r.Tracer)
}

// Close stops the shard goroutines and closes the ledger (which commits
// its pending batch).
func (r *Run) Close() error {
	r.Eng.Close()
	if r.Ledger != nil {
		return r.Ledger.Close()
	}
	return nil
}
