package service

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"anton/internal/faults"
	"anton/internal/obs"
)

// Config tunes a Daemon.
type Config struct {
	// StateDir roots the durable job store. Everything the daemon must
	// survive a kill with lives under it.
	StateDir string

	// Workers bounds how many jobs run concurrently (default 2). Each
	// running job is its own engine (with its own internal worker pool),
	// so this is the multi-tenancy knob, not the CPU knob.
	Workers int

	// Tokens enables bearer-token auth when non-empty; requests to
	// /api/v1 must present one of them.
	Tokens []string

	// RatePerMin limits job submissions per token per minute (0 = no
	// limit), with bursts up to Burst (default 5).
	RatePerMin float64
	Burst      int

	// QueueMax bounds the number of queued jobs (0 = unbounded).
	// Submissions beyond it are shed with ErrQueueFull (HTTP 429 +
	// Retry-After) — admission control, not an error state.
	QueueMax int

	// JobDeadline is the default per-job wall-clock budget (0 = none;
	// JobSpec.DeadlineSec overrides per job). A job past its deadline
	// fails permanently at its next chunk boundary.
	JobDeadline time.Duration

	// JobRetries bounds consecutive retryable failures before a job is
	// quarantined as failed_poisoned (default 5).
	JobRetries int

	// StallAfter is the progress-heartbeat window: a running job that
	// reaches no chunk boundary within it raises a stall alert (0 =
	// stall detection off).
	StallAfter time.Duration

	// StorageChaos attaches a storage fault plane from a faults.FSSpec
	// string (see faults.ParseFSSpec), e.g.
	// "seed=11,enospc=0.05,torn=0.05,crashes=6,horizon=40".
	// Empty = quiet. StorageFS takes precedence when both are set.
	StorageChaos string

	// StorageFS attaches an existing storage fault plane — the chaos
	// harness shares one plane across daemon restarts so the crash
	// schedule spans the whole campaign.
	StorageFS *faults.FS

	// RetryBase is the persist-retry backoff base (default 50ms; the
	// delay doubles per attempt with deterministic jitter).
	RetryBase time.Duration

	// Logger receives operational logs (default: slog.Default()).
	Logger *slog.Logger
}

// ErrQueueFull is returned by Submit when admission control sheds the
// job (the bounded queue is at capacity).
var ErrQueueFull = errors.New("service: queue full")

// transientFault reports whether err is worth retrying: an injected
// storage fault, or the real errno it models.
func transientFault(err error) bool {
	return faults.IsInjected(err) || errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EIO)
}

// Daemon is the long-lived simulation service: a durable job store, a
// prioritized FIFO queue, a bounded worker pool, and the HTTP API over
// them. Construct with New (which recovers interrupted jobs), Start the
// pool, serve Handler, then Stop (graceful) or Kill (abrupt, for tests
// and impatient operators).
type Daemon struct {
	cfg   Config
	store *Store
	q     *queue
	auth  *auth
	tset  *obs.TelemetrySet
	fs    *faults.FS
	stats *obs.ServiceStats
	log   *slog.Logger

	ctx      context.Context
	cancel   context.CancelFunc
	graceful atomic.Bool
	wg       sync.WaitGroup

	// busy counts workers currently executing a job (for the /metrics
	// utilization gauges).
	busy atomic.Int64

	// beats holds per-job progress heartbeats (map[string]*jobBeat) for
	// the stall supervisor.
	beats sync.Map

	mu       sync.Mutex
	canceled map[string]bool
	started  bool
	// retired lists, oldest first, the jobs whose last attempt has ended
	// and whose telemetry surface is still in tset.
	retired []string
}

// retainedTelemetry is how many finished jobs keep their /metrics,
// /healthz and /trace surface (each pins its rendered trace, ~0.5 MB for
// the full 4096-span ring of a run past ~270 steps).
// A running job's surface is never dropped; an older finished job's
// answers 404, as an unknown job's or one from before a restart does.
const retainedTelemetry = 8

// acquireTelemetry returns the job's surface for an attempt that is
// starting, creating it if the job has none (its first attempt, or it was
// retired and dropped between retries).
func (d *Daemon) acquireTelemetry(id string) *obs.Telemetry {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, r := range d.retired {
		if r == id {
			d.retired = append(d.retired[:i], d.retired[i+1:]...)
			break
		}
	}
	return d.tset.Acquire(id)
}

// retireTelemetry marks the job's attempt as ended and drops the surfaces
// of all but the retainedTelemetry most recently ended jobs.
func (d *Daemon) retireTelemetry(id string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.retired = append(d.retired, id)
	for len(d.retired) > retainedTelemetry {
		d.tset.Drop(d.retired[0])
		d.retired = d.retired[1:]
	}
}

// jobBeat is one running job's progress heartbeat: the last boundary
// instant plus a latch so each stall episode alerts once.
type jobBeat struct {
	last    atomic.Int64 // unix nanos of the last boundary (or start)
	alerted atomic.Bool
}

func (b *jobBeat) touch() {
	b.last.Store(time.Now().UnixNano())
	b.alerted.Store(false)
}

// New opens the store under cfg.StateDir, re-queues every job that was
// queued or running when the previous daemon died, and returns a daemon
// ready to Start. Recovery precedes Start by construction, so a worker
// can never race the scan.
func New(cfg Config) (*Daemon, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 5
	}
	if cfg.JobRetries <= 0 {
		cfg.JobRetries = 5
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 50 * time.Millisecond
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	fsp := cfg.StorageFS
	if fsp == nil && cfg.StorageChaos != "" {
		spec, err := faults.ParseFSSpec(cfg.StorageChaos)
		if err != nil {
			return nil, fmt.Errorf("service: storage chaos: %w", err)
		}
		fsp = faults.NewFS(spec)
	}
	st, err := OpenStoreFS(cfg.StateDir, fsp)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &Daemon{
		cfg:      cfg,
		store:    st,
		q:        newQueue(),
		auth:     newAuth(cfg.Tokens, cfg.RatePerMin, cfg.Burst),
		tset:     obs.NewTelemetrySet(),
		fs:       fsp,
		stats:    &obs.ServiceStats{},
		log:      cfg.Logger,
		ctx:      ctx,
		cancel:   cancel,
		canceled: make(map[string]bool),
	}
	for _, id := range st.Quarantined() {
		d.stats.Quarantines.Add(1)
		d.log.Error("job quarantined by store scan", "job", id)
	}
	recovered, err := st.Recover()
	if err != nil {
		cancel()
		return nil, err
	}
	for _, js := range recovered {
		d.q.push(js.ID, js.Spec.Priority)
		d.log.Info("recovered interrupted job", "job", js.ID, "step", js.Step,
			"steps", js.Spec.Steps, "resumes", js.Resumes)
	}
	return d, nil
}

// Start launches the worker pool and, when stall detection is
// configured, the heartbeat supervisor. Idempotent.
func (d *Daemon) Start() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.started {
		return
	}
	d.started = true
	for i := 0; i < d.cfg.Workers; i++ {
		d.wg.Add(1)
		go d.worker()
	}
	if d.cfg.StallAfter > 0 {
		d.wg.Add(1)
		go d.stallSupervisor()
	}
}

// stallSupervisor watches the per-job heartbeats: a running job that
// reaches no chunk boundary within StallAfter raises one alert per
// stall episode. Detection is advisory (the engine is cooperative; a
// wedged Step cannot be preempted) — the deadline check at the next
// boundary is what eventually fails a stuck job.
func (d *Daemon) stallSupervisor() {
	defer d.wg.Done()
	tick := d.cfg.StallAfter / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-d.ctx.Done():
			return
		case <-t.C:
		}
		cut := time.Now().Add(-d.cfg.StallAfter).UnixNano()
		d.beats.Range(func(k, v any) bool {
			b := v.(*jobBeat)
			if b.last.Load() < cut && b.alerted.CompareAndSwap(false, true) {
				d.stats.StallAlerts.Add(1)
				d.log.Warn("job stalled: no boundary progress within window",
					"job", k, "window", d.cfg.StallAfter)
			}
			return true
		})
	}
}

// Stop drains the daemon gracefully: the queue closes (idle workers
// exit), running jobs stop at their next chunk boundary after flushing a
// checkpoint, and Stop returns when every worker has exited or ctx
// expires. Interrupted jobs stay "running" in the store — the next
// daemon's recovery scan re-queues and resumes them.
func (d *Daemon) Stop(ctx context.Context) error {
	d.graceful.Store(true)
	d.q.close()
	d.cancel()
	done := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: stop: workers still running: %w", ctx.Err())
	}
}

// Kill stops the daemon abruptly: running jobs abandon their current
// chunk's progress without persisting anything, exactly as a SIGKILL
// between checkpoint writes would. The durability tests use this to
// prove resume-from-last-checkpoint is bitwise exact.
func (d *Daemon) Kill() {
	d.q.close()
	d.cancel()
	d.wg.Wait()
}

// Submit validates, persists and enqueues a job. The returned bool
// reports whether a new job was created: a submission whose idempotency
// key matches an existing job returns that job with created=false, and
// a full bounded queue sheds the submission with ErrQueueFull.
func (d *Daemon) Submit(spec JobSpec) (JobStatus, bool, error) {
	if err := spec.Normalize(); err != nil {
		return JobStatus{}, false, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if key := spec.IdempotencyKey; key != "" {
		if js, ok := d.store.ByKey(key); ok {
			d.stats.IdempotentHits.Add(1)
			d.log.Info("duplicate submission answered idempotently", "job", js.ID, "key", key)
			return js, false, nil
		}
	}
	if d.cfg.QueueMax > 0 && d.q.depth() >= d.cfg.QueueMax {
		d.stats.Shed.Add(1)
		return JobStatus{}, false, ErrQueueFull
	}
	js, err := d.store.Create(spec)
	if err != nil {
		return JobStatus{}, false, err
	}
	d.q.push(js.ID, spec.Priority)
	d.log.Info("job submitted", "job", js.ID, "system", spec.System,
		"steps", spec.Steps, "shards", spec.Shards, "priority", spec.Priority)
	return js, true, nil
}

// Cancel requests cancellation: a queued job is canceled immediately; a
// running job stops at its next chunk boundary (its checkpoint is kept,
// so a canceled job can be inspected or re-submitted). Terminal jobs
// return an error.
func (d *Daemon) Cancel(id string) (JobStatus, error) {
	js, ok := d.store.Get(id)
	if !ok {
		return JobStatus{}, fmt.Errorf("service: no such job %s", id)
	}
	if js.State.terminal() {
		return js, fmt.Errorf("service: job %s already %s", id, js.State)
	}
	d.mu.Lock()
	d.canceled[id] = true
	d.mu.Unlock()
	if d.q.remove(id) {
		// Still queued: no worker owns it, finalize here.
		d.finish(&js, StateCanceled, nil)
		js, _ = d.store.Get(id)
	}
	return js, nil
}

func (d *Daemon) jobCanceled(id string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.canceled[id]
}

// Job returns a job's status.
func (d *Daemon) Job(id string) (JobStatus, bool) { return d.store.Get(id) }

// Jobs lists every job in submission order.
func (d *Daemon) Jobs() []JobStatus { return d.store.List() }

// AwaitJob blocks until the job satisfies pred or the timeout passes —
// condition-variable signaling through the store, no polling.
func (d *Daemon) AwaitJob(id string, timeout time.Duration, pred func(JobStatus) bool) (JobStatus, bool) {
	return d.store.WaitJob(id, timeout, pred)
}

// QueueDepth reports how many jobs are waiting for a worker.
func (d *Daemon) QueueDepth() int { return d.q.depth() }

// BusyWorkers reports how many workers are executing a job right now.
func (d *Daemon) BusyWorkers() int { return int(d.busy.Load()) }

// Stats exposes the supervision counters (for tests and experiments).
func (d *Daemon) Stats() *obs.ServiceStats { return d.stats }

// LedgerPath exposes the job's run-ledger file path, for audit tooling
// that verifies ledgers out-of-band (antonaudit, the benchmark's
// correctness gate).
func (d *Daemon) LedgerPath(id string) string { return d.store.LedgerPath(id) }

// FS returns the attached storage fault plane (nil when quiet) — the
// chaos harness reboots and re-shares it across daemon restarts.
func (d *Daemon) FS() *faults.FS { return d.fs }

// StorageCrashed reports whether the storage fault plane has fired a
// crash: the simulated machine is down and the harness should Kill this
// daemon, Reboot the plane, and start a fresh one over the same state
// dir.
func (d *Daemon) StorageCrashed() bool { return d.fs.Crashed() }

// backoffDelay is the retry backoff: exponential in the attempt number
// with deterministic per-(job, attempt) jitter, so colliding retries
// de-synchronize identically on every replay of a campaign.
func (d *Daemon) backoffDelay(id string, attempt int) time.Duration {
	base := d.cfg.RetryBase
	if attempt < 1 {
		attempt = 1
	}
	shift := attempt - 1
	if shift > 6 {
		shift = 6
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", id, attempt)
	jitter := time.Duration(h.Sum64() % uint64(base))
	return base<<shift + jitter
}

// persistAttempts bounds op-level persist attempts: above the fault
// plane's worst-case consecutive-fault streak across the
// write+fsync+rename sequence, so transient campaigns always converge.
const persistAttempts = 10

// retryPersist runs one persist stage with bounded retries + backoff
// for transient storage faults. Crashes and non-transient errors
// surface immediately; exhaustion surfaces the last fault.
func (d *Daemon) retryPersist(id string, op func() error) error {
	for a := 1; ; a++ {
		err := op()
		if err == nil {
			return nil
		}
		if transientFault(err) && !faults.IsCrash(err) {
			d.stats.StorageFaults.Add(1)
		}
		if faults.IsCrash(err) || !transientFault(err) || a >= persistAttempts {
			return err
		}
		d.stats.PersistRetries.Add(1)
		time.Sleep(d.backoffDelay(id, a))
	}
}

// supervise routes a job failure by class:
//
//   - injected crash: the process is "dead" — abandon the job silently;
//     the next daemon's recovery scan owns it;
//   - transient storage fault: requeue with backoff, bounded by the
//     consecutive-failure budget;
//   - otherwise a damaged artifact (ErrDamaged: a checkpoint that reads
//     fine but fails validation, a ledger that fails its resume audit):
//     quarantine (failed_poisoned), never re-run — restarting from step 0
//     or extending a history that can no longer be trusted is worse;
//   - anything else: permanent failure.
func (d *Daemon) supervise(js *JobStatus, cause error) {
	switch {
	case faults.IsCrash(cause):
		d.log.Error("storage crash; abandoning job to recovery", "job", js.ID, "err", cause)
	case transientFault(cause):
		d.requeue(js, cause)
	case errors.Is(cause, ErrDamaged):
		d.quarantine(js, cause)
	default:
		d.finish(js, StateFailed, cause)
	}
}

// requeue sends a transiently failed job back to the queue with
// exponential backoff; the consecutive-failure counter trips the
// quarantine once the retry budget is spent.
func (d *Daemon) requeue(js *JobStatus, cause error) {
	js.Failures++
	if js.Failures >= d.cfg.JobRetries {
		d.quarantine(js, fmt.Errorf("%d consecutive failures, last: %w", js.Failures, cause))
		return
	}
	d.stats.JobRequeues.Add(1)
	js.State = StateQueued
	js.Error = cause.Error()
	if err := d.retryPersist(js.ID, func() error { return d.store.Put(*js) }); err != nil {
		if faults.IsCrash(err) {
			// The machine is down; recovery owns the job.
			d.log.Error("requeue flip crashed; leaving job to recovery", "job", js.ID, "err", err)
			return
		}
		// The disk refused even the queued flip. Flip the cache only: the
		// file still says "running", which a recovery scan re-queues all
		// the same, and abandoning the flip here would wedge the job for
		// the daemon's whole lifetime.
		d.log.Error("persist requeue flip; continuing with cached state", "job", js.ID, "err", err)
		d.store.PutCached(*js)
	}
	delay := d.backoffDelay(js.ID, js.Failures)
	d.q.pushDelayed(js.ID, js.Spec.Priority, delay)
	d.log.Warn("job requeued with backoff", "job", js.ID,
		"failures", js.Failures, "backoff", delay, "err", cause)
}

// quarantine moves a job to failed_poisoned: its artifacts can't be
// trusted (or its failures exhausted the retry budget), so it is never
// re-run — one bad job must not wedge the pool.
func (d *Daemon) quarantine(js *JobStatus, cause error) {
	d.stats.Quarantines.Add(1)
	d.finish(js, StateQuarantined, cause)
}

// writeDaemonMetrics renders daemon-level Prometheus metrics (job counts
// by state, queue depth, worker-pool size, busy workers, utilization,
// the supervision counters, and the storage fault tallies when a chaos
// plane is attached).
func (d *Daemon) writeDaemonMetrics(w io.Writer) {
	counts := d.store.Counts()
	fmt.Fprintf(w, "# HELP antond_jobs Jobs by state.\n# TYPE antond_jobs gauge\n")
	for _, s := range []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled, StateQuarantined} {
		fmt.Fprintf(w, "antond_jobs{state=%q} %d\n", s, counts[s])
	}
	fmt.Fprintf(w, "# HELP antond_queue_depth Jobs waiting for a worker.\n# TYPE antond_queue_depth gauge\n")
	fmt.Fprintf(w, "antond_queue_depth %d\n", d.q.depth())
	fmt.Fprintf(w, "# HELP antond_workers Configured worker-pool size.\n# TYPE antond_workers gauge\n")
	fmt.Fprintf(w, "antond_workers %d\n", d.cfg.Workers)
	busy := d.busy.Load()
	fmt.Fprintf(w, "# HELP antond_workers_busy Workers currently executing a job.\n# TYPE antond_workers_busy gauge\n")
	fmt.Fprintf(w, "antond_workers_busy %d\n", busy)
	fmt.Fprintf(w, "# HELP antond_worker_utilization Busy fraction of the worker pool.\n# TYPE antond_worker_utilization gauge\n")
	fmt.Fprintf(w, "antond_worker_utilization %g\n", float64(busy)/float64(d.cfg.Workers))
	d.stats.WritePrometheus(w, "antond")
	if d.fs != nil {
		c := d.fs.Counts()
		fmt.Fprintf(w, "# HELP antond_storage_chaos_faults Injected storage faults by class.\n# TYPE antond_storage_chaos_faults counter\n")
		for _, kv := range []struct {
			class string
			v     int64
		}{
			{"enospc", c.Enospc}, {"eio", c.Eio}, {"torn", c.Torn},
			{"fsync_drop", c.FsyncDrops}, {"stall", c.Stalls}, {"crash", c.CrashesFired},
		} {
			fmt.Fprintf(w, "antond_storage_chaos_faults{class=%q} %d\n", kv.class, kv.v)
		}
	}
}
