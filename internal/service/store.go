package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"anton/internal/faults"
)

// JobState is a job's lifecycle position. The persisted state machine is
//
//	queued -> running -> done | failed
//	queued | running -> canceled
//	running -(retryable failure)-> queued           (Failures++, backoff)
//	running | queued -(Failures >= retry budget)-> failed_poisoned
//	running | queued -(poisoned artifact)-> failed_poisoned
//	running -(daemon death)-> running on disk -> re-queued at recovery
//
// A job found queued or running at daemon startup was interrupted; the
// recovery scan re-queues it, and its worker resumes from the persisted
// checkpoint (or from step 0 if the job never reached one).
//
// failed_poisoned is the quarantine state: the job's persistent
// artifacts (status record, checkpoint, or ledger) are too damaged to
// trust, or the job failed so many consecutive times that retrying it
// would wedge the pool. Quarantined jobs keep their directory for
// forensics and are never re-run.
type JobState string

const (
	StateQueued      JobState = "queued"
	StateRunning     JobState = "running"
	StateDone        JobState = "done"
	StateFailed      JobState = "failed"
	StateCanceled    JobState = "canceled"
	StateQuarantined JobState = "failed_poisoned"
)

// terminal reports whether a state can never change again.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled || s == StateQuarantined
}

// Terminal reports whether a state can never change again — exported
// for clients (and the benchmark's closed loop) that poll for job
// completion.
func (s JobState) Terminal() bool { return s.terminal() }

// JobStatus is the durable record of one job: its spec plus everything
// the operator needs to monitor and audit it. Persisted as status.json
// in the job's directory with the same temp+fsync+rename discipline as
// checkpoints, so at every instant the file is a complete, parseable
// record.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	Spec  JobSpec  `json:"spec"`

	// Step is the last durably recorded step (always a checkpoint
	// boundary while running).
	Step int `json:"step"`

	// Digest is the engine state digest at Step, in hex. Equal digests
	// at equal steps mean bitwise-identical trajectories — this is how
	// an operator audits that an interruption cost nothing.
	Digest string `json:"digest,omitempty"`

	// Resumes counts checkpoint restores; ResumedFrom is the step of the
	// most recent one (-1 when the job has never resumed).
	Resumes     int `json:"resumes"`
	ResumedFrom int `json:"resumed_from"`

	// Attempts counts how many times a worker has picked the job up;
	// Failures counts consecutive retryable failures since the last
	// clean run (the quarantine trigger — reset only on success).
	Attempts int `json:"attempts,omitempty"`
	Failures int `json:"failures,omitempty"`

	// Last sampled diagnostics (informational; floats never feed state).
	Temperature float64 `json:"temperature_k,omitempty"`
	TotalEnergy float64 `json:"total_energy,omitempty"`

	Error string `json:"error,omitempty"`

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	UpdatedAt   time.Time `json:"updated_at"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`
}

// Store is the durable job store: one directory per job under
// root/jobs, holding spec-bearing status.json and the job's checkpoint.
// All writes are crash-consistent (routed through the storage fault
// plane when one is attached); the in-memory map is a cache over the
// files, rebuilt by a directory scan at open.
type Store struct {
	root string
	fs   *faults.FS

	mu          sync.RWMutex
	watch       *sync.Cond // broadcast on every status change (see WaitJob)
	jobs        map[string]*JobStatus
	byKey       map[string]string // idempotency key -> job ID
	seq         int
	quarantined []string // jobs quarantined by the open scan
}

// OpenStore opens (creating if needed) the store rooted at dir and
// loads every job record found there, with plain (fault-free) I/O.
func OpenStore(dir string) (*Store, error) { return OpenStoreFS(dir, nil) }

// OpenStoreFS is OpenStore with every durable write routed through the
// given storage fault plane (nil = plain I/O).
//
// The scan fails open: a corrupt status record — torn, bit-flipped,
// zero-length, or naming the wrong job — quarantines that one job
// (state failed_poisoned, the damaged bytes preserved as
// status.json.corrupt) instead of refusing to start the daemon. One
// poisoned record must not take the service down with it.
func OpenStoreFS(dir string, fsp *faults.FS) (*Store, error) {
	st := &Store{root: dir, fs: fsp, jobs: make(map[string]*JobStatus), byKey: make(map[string]string)}
	st.watch = sync.NewCond(&st.mu)
	if err := os.MkdirAll(st.jobsDir(), 0o755); err != nil {
		return nil, fmt.Errorf("service: opening store: %w", err)
	}
	entries, err := os.ReadDir(st.jobsDir())
	if err != nil {
		return nil, fmt.Errorf("service: scanning store: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		b, err := os.ReadFile(filepath.Join(st.jobsDir(), id, "status.json"))
		if err != nil {
			// A directory without a complete status record is a job that
			// crashed between mkdir and the first atomic write; it holds
			// no state worth recovering.
			continue
		}
		var js JobStatus
		if err := json.Unmarshal(b, &js); err != nil {
			st.quarantineScanLocked(id, fmt.Errorf("corrupt status record: %w", err))
		} else if js.ID != id {
			st.quarantineScanLocked(id, fmt.Errorf("status record names job %q", js.ID))
		} else {
			st.jobs[id] = &js
			if key := js.Spec.IdempotencyKey; key != "" {
				st.byKey[key] = id
			}
		}
		if n := seqOf(id); n > st.seq {
			st.seq = n
		}
	}
	return st, nil
}

// quarantineScanLocked handles one corrupt record found by the open
// scan: preserve the evidence, replace the record with a quarantined
// one, keep going. Called before any concurrent access exists, so the
// "Locked" is about symmetry with persistLocked, not contention.
func (st *Store) quarantineScanLocked(id string, cause error) {
	dir := filepath.Join(st.jobsDir(), id)
	// Best-effort evidence preservation; the rename failing must not
	// block the quarantine itself.
	_ = os.Rename(filepath.Join(dir, "status.json"), filepath.Join(dir, "status.json.corrupt"))
	now := time.Now().UTC()
	js := &JobStatus{
		ID:          id,
		State:       StateQuarantined,
		Error:       fmt.Sprintf("quarantined at scan: %v", cause),
		ResumedFrom: -1,
		SubmittedAt: now,
		UpdatedAt:   now,
		FinishedAt:  now,
	}
	// Persist best-effort too (the disk just proved itself hostile); the
	// in-memory record stands either way, so the daemon reports the
	// quarantine even if this write also fails.
	_ = st.persistLocked(js)
	st.jobs[id] = js
	st.quarantined = append(st.quarantined, id)
}

// Quarantined returns the IDs the open scan quarantined, in scan order.
func (st *Store) Quarantined() []string {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return append([]string(nil), st.quarantined...)
}

func (st *Store) jobsDir() string { return filepath.Join(st.root, "jobs") }

// Dir returns the job's directory.
func (st *Store) Dir(id string) string { return filepath.Join(st.jobsDir(), id) }

// CheckpointPath returns the job's durable checkpoint file path.
func (st *Store) CheckpointPath(id string) string {
	return filepath.Join(st.Dir(id), "job.ckpt")
}

// LedgerPath returns the job's run-ledger file path: the hash-chained
// provenance record of the trajectory, next to status.json and job.ckpt.
// antonaudit verifies and replays it offline.
func (st *Store) LedgerPath(id string) string {
	return filepath.Join(st.Dir(id), "run.ledger")
}

// seqOf parses the numeric tail of "job-000042"; 0 for foreign names.
func seqOf(id string) int {
	s, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0
	}
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// Create allocates an ID, persists the job as queued, and returns a copy
// of its status.
func (st *Store) Create(spec JobSpec) (JobStatus, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.seq++
	js := &JobStatus{
		ID:          fmt.Sprintf("job-%06d", st.seq),
		State:       StateQueued,
		Spec:        spec,
		ResumedFrom: -1,
		SubmittedAt: time.Now().UTC(),
		UpdatedAt:   time.Now().UTC(),
	}
	if err := os.MkdirAll(st.Dir(js.ID), 0o755); err != nil {
		return JobStatus{}, fmt.Errorf("service: creating job dir: %w", err)
	}
	if err := st.persistLocked(js); err != nil {
		return JobStatus{}, err
	}
	st.jobs[js.ID] = js
	if key := spec.IdempotencyKey; key != "" {
		st.byKey[key] = js.ID
	}
	st.watch.Broadcast()
	return *js, nil
}

// ByKey resolves an idempotency key to the job that registered it.
func (st *Store) ByKey(key string) (JobStatus, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	id, ok := st.byKey[key]
	if !ok {
		return JobStatus{}, false
	}
	js, ok := st.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return *js, true
}

// Put persists an updated status record (by value: the store keeps its
// own copy, so callers can't mutate cached state behind the lock). The
// cache is updated — and waiters woken — only when the persist
// succeeds, so the in-memory view never claims more than the disk
// holds.
func (st *Store) Put(js JobStatus) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	js.UpdatedAt = time.Now().UTC()
	cp := js
	if err := st.persistLocked(&cp); err != nil {
		return err
	}
	st.jobs[cp.ID] = &cp
	st.watch.Broadcast()
	return nil
}

// PutCached updates only the in-memory record (and wakes waiters),
// leaving the file alone. The requeue path uses this when the disk
// refuses even the queued flip: the on-disk record stays "running",
// which the next daemon's recovery scan re-queues all the same, so
// memory running ahead of disk here cannot lose the job — whereas
// abandoning the flip would wedge it until a restart.
func (st *Store) PutCached(js JobStatus) {
	st.mu.Lock()
	js.UpdatedAt = time.Now().UTC()
	cp := js
	st.jobs[cp.ID] = &cp
	st.watch.Broadcast()
	st.mu.Unlock()
}

func (st *Store) persistLocked(js *JobStatus) error {
	b, err := json.MarshalIndent(js, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if err := st.fs.WriteFile(filepath.Join(st.Dir(js.ID), "status.json"), b); err != nil {
		return fmt.Errorf("service: persisting %s: %w", js.ID, err)
	}
	return nil
}

// Get returns a copy of the job's status.
func (st *Store) Get(id string) (JobStatus, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	js, ok := st.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return *js, true
}

// WaitJob blocks until the job satisfies pred or the timeout passes —
// condition-variable signaling, not polling: Put broadcasts on every
// status change, so waiters wake exactly when something happened. The
// returned bool reports whether pred was satisfied.
func (st *Store) WaitJob(id string, timeout time.Duration, pred func(JobStatus) bool) (JobStatus, bool) {
	deadline := time.Now().Add(timeout)
	// The timer converts the deadline into a broadcast: cond.Wait has no
	// timeout of its own, so the waker is what bounds the wait.
	waker := time.AfterFunc(timeout, func() {
		st.mu.Lock()
		st.watch.Broadcast()
		st.mu.Unlock()
	})
	defer waker.Stop()
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		var last JobStatus
		if js, ok := st.jobs[id]; ok {
			last = *js
			if pred(last) {
				return last, true
			}
		}
		if !time.Now().Before(deadline) {
			return last, false
		}
		st.watch.Wait()
	}
}

// List returns copies of every job status, sorted by ID (submission
// order, since IDs are sequential).
func (st *Store) List() []JobStatus {
	st.mu.RLock()
	out := make([]JobStatus, 0, len(st.jobs))
	for _, js := range st.jobs {
		out = append(out, *js)
	}
	st.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Counts tallies jobs by state (for /metrics and /healthz).
func (st *Store) Counts() map[JobState]int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make(map[JobState]int, 6)
	for _, js := range st.jobs {
		out[js.State]++
	}
	return out
}

// Recover flips every interrupted job (queued or running on disk) back
// to queued, persists the flip, and returns them in submission order for
// re-enqueueing. Called once at daemon startup, before workers start.
//
// The flip's persist retries transient injected faults within the fault
// plane's budget; if the disk still refuses, the flip is kept cache-only
// — safe, because the on-disk record then still says "running", which
// is exactly what the *next* daemon's recovery scan re-queues. Only a
// crash (disk dead until reboot) or a real, non-injected error aborts
// startup.
func (st *Store) Recover() ([]JobStatus, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out []JobStatus
	for _, js := range st.jobs {
		if js.State.terminal() {
			continue
		}
		if js.State == StateRunning {
			js.State = StateQueued
			js.UpdatedAt = time.Now().UTC()
			var perr error
			for attempt := 0; attempt <= st.fs.RetryBudget(); attempt++ {
				if perr = st.persistLocked(js); perr == nil {
					break
				}
				if !faults.IsInjected(perr) {
					return nil, perr
				}
			}
			_ = perr // injected and budget-exhausted: cache-only flip
		}
		out = append(out, *js)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}
