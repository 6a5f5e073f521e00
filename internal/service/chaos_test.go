package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"anton/internal/faults"
	"anton/internal/ledger"
)

// awaitStorageCrash polls until the plane's scheduled/armed crash fires.
// Polling is the honest shape here: the crash happens inside a worker's
// persist call, and the "machine" going down is exactly the asynchronous
// external event the harness is simulating.
func awaitStorageCrash(t *testing.T, d *Daemon, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if d.StorageCrashed() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("armed storage crash never fired")
}

// TestServiceChaosPersistPointMatrix is the crash matrix: for every
// durable artifact (checkpoint, status record, ledger head) and every
// crash point inside the atomic-write sequence, cut the persist there,
// reboot, restart the daemon over the same state dir, and require the
// job to finish with the bitwise reference digest and a verifying
// ledger. This is the proof that the checkpoint -> ledger -> status
// persist order is safe at every cut.
func TestServiceChaosPersistPointMatrix(t *testing.T) {
	skipShort(t)
	spec := JobSpec{System: "small", Steps: 40, CheckpointEvery: 10, Seed: 7}
	want := referenceDigest(t, spec)
	targets := []string{"job.ckpt", "status.json", "run.ledger"}
	for _, target := range targets {
		for point := uint8(0); point < faults.FSCrashPoints; point++ {
			t.Run(fmt.Sprintf("%s/point%d", target, point), func(t *testing.T) {
				dir := t.TempDir()
				fs := faults.NewFS(faults.FSSpec{Seed: 3}) // quiet: armed crash only
				d1 := newTestDaemon(t, Config{
					StateDir: dir, Workers: 1, StorageFS: fs,
					RetryBase: time.Millisecond,
				})
				js, _, err := d1.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				d1.Start()
				// Let the first boundary land cleanly so every artifact
				// exists, then aim the crash at the target's next write.
				waitJob(t, d1, js.ID, 2*time.Minute, func(j JobStatus) bool { return j.Step >= 10 })
				fs.ArmCrash(target, point)
				awaitStorageCrash(t, d1, 2*time.Minute)
				d1.Kill()

				// The machine comes back; a fresh daemon over the same state
				// dir recovers, resumes, finishes.
				fs.Reboot()
				d2 := newTestDaemon(t, Config{
					StateDir: dir, Workers: 1, StorageFS: fs,
					RetryBase: time.Millisecond,
				})
				d2.Start()
				defer d2.Kill()
				final := waitJob(t, d2, js.ID, 5*time.Minute, func(j JobStatus) bool { return j.State.terminal() })
				if final.State != StateDone {
					t.Fatalf("job ended %s (err %q), want done", final.State, final.Error)
				}
				if final.Digest != want {
					t.Fatalf("digest after crash at %s point %d = %s, want reference %s",
						target, point, final.Digest, want)
				}
				if _, err := ledger.VerifyFile(d2.store.LedgerPath(js.ID)); err != nil {
					t.Fatalf("ledger after crash at %s point %d fails verification: %v", target, point, err)
				}
				if got := fs.Counts().CrashesFired; got != 1 {
					t.Fatalf("crashes fired = %d, want 1", got)
				}
			})
		}
	}
}

// TestServiceChaosTransientStorm: a crash-free campaign of ENOSPC, torn
// writes, EIO and stalls over every persist path. The op-level retries
// (and the ledger writer's internal rollback+retry) must absorb all of
// it: both jobs finish with reference digests, verifying ledgers, no
// requeues needed beyond what the supervision chose, and zero wedged
// workers.
func TestServiceChaosTransientStorm(t *testing.T) {
	skipShort(t)
	dir := t.TempDir()
	d := newTestDaemon(t, Config{
		StateDir:     dir,
		Workers:      2,
		StorageChaos: "seed=9,enospc=0.12,torn=0.08,eio=0.08,stall=0.03,maxstall=1ms",
		RetryBase:    time.Millisecond,
	})
	specs := []JobSpec{
		{System: "small", Steps: 60, CheckpointEvery: 10, Seed: 5},
		{System: "small", Steps: 60, CheckpointEvery: 15, Seed: 11, Shards: 2},
	}
	var ids []string
	for _, sp := range specs {
		js, _, err := d.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, js.ID)
	}
	d.Start()
	defer d.Kill()
	for i, id := range ids {
		final := waitJob(t, d, id, 5*time.Minute, func(j JobStatus) bool { return j.State.terminal() })
		if final.State != StateDone {
			t.Fatalf("job %s ended %s (err %q), want done", id, final.State, final.Error)
		}
		if want := referenceDigest(t, specs[i]); final.Digest != want {
			t.Fatalf("job %s digest %s != reference %s under storage chaos", id, final.Digest, want)
		}
		if _, err := ledger.VerifyFile(d.store.LedgerPath(id)); err != nil {
			t.Fatalf("job %s ledger fails verification: %v", id, err)
		}
	}
	c := d.FS().Counts()
	if c.Enospc+c.Torn+c.Eio == 0 {
		t.Fatalf("campaign injected nothing: %+v", c)
	}
	if d.BusyWorkers() != 0 || d.QueueDepth() != 0 {
		t.Fatalf("wedged pool: busy=%d depth=%d", d.BusyWorkers(), d.QueueDepth())
	}
}

// TestServiceChaosCorruptCheckpointQuarantine: a checkpoint damaged at
// rest fails its CRC on resume, and the job is quarantined as
// failed_poisoned — never silently re-run from step 0, never retried
// into the same wall.
func TestServiceChaosCorruptCheckpointQuarantine(t *testing.T) {
	skipShort(t)
	dir := t.TempDir()
	d1 := newTestDaemon(t, Config{StateDir: dir, Workers: 1})
	js, _, err := d1.Submit(JobSpec{System: "small", Steps: 4000, CheckpointEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	d1.Start()
	waitJob(t, d1, js.ID, 2*time.Minute, func(j JobStatus) bool { return j.Step >= 20 })
	d1.Kill()
	interrupted, _ := d1.Job(js.ID)

	// Bit-flip the middle of the checkpoint: parseable path, broken CRC.
	path := d1.store.CheckpointPath(js.ID)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := newTestDaemon(t, Config{StateDir: dir, Workers: 1})
	d2.Start()
	defer d2.Kill()
	final := waitJob(t, d2, js.ID, time.Minute, func(j JobStatus) bool { return j.State.terminal() })
	if final.State != StateQuarantined || !strings.Contains(final.Error, "checkpoint") {
		t.Fatalf("job over a corrupt checkpoint ended %s (err %q), want failed_poisoned naming the checkpoint",
			final.State, final.Error)
	}
	if final.Step < interrupted.Step {
		t.Fatalf("quarantined job's recorded step went backwards: %d -> %d (silent re-run?)",
			interrupted.Step, final.Step)
	}
	if q := d2.Stats().Quarantines.Load(); q != 1 {
		t.Fatalf("quarantine counter = %d, want 1", q)
	}
}

// TestServiceChaosSuperviseRouting exercises the failure router
// directly: transient faults requeue with backoff until the consecutive-
// failure budget quarantines; crashes abandon the job untouched.
func TestServiceChaosSuperviseRouting(t *testing.T) {
	d := newTestDaemon(t, Config{
		StateDir: t.TempDir(), Workers: 1,
		JobRetries: 2, RetryBase: time.Millisecond,
	})
	js, _, err := d.Submit(JobSpec{System: "small", Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	// QueueDepth is 1 from the submit; drain the bookkeeping by removing
	// it so requeue pushes are observable.
	d.q.remove(js.ID)

	js.State = StateRunning
	d.supervise(&js, fmt.Errorf("persisting status: %w", faults.ErrInjected))
	if js.State != StateQueued || js.Failures != 1 {
		t.Fatalf("after first transient failure: %s failures=%d, want queued/1", js.State, js.Failures)
	}
	if got := d.Stats().JobRequeues.Load(); got != 1 {
		t.Fatalf("requeue counter = %d, want 1", got)
	}
	if d.QueueDepth() != 1 {
		t.Fatalf("queue depth = %d after requeue, want 1", d.QueueDepth())
	}

	d.q.remove(js.ID)
	js.State = StateRunning
	d.supervise(&js, fmt.Errorf("writing checkpoint: %w", faults.ErrInjected))
	if js.State != StateQuarantined {
		t.Fatalf("after exhausting the retry budget: %s, want failed_poisoned", js.State)
	}
	if got, _ := d.Job(js.ID); got.State != StateQuarantined {
		t.Fatalf("quarantine not persisted: %s", got.State)
	}
	if got := d.Stats().Quarantines.Load(); got != 1 {
		t.Fatalf("quarantine counter = %d, want 1", got)
	}

	// A crash abandons: no state change, no counters — recovery owns it.
	js2, _, err := d.Submit(JobSpec{System: "small", Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	js2.State = StateRunning
	d.supervise(&js2, fmt.Errorf("status: %w", faults.ErrCrash))
	if js2.State != StateRunning {
		t.Fatalf("crash-abandoned job mutated to %s", js2.State)
	}

	// A plain error (not injected, not crash) is a permanent failure.
	js3, _, err := d.Submit(JobSpec{System: "small", Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	js3.State = StateRunning
	d.supervise(&js3, fmt.Errorf("the potential blew up"))
	if js3.State != StateFailed {
		t.Fatalf("plain failure routed to %s, want failed", js3.State)
	}
}

// TestServiceChaosDeadline: a job past its wall-clock budget fails
// permanently at its next chunk boundary — deadline exhaustion is not
// retryable (a requeue would spin forever).
func TestServiceChaosDeadline(t *testing.T) {
	skipShort(t)
	d := newTestDaemon(t, Config{
		StateDir: t.TempDir(), Workers: 1,
		JobDeadline: 30 * time.Millisecond,
	})
	js, _, err := d.Submit(JobSpec{System: "small", Steps: 2_000_000, CheckpointEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	defer d.Kill()
	final := waitJob(t, d, js.ID, time.Minute, func(j JobStatus) bool { return j.State.terminal() })
	if final.State != StateFailed || !strings.Contains(final.Error, "deadline") {
		t.Fatalf("over-budget job ended %s (err %q), want failed with a deadline error", final.State, final.Error)
	}
	if final.Step >= 2_000_000 {
		t.Fatal("job finished all steps despite a 30ms deadline")
	}
}

// TestServiceChaosStallAlert: a job whose chunk outlives the supervision
// window raises exactly the heartbeat alert (advisory — the engine is
// cooperative, so detection, not preemption).
func TestServiceChaosStallAlert(t *testing.T) {
	skipShort(t)
	d := newTestDaemon(t, Config{
		StateDir: t.TempDir(), Workers: 1,
		StallAfter: 25 * time.Millisecond,
	})
	// 50-step chunks (~0.3 s on `small`) outlive the 25 ms window, so the
	// heartbeat goes stale within the first chunk; the run is far longer
	// than the test, and the cancel lands at the next boundary. (The alert
	// must not depend on the job's set-up outlasting the window: set-up is
	// ~10 ms once the process has fitted the job's PPIP tables.)
	js, _, err := d.Submit(JobSpec{System: "small", Steps: 500_000, CheckpointEvery: 50})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	defer d.Kill()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		if d.Stats().StallAlerts.Load() >= 1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := d.Stats().StallAlerts.Load(); got < 1 {
		t.Fatal("stall supervisor never alerted on a boundary-free job")
	}
	if _, err := d.Cancel(js.ID); err != nil {
		t.Fatal(err)
	}
}

// TestServiceChaosAdmissionAndMetrics drives the whole admission-control
// surface — idempotent replay, bounded-queue shedding with 429 +
// Retry-After — and asserts every supervision counter reaches the
// Prometheus text on /metrics.
func TestServiceChaosAdmissionAndMetrics(t *testing.T) {
	d := newTestDaemon(t, Config{
		StateDir: t.TempDir(), Workers: 1, QueueMax: 1,
	})
	// Not started: jobs stay queued, so the bounded queue is controllable.
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	post := func(body string, hdr map[string]string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest("POST", srv.URL+"/api/v1/jobs", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b := new(bytes.Buffer)
		_, _ = b.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, b.Bytes()
	}

	// First submission fills the queue (QueueMax=1).
	resp, body := post(`{"system":"small","steps":10,"idempotency_key":"alpha"}`, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first submit: %d %s", resp.StatusCode, body)
	}
	var created JobStatus
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}

	// Same key again: 200 (not 201), the original job, no new entry.
	resp, body = post(`{"system":"small","steps":10,"idempotency_key":"alpha"}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate submit: %d %s, want 200", resp.StatusCode, body)
	}
	var dup JobStatus
	if err := json.Unmarshal(body, &dup); err != nil {
		t.Fatal(err)
	}
	if dup.ID != created.ID {
		t.Fatalf("duplicate submit returned %s, want original %s", dup.ID, created.ID)
	}

	// The header spelling works too.
	resp, body = post(`{"system":"small","steps":10}`, map[string]string{"Idempotency-Key": "alpha"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("header-keyed duplicate: %d %s, want 200", resp.StatusCode, body)
	}

	// A new job now exceeds QueueMax: shed with 429 + Retry-After.
	resp, body = post(`{"system":"small","steps":10}`, nil)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("over-capacity submit: %d (Retry-After %q) %s, want 429", resp.StatusCode,
			resp.Header.Get("Retry-After"), body)
	}

	if got := d.Stats().IdempotentHits.Load(); got != 2 {
		t.Fatalf("idempotent hits = %d, want 2", got)
	}
	if got := d.Stats().Shed.Load(); got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}

	// Every supervision counter appears on the open /metrics endpoint.
	mreq, _ := http.NewRequest("GET", srv.URL+"/metrics", nil)
	mresp, err := srv.Client().Do(mreq)
	if err != nil {
		t.Fatal(err)
	}
	mb := new(bytes.Buffer)
	_, _ = mb.ReadFrom(mresp.Body)
	mresp.Body.Close()
	out := mb.String()
	for _, want := range []string{
		"antond_persist_retries_total 0",
		"antond_job_requeues_total 0",
		"antond_quarantines_total 0",
		"antond_shed_total 1",
		"antond_idempotent_hits_total 2",
		"antond_stall_alerts_total 0",
		"antond_storage_faults_total 0",
		`antond_jobs{state="failed_poisoned"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q:\n%s", want, out)
		}
	}
	// healthz reports the quarantine gauge too.
	hreq, _ := http.NewRequest("GET", srv.URL+"/healthz", nil)
	hresp, err := srv.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	hb := new(bytes.Buffer)
	_, _ = hb.ReadFrom(hresp.Body)
	hresp.Body.Close()
	if !strings.Contains(hb.String(), `"quarantined"`) {
		t.Fatalf("/healthz missing quarantined count: %s", hb.String())
	}
}

// TestServiceChaosScheduledCampaign is the whole hostile-disk campaign
// end to end: seeded transient faults plus scheduled crashes at rotating
// persist points, driven through kill/reboot/restart cycles until every
// job lands. The surviving jobs' digests must be bitwise equal to the
// undisturbed reference and their ledgers must verify. After the first
// reboot each spec is resubmitted under its idempotency key and must
// land on the original job: the key index is rebuilt from the faulty
// store's scan.
func TestServiceChaosScheduledCampaign(t *testing.T) {
	skipShort(t)
	dir := t.TempDir()
	fspec, err := faults.ParseFSSpec("seed=11,enospc=0.05,torn=0.05,stall=0.02,maxstall=1ms,crashes=3,horizon=60")
	if err != nil {
		t.Fatal(err)
	}
	fs := faults.NewFS(fspec)
	specs := []JobSpec{
		{System: "small", Steps: 50, CheckpointEvery: 10, Seed: 5, IdempotencyKey: "campaign-seed5"},
		{System: "small", Steps: 50, CheckpointEvery: 10, Seed: 9, Shards: 8, IdempotencyKey: "campaign-seed9"},
	}
	cfg := func() Config {
		return Config{
			StateDir: dir, Workers: 2, StorageFS: fs,
			RetryBase: time.Millisecond, JobRetries: 8,
			Logger: quietLogger(),
		}
	}

	d, err := New(cfg())
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, sp := range specs {
		js, _, err := d.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, js.ID)
	}
	d.Start()

	restarts := 0
	deadline := time.Now().Add(5 * time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("campaign did not converge; restarts=%d", restarts)
		}
		if d.StorageCrashed() {
			d.Kill()
			fs.Reboot()
			restarts++
			d, err = New(cfg())
			if err != nil {
				t.Fatal(err)
			}
			if restarts == 1 {
				for i, sp := range specs {
					js, created, err := d.Submit(sp)
					if err != nil || created || js.ID != ids[i] {
						t.Fatalf("resubmit of %s: job %s created=%v err=%v, want the original %s",
							sp.IdempotencyKey, js.ID, created, err, ids[i])
					}
				}
			}
			d.Start()
			continue
		}
		allDone := true
		for _, id := range ids {
			js, ok := d.Job(id)
			if !ok || !js.State.terminal() {
				allDone = false
				break
			}
		}
		if allDone {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	defer d.Kill()
	if restarts == 0 {
		t.Fatal("no scheduled crash fired: the resubmit-after-reboot cell never ran")
	}

	for i, id := range ids {
		final, _ := d.Job(id)
		if final.State != StateDone {
			t.Fatalf("job %s ended %s (err %q), want done", id, final.State, final.Error)
		}
		if want := referenceDigest(t, specs[i]); final.Digest != want {
			t.Fatalf("job %s digest %s != reference %s after %d restarts", id, final.Digest, want, restarts)
		}
		if _, err := ledger.VerifyFile(d.store.LedgerPath(id)); err != nil {
			t.Fatalf("job %s ledger fails verification: %v", id, err)
		}
	}
	if d.BusyWorkers() != 0 || d.QueueDepth() != 0 {
		t.Fatalf("wedged pool after campaign: busy=%d depth=%d", d.BusyWorkers(), d.QueueDepth())
	}
}
