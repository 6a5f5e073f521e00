package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func skipShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping multi-second simulation test in -short mode")
	}
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))
}

func newTestDaemon(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// waitJob blocks until the job satisfies cond or the deadline passes —
// condition-variable signaling through the store (AwaitJob), no polling.
func waitJob(t *testing.T, d *Daemon, id string, timeout time.Duration, cond func(JobStatus) bool) JobStatus {
	t.Helper()
	js, ok := d.AwaitJob(id, timeout, cond)
	if !ok {
		last, _ := d.Job(id)
		t.Fatalf("job %s did not reach the awaited condition in %v; last status: %+v", id, timeout, last)
	}
	return js
}

// referenceDigest runs the spec's trajectory directly (no daemon, no
// checkpoints) and returns the digest at the final step. This is the
// ground truth every service-path digest must match bitwise.
func referenceDigest(t *testing.T, spec JobSpec) string {
	t.Helper()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	sim, _, sh, err := BuildSim(spec)
	if err != nil {
		t.Fatal(err)
	}
	if sh != nil {
		defer sh.Close()
	}
	sim.Step(spec.Steps)
	return fmt.Sprintf("%016x", sim.StateDigest())
}

func TestJobSpecNormalize(t *testing.T) {
	good := JobSpec{System: "small", Steps: 10}
	if err := good.Normalize(); err != nil {
		t.Fatal(err)
	}
	if good.Ensemble != "nvt" || good.Temperature != 300 || good.Seed != DefaultSeed ||
		good.Nodes != DefaultNodes || good.CheckpointEvery != DefaultCheckpointEvery {
		t.Fatalf("defaults not applied: %+v", good)
	}
	bad := []JobSpec{
		{Steps: 10},                     // no system
		{System: "nonesuch", Steps: 10}, // unknown system
		{System: "small"},               // no steps
		{System: "small", Steps: -1},    // negative steps
		{System: "small", Steps: MaxSteps + 1},
		{System: "small", Steps: 10, Ensemble: "npt"},
		{System: "small", Steps: 10, Shards: 3},             // not a power of two
		{System: "small", Steps: 10, Shards: 2 * MaxShards}, // over the shard cap
		{System: "small", Steps: 10, Nodes: 3},              // no 3-node machine
		{System: "small", Steps: 10, Nodes: 2 * MaxNodes},   // over the node cap
		{System: "small", Steps: 10, Chaos: "drop=0.1"},     // chaos without shards
		{System: "small", Steps: 10, Shards: 2, Chaos: "bogus"},
		{System: "small", Steps: 10, CheckpointEvery: -5},
		{System: "small", Steps: 10, Temperature: -1},
		{System: "small", Steps: 10, Temperature: math.NaN()},
		{System: "small", Steps: 10, Temperature: math.Inf(1)},
		{System: "small", Steps: 10, Temperature: math.Inf(-1)},
		{System: "small", Steps: 10, Temperature: MaxTemperature + 0.5}, // over the temperature cap
		{System: "small", Steps: 10, Temperature: 1e30},
		{System: "small", Steps: 10, Ensemble: "nve", Temperature: math.NaN()}, // checked for NVE too
		{System: "small", Steps: 10, Shards: 8, Chaos: "crashes=33"},           // over the chaos caps
		{System: "small", Steps: 10, Shards: 8, Chaos: "drop=1,safe=9"},
		{System: "small", Steps: 10, Shards: 8, Chaos: "delay=1,maxdelay=101ms"},
		{System: "small", Steps: 10, Shards: 8, Chaos: "stall=1,maxstall=201ms"},
	}
	for i, s := range bad {
		if err := s.Normalize(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
	for _, atCap := range []JobSpec{
		{System: "small", Steps: 10, Temperature: MaxTemperature},
		{System: "small", Steps: 10, Shards: 8, Chaos: "crashes=32,safe=8,maxdelay=100ms,maxstall=200ms"},
	} {
		if err := atCap.Normalize(); err != nil {
			t.Errorf("spec at the caps rejected: %v", err)
		}
	}
}

// TestSubmitRejectsAbsurdTemperature: the daemon answers a spec whose
// temperature is over the cap with 400 before it reaches the store.
func TestSubmitRejectsAbsurdTemperature(t *testing.T) {
	d := newTestDaemon(t, Config{StateDir: t.TempDir()})
	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/jobs",
		strings.NewReader(`{"system":"small","steps":4,"temperature":1e30}`)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "temperature") {
		t.Fatalf("1e30 K submit: %d %s, want 400 naming the temperature", rec.Code, rec.Body)
	}
	if jobs := d.Jobs(); len(jobs) != 0 {
		t.Fatalf("rejected spec stored: %+v", jobs)
	}
}

// TestServiceHTTP drives the full API surface over a real listener:
// auth, submission, polling to completion, per-job telemetry, and the
// check that the service-run trajectory matches a direct run bitwise.
func TestServiceHTTP(t *testing.T) {
	skipShort(t)
	d := newTestDaemon(t, Config{
		StateDir:   t.TempDir(),
		Workers:    2,
		Tokens:     []string{"s3cret"},
		RatePerMin: 1, // refills too slowly to matter in-test
		Burst:      4,
	})
	d.Start()
	defer d.Kill()
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()

	do := func(method, path, token, body string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, b
	}

	// Unauthenticated and wrongly-authenticated requests bounce.
	if resp, _ := do("GET", "/api/v1/jobs", "", ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless list: %d, want 401", resp.StatusCode)
	}
	if resp, _ := do("POST", "/api/v1/jobs", "wrong", `{"system":"small","steps":1}`); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong-token submit: %d, want 401", resp.StatusCode)
	}
	// Daemon-level health and metrics stay open for probes.
	if resp, _ := do("GET", "/healthz", "", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %d, want 200", resp.StatusCode)
	}
	if resp, body := do("GET", "/metrics", "", ""); resp.StatusCode != http.StatusOK ||
		!strings.Contains(string(body), "antond_workers 2") {
		t.Fatalf("/metrics: %d %q", resp.StatusCode, body)
	}

	// Malformed specs are rejected before touching the store.
	if resp, _ := do("POST", "/api/v1/jobs", "s3cret", `{"system":"small","steps":0}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("zero-step submit: %d, want 400", resp.StatusCode)
	}
	if resp, _ := do("POST", "/api/v1/jobs", "s3cret", `{"system":"small","steps":5,"bogus":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field submit: %d, want 400", resp.StatusCode)
	}
	// The retired pipeline knob is an unknown field like any other.
	if resp, body := do("POST", "/api/v1/jobs", "s3cret", `{"system":"small","steps":5,"shards":2,"overlap":"off"}`); resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(string(body), `unknown field \"overlap\"`) {
		t.Fatalf("overlap submit: %d %s, want 400 naming the field", resp.StatusCode, body)
	}

	// A real submission: 201, Location header, then poll it to done.
	spec := `{"name":"e2e","system":"small","steps":40,"checkpoint_every":20,"seed":7}`
	resp, body := do("POST", "/api/v1/jobs", "s3cret", spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var js JobStatus
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	if loc := resp.Header.Get("Location"); loc != "/api/v1/jobs/"+js.ID {
		t.Fatalf("Location = %q", loc)
	}

	final := waitJob(t, d, js.ID, 2*time.Minute, func(j JobStatus) bool { return j.State.terminal() })
	if final.State != StateDone || final.Step != 40 {
		t.Fatalf("job ended %s at step %d (err %q), want done at 40", final.State, final.Step, final.Error)
	}
	want := referenceDigest(t, JobSpec{System: "small", Steps: 40, Seed: 7})
	if final.Digest != want {
		t.Fatalf("service digest %s != direct-run digest %s", final.Digest, want)
	}

	// The HTTP view agrees with the in-process view, and the job shows up
	// in the listing.
	resp, body = do("GET", "/api/v1/jobs/"+js.ID, "s3cret", "")
	var got JobStatus
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &got) != nil || got.Digest != want {
		t.Fatalf("GET job: %d %s", resp.StatusCode, body)
	}
	resp, body = do("GET", "/api/v1/jobs", "s3cret", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), js.ID) {
		t.Fatalf("list: %d %s", resp.StatusCode, body)
	}

	// Per-job telemetry: the per-run obs endpoints at job scope.
	for _, ep := range []string{"metrics", "healthz", "trace"} {
		resp, body := do("GET", "/api/v1/jobs/"+js.ID+"/"+ep, "s3cret", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("job %s endpoint: %d %s", ep, resp.StatusCode, body)
		}
		if ep == "metrics" && !strings.Contains(string(body), "anton_") {
			t.Fatalf("job metrics missing anton_ families: %q", body)
		}
	}
	if resp, _ := do("GET", "/api/v1/jobs/"+js.ID+"/bogus", "s3cret", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bogus endpoint: %d, want 404", resp.StatusCode)
	}
	if resp, _ := do("GET", "/api/v1/jobs/job-999999", "s3cret", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", resp.StatusCode)
	}

	// The limiter charges every authenticated POST (allow runs before the
	// spec decodes), so the bucket is nearly spent; drain the remainder
	// and expect 429 with Retry-After.
	for i := 0; i < 4; i++ {
		resp, _ = do("POST", "/api/v1/jobs", "s3cret", `{"system":"small","steps":0}`)
		if resp.StatusCode == http.StatusTooManyRequests {
			break
		}
	}
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("rate limit: %d (Retry-After %q), want 429", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
}

func TestCancel(t *testing.T) {
	skipShort(t)
	// One worker, so the second job is guaranteed to still be queued when
	// we cancel it.
	d := newTestDaemon(t, Config{StateDir: t.TempDir(), Workers: 1})
	running, _, err := d.Submit(JobSpec{System: "small", Steps: 2000, CheckpointEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	queued, _, err := d.Submit(JobSpec{System: "small", Steps: 100})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	defer d.Kill()

	js, err := d.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if js.State != StateCanceled {
		t.Fatalf("queued job after cancel: %s, want canceled", js.State)
	}
	if _, err := d.Cancel(queued.ID); err == nil {
		t.Fatal("canceling a canceled job succeeded")
	}

	// The running job stops at its next chunk boundary, checkpoint kept.
	waitJob(t, d, running.ID, time.Minute, func(j JobStatus) bool { return j.State == StateRunning && j.Step > 0 })
	if _, err := d.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, d, running.ID, time.Minute, func(j JobStatus) bool { return j.State.terminal() })
	if final.State != StateCanceled || final.Step >= 2000 {
		t.Fatalf("running job after cancel: %s at step %d", final.State, final.Step)
	}
	if _, err := os.Stat(d.store.CheckpointPath(running.ID)); err != nil {
		t.Fatalf("canceled job's checkpoint missing: %v", err)
	}
	if _, err := d.Cancel("job-424242"); err == nil {
		t.Fatal("canceling an unknown job succeeded")
	}
}

// TestDaemonKillRestartDurability is the headline contract: kill the
// daemon mid-job (abandoning the in-flight chunk), restart it over the
// same state directory, and the job resumes from its last durable
// checkpoint and finishes with a trajectory bitwise identical to an
// uninterrupted run — audited via the state digest.
func TestDaemonKillRestartDurability(t *testing.T) {
	skipShort(t)
	dir := t.TempDir()
	spec := JobSpec{System: "small", Steps: 120, Shards: 4, CheckpointEvery: 10, Seed: 5}

	d1 := newTestDaemon(t, Config{StateDir: dir, Workers: 1})
	js, _, err := d1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	d1.Start()
	// Let it make real progress past a few checkpoint boundaries, then
	// kill it abruptly — no drain, no final persist.
	waitJob(t, d1, js.ID, 2*time.Minute, func(j JobStatus) bool { return j.Step >= 30 })
	d1.Kill()

	onDisk, ok := d1.Job(js.ID)
	if !ok {
		t.Fatal("job vanished after kill")
	}
	if onDisk.State != StateRunning {
		t.Fatalf("killed job is %s on disk, want running (that is what recovery re-queues)", onDisk.State)
	}
	if onDisk.Step < 30 || onDisk.Step >= spec.Steps {
		t.Fatalf("killed at step %d, outside [30, %d)", onDisk.Step, spec.Steps)
	}

	// The record a pre-removal daemon left behind still names the retired
	// "overlap" spec field; the recovery scan must keep loading it.
	statusPath := filepath.Join(dir, "jobs", js.ID, "status.json")
	b, err := os.ReadFile(statusPath)
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]json.RawMessage
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatal(err)
	}
	rec["spec"] = append([]byte(`{"overlap":"on",`), bytes.TrimSpace(rec["spec"])[1:]...)
	if b, err = json.Marshal(rec); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(statusPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart over the same state directory: recovery re-queues, the
	// worker resumes from the checkpoint, and the job runs to completion.
	d2 := newTestDaemon(t, Config{StateDir: dir, Workers: 1})
	if got, _ := d2.Job(js.ID); got.State != StateQueued {
		t.Fatalf("recovered job is %s, want queued", got.State)
	}
	d2.Start()
	defer d2.Kill()
	final := waitJob(t, d2, js.ID, 5*time.Minute, func(j JobStatus) bool { return j.State.terminal() })
	if final.State != StateDone {
		t.Fatalf("resumed job ended %s (err %q), want done", final.State, final.Error)
	}
	if final.Resumes < 1 || final.ResumedFrom < 0 {
		t.Fatalf("job reports resumes=%d resumed_from=%d, want >=1 and >=0", final.Resumes, final.ResumedFrom)
	}
	if final.Step != spec.Steps {
		t.Fatalf("resumed job stopped at step %d, want %d", final.Step, spec.Steps)
	}

	want := referenceDigest(t, spec)
	if final.Digest != want {
		t.Fatalf("interrupted+resumed digest %s != uninterrupted reference %s", final.Digest, want)
	}
}

// TestGracefulStopPersistsBoundary: a drained (not killed) daemon
// flushes a checkpoint at the chunk boundary it stops on, and the next
// daemon resumes from exactly there.
func TestGracefulStopPersistsBoundary(t *testing.T) {
	skipShort(t)
	dir := t.TempDir()
	spec := JobSpec{System: "small", Steps: 80, CheckpointEvery: 10}

	d1 := newTestDaemon(t, Config{StateDir: dir, Workers: 1})
	js, _, err := d1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	d1.Start()
	waitJob(t, d1, js.ID, 2*time.Minute, func(j JobStatus) bool { return j.Step >= 20 })
	stopCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := d1.Stop(stopCtx); err != nil {
		t.Fatal(err)
	}

	d2 := newTestDaemon(t, Config{StateDir: dir, Workers: 1})
	d2.Start()
	defer d2.Kill()
	final := waitJob(t, d2, js.ID, 5*time.Minute, func(j JobStatus) bool { return j.State.terminal() })
	if final.State != StateDone || final.Resumes < 1 {
		t.Fatalf("drained job ended %s with resumes=%d", final.State, final.Resumes)
	}
	if want := referenceDigest(t, spec); final.Digest != want {
		t.Fatalf("drained+resumed digest %s != reference %s", final.Digest, want)
	}
}

// TestTelemetryRetention: the daemon keeps the telemetry surface of the
// last retainedTelemetry finished jobs and drops older ones, so a long-
// lived daemon's memory does not grow by one rendered trace per job. The
// job records themselves live in the store and are untouched.
func TestTelemetryRetention(t *testing.T) {
	skipShort(t)
	d := newTestDaemon(t, Config{StateDir: t.TempDir(), Workers: 2})
	d.Start()
	var ids []string
	for i := 0; i < retainedTelemetry+3; i++ {
		js, _, err := d.Submit(JobSpec{System: "small", Steps: 2, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		// One at a time, so the order jobs end in is the order submitted.
		if end := waitJob(t, d, js.ID, time.Minute, func(j JobStatus) bool { return j.State.terminal() }); end.State != StateDone {
			t.Fatalf("job %s ended %s: %s", js.ID, end.State, end.Error)
		}
		ids = append(ids, js.ID)
	}
	// Workers exited: every attempt has ended and been retired.
	if err := d.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}

	if keys := d.tset.Keys(); len(keys) > retainedTelemetry {
		t.Errorf("%d telemetry surfaces kept after %d jobs, want at most %d: %v",
			len(keys), len(ids), retainedTelemetry, keys)
	}
	status := func(path string) int {
		rec := httptest.NewRecorder()
		d.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code
	}
	oldest, newest := ids[0], ids[len(ids)-1]
	for _, ep := range []string{"metrics", "healthz", "trace"} {
		if code := status("/api/v1/jobs/" + newest + "/" + ep); code != http.StatusOK {
			t.Errorf("newest job %s: %d, want 200", ep, code)
		}
		if code := status("/api/v1/jobs/" + oldest + "/" + ep); code != http.StatusNotFound {
			t.Errorf("oldest job %s: %d, want 404", ep, code)
		}
	}
	for _, id := range ids {
		if code := status("/api/v1/jobs/" + id); code != http.StatusOK {
			t.Errorf("job %s status: %d, want 200", id, code)
		}
	}
}
