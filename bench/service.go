package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"anton/internal/ledger"
	"anton/internal/service"
)

const (
	serviceClients = 2 // closed loop: each client waits for its job before sending the next
	serviceWorkers = 2
	jobCheckpoint  = 10
	jobShards      = 8 // every second job of a client runs sharded
	pollEvery      = 20 * time.Millisecond
	// setupPoll is the finer poll of the set-up job, so that setup_s is
	// not quantized to pollEvery.
	setupPoll = 2 * time.Millisecond
)

// jobSteps is the length of every job of the loop. bench_test.go
// shortens it (and golden.json's job digests then do not apply).
var jobSteps = 80

// svc is an in-process antond behind an HTTP test server, on a fresh
// state directory inside the checkout.
type svc struct {
	dir    string
	daemon *service.Daemon
	server *httptest.Server
}

func newService(rc runConfig) (*svc, error) {
	dir, err := os.MkdirTemp(rc.outDir(), "state-")
	if err != nil {
		return nil, err
	}
	d, err := service.New(service.Config{
		StateDir: dir,
		Workers:  serviceWorkers,
		Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d.Start()
	return &svc{dir: dir, daemon: d, server: httptest.NewServer(d.Handler())}, nil
}

func (s *svc) close() error {
	s.server.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.daemon.Stop(ctx)
	if rmErr := os.RemoveAll(s.dir); err == nil {
		err = rmErr
	}
	return err
}

// jobRun is one job as its client saw it.
type jobRun struct {
	client     int
	spec       service.JobSpec
	status     service.JobStatus
	posted     time.Time // POST sent
	accepted   time.Time // POST answered
	done       time.Time // terminal state observed
	refusedErr error     // the submit was not accepted
}

func (j jobRun) turnaround() time.Duration { return j.done.Sub(j.posted) }

// runJob submits spec by HTTP POST and polls GET until the job is
// terminal. A refused submit is a failed job, not a harness error.
func (s *svc) runJob(client int, spec service.JobSpec, poll time.Duration) (jobRun, error) {
	j := jobRun{client: client, spec: spec}
	body, err := json.Marshal(spec)
	if err != nil {
		return j, err
	}
	hc := s.server.Client()
	j.posted = time.Now()
	resp, err := hc.Post(s.server.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return j, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	j.accepted = time.Now()
	if err != nil {
		return j, err
	}
	if resp.StatusCode != http.StatusCreated {
		j.done = j.accepted
		j.refusedErr = fmt.Errorf("submit answered %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		return j, nil
	}
	if err := json.Unmarshal(raw, &j.status); err != nil {
		return j, err
	}
	for !j.status.State.Terminal() {
		time.Sleep(poll)
		resp, err := hc.Get(s.server.URL + "/api/v1/jobs/" + j.status.ID)
		if err != nil {
			return j, err
		}
		err = json.NewDecoder(resp.Body).Decode(&j.status)
		resp.Body.Close()
		if err != nil {
			return j, err
		}
	}
	j.done = time.Now()
	return j, nil
}

func jobSpec(seed int64, shards, steps int) service.JobSpec {
	return service.JobSpec{System: "small", Steps: steps, Seed: seed, Shards: shards, CheckpointEvery: jobCheckpoint}
}

// directRun builds spec's simulation the way a worker does and steps it
// without the service around it, returning its final digest.
func directRun(spec service.JobSpec) (string, error) {
	if err := spec.Normalize(); err != nil {
		return "", err
	}
	sim, _, sh, err := service.BuildSim(spec)
	if err != nil {
		return "", err
	}
	if sh != nil {
		defer sh.Close()
	}
	sim.Step(spec.Steps)
	return digestHex(sim), nil
}

// traceJob records job → submit/queued/running from the client's clock
// and the status timestamps, clamped into the job's own interval.
func traceJob(tr *tracer, parent *span, j jobRun) {
	if tr == nil {
		return
	}
	js := tr.add("job", parent, j.client+2, j.posted, j.done)
	tr.add("submit", js, 0, j.posted, j.accepted)
	clamp := func(t time.Time) time.Time {
		if t.Before(j.accepted) {
			return j.accepted
		}
		if t.After(j.done) {
			return j.done
		}
		return t
	}
	if !j.status.StartedAt.IsZero() && !j.status.FinishedAt.IsZero() {
		started := clamp(j.status.StartedAt)
		tr.add("queued", js, 0, j.accepted, started)
		tr.add("running", js, 0, started, clamp(j.status.FinishedAt))
	}
}

func runServiceJobs(rc runConfig, rep *report, root *span) error {
	// Set-up: a fresh daemon on a fresh state directory, through the end
	// of a first one-chunk job (system build, PPIP tables, engine, first
	// force evaluation, first checkpoint and ledger commit).
	var s *svc
	err := repeatSetup(rc, rep, root, func(*span) error {
		if s != nil {
			if err := s.close(); err != nil {
				return err
			}
		}
		var err error
		if s, err = newService(rc); err != nil {
			return err
		}
		first, err := s.runJob(0, jobSpec(rc.Seed, 0, jobCheckpoint), setupPoll)
		if err == nil && first.status.State != service.StateDone {
			err = fmt.Errorf("set-up job ended %q: %v %s", first.status.State, first.refusedErr, first.status.Error)
		}
		return err
	})
	if s != nil {
		defer s.close()
	}
	if err != nil {
		return err
	}

	// The closed loop. Client c's jobs carry seed 1000*seed+c+1 and
	// alternate monolithic / sharded, so a run holds 2*clients specs.
	budget := time.Duration(rc.Seconds * float64(time.Second))
	if rc.Trace {
		budget /= 3
	}
	lsp := rc.tr.begin("closed-loop", root)
	loopStart := time.Now()
	runs := make([][]jobRun, serviceClients)
	errs := make([]error, serviceClients)
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Since(loopStart) < budget || i < 2; i++ {
				j, err := s.runJob(c, jobSpec(1000*rc.Seed+int64(c)+1, (i%2)*jobShards, jobSteps), pollEvery)
				if err != nil {
					errs[c] = err
					return
				}
				traceJob(rc.tr, lsp, j)
				runs[c] = append(runs[c], j)
			}
		}(c)
	}
	wg.Wait()
	loopWall := time.Since(loopStart)
	lsp.end()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Before the direct runs build further engines: the daemon's own memory.
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}

	// Correctness: every job done, with the digest of a direct run of
	// its spec, and a ledger that verifies.
	direct := make(map[string]string) // "seed/shards" -> digest
	var all []jobRun
	for _, r := range runs {
		all = append(all, r...)
	}
	var turnS, perStepMs, submitMs, queueS, runS []float64
	turnByShards := make(map[int][]float64)
	doneSteps := 0
	for _, j := range all {
		key := fmt.Sprintf("%d/%d", j.spec.Seed, j.spec.Shards)
		want, ok := direct[key]
		if !ok {
			var err error
			if want, err = directRun(j.spec); err != nil {
				return err
			}
			direct[key] = want
			if rc.Seed == goldenSeed {
				g := golden[fmt.Sprintf("job:%d", j.spec.Seed)]
				rep.check(want == g, "job spec seed %d shards %d: direct digest %s, golden.json %s", j.spec.Seed, j.spec.Shards, want, g)
			}
		}
		var ledgerErr error
		if j.refusedErr == nil {
			_, ledgerErr = ledger.VerifyFile(s.daemon.LedgerPath(j.status.ID))
		}
		ok = j.refusedErr == nil && j.status.State == service.StateDone && j.status.Digest == want && ledgerErr == nil
		rep.check(ok, "job %s (seed %d shards %d): state %q digest %s, direct run %s, refused: %v, ledger: %v",
			j.status.ID, j.spec.Seed, j.spec.Shards, j.status.State, j.status.Digest, want, j.refusedErr, ledgerErr)
		if !ok {
			continue
		}
		doneSteps += j.spec.Steps
		turnS = append(turnS, j.turnaround().Seconds())
		turnByShards[j.spec.Shards] = append(turnByShards[j.spec.Shards], j.turnaround().Seconds())
		perStepMs = append(perStepMs, ms(j.turnaround())/float64(j.spec.Steps))
		submitMs = append(submitMs, ms(j.accepted.Sub(j.posted)))
		queueS = append(queueS, j.status.StartedAt.Sub(j.status.SubmittedAt).Seconds())
		runS = append(runS, j.status.FinishedAt.Sub(j.status.StartedAt).Seconds())
	}
	if len(turnS) == 0 {
		return fmt.Errorf("no job completed")
	}

	rep.set("step_ms_p50", median(perStepMs), len(perStepMs))
	rep.set("steps_per_s", float64(doneSteps)/loopWall.Seconds(), doneSteps)
	rep.set("job_turnaround_s_p50", median(turnS), len(turnS))
	rep.set("jobs_per_min", float64(len(turnS))/loopWall.Minutes(), len(turnS))
	rep.set("peak_rss_mb", rss, 1)
	for _, shards := range []int{0, jobShards} {
		info(fmt.Sprintf("job_turnaround_s_p50 shards=%d", shards), median(turnByShards[shards]), "s")
	}

	if rc.Trace {
		rep.set("service.submit_ms_p50", median(submitMs), len(submitMs))
		rep.set("service.queue_wait_s_p50", median(queueS), len(queueS))
		rep.set("service.run_s_p50", median(runS), len(runS))
		if err := probeRunOverhead(rc, rep, root, s); err != nil {
			return err
		}
		if err := probeLedger(rc, rep, root); err != nil {
			return err
		}
	}
	return nil
}

// probeRunOverhead runs one client alone, so nothing contends with the
// job, and compares the job's running time to a direct BuildSim + Step
// of the same spec: what store, checkpoint, ledger and telemetry add.
func probeRunOverhead(rc runConfig, rep *report, root *span, s *svc) error {
	sp := rc.tr.begin("probe:run-overhead", root)
	defer sp.end()
	spec := jobSpec(1000*rc.Seed+1, 0, jobSteps)
	n := rc.scaled(6, 1)
	var inService, direct []float64
	for i := 0; i < n; i++ {
		j, err := s.runJob(0, spec, pollEvery)
		if err != nil {
			return err
		}
		if j.status.State != service.StateDone {
			return fmt.Errorf("overhead job ended %q: %v %s", j.status.State, j.refusedErr, j.status.Error)
		}
		traceJob(rc.tr, sp, j)
		inService = append(inService, j.status.FinishedAt.Sub(j.status.StartedAt).Seconds())
		t0 := time.Now()
		dsp := rc.tr.begin("direct-run", sp)
		_, err = directRun(spec)
		dsp.end()
		if err != nil {
			return err
		}
		direct = append(direct, time.Since(t0).Seconds())
	}
	rep.set("service.run_overhead_pct", 100*(median(inService)-median(direct))/median(direct), n)
	return nil
}
