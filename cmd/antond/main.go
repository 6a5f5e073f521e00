// Command antond is the multi-tenant Anton simulation daemon: a
// long-lived HTTP/JSON service that accepts simulation jobs, runs them
// through a prioritized queue and a bounded worker pool of (optionally
// sharded) engines, and keeps every job durable — specs, status and
// periodic checkpoints live under the state directory, and a restarted
// daemon resumes every interrupted job from its checkpoint with a
// bitwise-identical trajectory.
//
// Usage:
//
//	antond -listen localhost:8780 -state antond-state
//	antond -listen localhost:8780 -state antond-state -tokens s3cret -rate 30
//	antond -queue-max 64 -job-deadline 1h -job-retries 5 -stall-after 2m
//
// Submit and watch a job:
//
//	curl -s -XPOST -H 'Authorization: Bearer s3cret' localhost:8780/api/v1/jobs \
//	    -d '{"system":"small","steps":500,"shards":8}'
//	curl -s -H 'Authorization: Bearer s3cret' localhost:8780/api/v1/jobs/job-000001
//	curl -s -H 'Authorization: Bearer s3cret' localhost:8780/api/v1/jobs/job-000001/healthz
//
// SIGINT/SIGTERM drain gracefully: running jobs flush a checkpoint at
// their next chunk boundary, the HTTP listener closes, and every
// interrupted job is re-queued and resumed by the next daemon over the
// same -state directory.
package main

import (
	"context"
	"flag"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"anton/internal/faults"
	"anton/internal/obs"
	"anton/internal/service"
)

func main() {
	var (
		listen    = flag.String("listen", "localhost:8780", "HTTP listen address")
		stateDir  = flag.String("state", "antond-state", "durable job state directory")
		workers   = flag.Int("workers", 2, "concurrent simulation jobs")
		tokens    = flag.String("tokens", "", "comma-separated bearer tokens (empty = open access)")
		rate      = flag.Float64("rate", 0, "job submissions per token per minute (0 = unlimited)")
		burst     = flag.Int("burst", 5, "submission burst allowance per token")
		queueMax  = flag.Int("queue-max", 0, "admission control: max queued jobs before submissions are shed with 429 (0 = unbounded)")
		deadline  = flag.Duration("job-deadline", 0, "per-job wall-clock deadline; an overrunning job fails permanently (0 = none)")
		retries   = flag.Int("job-retries", 5, "consecutive retryable failures before a job is quarantined as failed_poisoned")
		stall     = flag.Duration("stall-after", 0, "alert when a running job makes no checkpoint progress for this long (0 = off)")
		chaos     = flag.String("storage-chaos", "", "storage fault-injection spec, e.g. 'seed=1,enospc=0.01,torn=0.01' (testing only)")
		drainFor  = flag.Duration("drain", 30*time.Second, "graceful shutdown budget")
		logFormat = flag.String("log", "text", "log format: text or json")
		verbose   = flag.Bool("v", false, "debug-level logging")
	)
	flag.Parse()
	logger := obs.NewLogger(os.Stderr, *logFormat, *verbose)

	var toks []string
	for _, t := range strings.Split(*tokens, ",") {
		if t = strings.TrimSpace(t); t != "" {
			toks = append(toks, t)
		}
	}
	if len(toks) == 0 {
		logger.Warn("no -tokens configured; the API is open to anyone who can reach it")
	}

	var storage *faults.FS // nil: plain I/O
	if *chaos != "" {
		spec, err := faults.ParseFSSpec(*chaos)
		if err != nil {
			logger.Error("parsing -storage-chaos", "err", err)
			os.Exit(1)
		}
		logger.Warn("storage fault injection enabled; this daemon is hostile to its own disk", "spec", *chaos)
		storage = faults.NewFS(spec)
	}

	d, err := service.New(service.Config{
		StateDir:    *stateDir,
		Workers:     *workers,
		Tokens:      toks,
		RatePerMin:  *rate,
		Burst:       *burst,
		QueueMax:    *queueMax,
		JobDeadline: *deadline,
		JobRetries:  *retries,
		StallAfter:  *stall,
		StorageFS:   storage,
		Logger:      logger,
	})
	if err != nil {
		logger.Error("starting daemon", "err", err)
		os.Exit(1)
	}
	d.Start()

	srv := &http.Server{Addr: *listen, Handler: d.Handler()}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("antond listening", "addr", *listen, "state", *stateDir,
			"workers", *workers, "auth", len(toks) > 0)
		errCh <- srv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		logger.Info("signal received, draining", "budget", *drainFor)
	case err := <-errCh:
		logger.Error("http server", "err", err)
		os.Exit(1)
	}

	// Drain order: stop accepting HTTP first (no new submissions), then
	// drain the workers (each flushes a checkpoint at its next chunk
	// boundary). A second signal aborts the drain the usual way.
	dctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		logger.Error("http shutdown", "err", err)
	}
	if err := d.Stop(dctx); err != nil {
		logger.Error("daemon drain", "err", err)
		os.Exit(1)
	}
	logger.Info("drained; interrupted jobs will resume on next start")
}
