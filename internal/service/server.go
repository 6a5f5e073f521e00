package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
)

// Handler returns the daemon's HTTP API:
//
//	POST   /api/v1/jobs                  submit a job (auth + rate limit)
//	GET    /api/v1/jobs                  list jobs
//	GET    /api/v1/jobs/{id}             one job's status
//	DELETE /api/v1/jobs/{id}             cancel a job
//	GET    /api/v1/jobs/{id}/metrics     per-job Prometheus metrics
//	GET    /api/v1/jobs/{id}/healthz     per-job watchdog status
//	GET    /api/v1/jobs/{id}/trace       per-job Chrome trace JSON
//	GET    /api/v1/jobs/{id}/ledger      per-job run ledger (JSON lines)
//	GET    /healthz                      daemon health (unauthenticated)
//	GET    /metrics                      daemon metrics (unauthenticated)
//
// The per-job telemetry routes are the per-run obs.Telemetry endpoints
// lifted to job scope: the same families, rendered from each job's
// published copies via the TelemetrySet.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", d.authed(d.handleSubmit))
	mux.HandleFunc("GET /api/v1/jobs", d.authed(d.handleList))
	mux.HandleFunc("GET /api/v1/jobs/{id}", d.authed(d.handleGet))
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", d.authed(d.handleCancel))
	mux.HandleFunc("GET /api/v1/jobs/{id}/{endpoint}", d.authed(d.handleJobTelemetry))
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	mux.HandleFunc("GET /metrics", d.handleMetrics)
	return mux
}

// authed wraps a handler with bearer-token authentication.
func (d *Daemon) authed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if _, ok := d.auth.authenticate(r); !ok {
			w.Header().Set("WWW-Authenticate", "Bearer")
			writeErr(w, http.StatusUnauthorized, "missing or invalid token")
			return
		}
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Rate limit per token (or globally in open mode): submissions are
	// the expensive operation — each one is a whole simulation.
	tok, _ := d.auth.authenticate(r)
	if !d.auth.allow(tok) {
		w.Header().Set("Retry-After", "60")
		writeErr(w, http.StatusTooManyRequests, "submission rate limit exceeded")
		return
	}
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding job spec: %v", err)
		return
	}
	// The standard header is an alternative spelling of the spec field;
	// the body wins when both are present.
	if spec.IdempotencyKey == "" {
		spec.IdempotencyKey = r.Header.Get("Idempotency-Key")
	}
	js, created, err := d.Submit(spec)
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			// Admission control, not failure: the bounded queue is at
			// capacity. Retry-After is advisory — roughly one checkpoint
			// cadence, long enough for a worker to free a slot.
			w.Header().Set("Retry-After", "5")
			writeErr(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Location", "/api/v1/jobs/"+js.ID)
	if !created {
		// Idempotent replay: the original job, not a new one.
		writeJSON(w, http.StatusOK, js)
		return
	}
	writeJSON(w, http.StatusCreated, js)
}

func (d *Daemon) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, d.Jobs())
}

func (d *Daemon) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	js, ok := d.Job(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job %s", id)
		return
	}
	writeJSON(w, http.StatusOK, js)
}

func (d *Daemon) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	js, err := d.Cancel(id)
	if err != nil {
		code := http.StatusConflict
		if js.ID == "" {
			code = http.StatusNotFound
		}
		writeErr(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, js)
}

func (d *Daemon) handleJobTelemetry(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := d.Job(id); !ok {
		writeErr(w, http.StatusNotFound, "no such job %s", id)
		return
	}
	if r.PathValue("endpoint") == "ledger" {
		d.serveLedger(w, id)
		return
	}
	d.tset.ServeEndpoint(w, r, id, r.PathValue("endpoint"))
}

func (d *Daemon) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	counts := d.store.Counts()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"queued":      counts[StateQueued],
		"running":     counts[StateRunning],
		"done":        counts[StateDone],
		"failed":      counts[StateFailed],
		"quarantined": counts[StateQuarantined],
		"workers":     d.cfg.Workers,
	})
}

func (d *Daemon) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	d.writeDaemonMetrics(w)
}

// serveLedger streams the job's raw ledger file (JSON lines). The bytes
// are the provenance artifact itself — clients run antonaudit against
// exactly what this endpoint returns, so it is served verbatim, not
// re-rendered.
func (d *Daemon) serveLedger(w http.ResponseWriter, id string) {
	f, err := os.Open(d.store.LedgerPath(id))
	if err != nil {
		writeErr(w, http.StatusNotFound, "job %s has no ledger", id)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	if _, err := io.Copy(w, f); err != nil {
		d.log.Error("serve ledger", "job", id, "err", err)
	}
}
