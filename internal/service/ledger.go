package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"

	"anton/internal/core"
	"anton/internal/ledger"
)

// Per-job run ledgers. Each job directory carries run.ledger next to
// status.json and job.ckpt: the hash-chained, Merkle-batched provenance
// record of everything that happened to the trajectory — config
// fingerprint, cadenced state digests, checkpoint writes, fault
// campaigns, recoveries, health alerts, resumes. antonaudit verifies
// and replays it offline; GET /api/v1/jobs/{id}/ledger serves it.

// LedgerPath returns the job's run-ledger file path.
func (st *Store) LedgerPath(id string) string {
	return filepath.Join(st.Dir(id), "run.ledger")
}

// LedgerPath exposes the job's run-ledger file path on the daemon, for
// audit tooling that verifies ledgers out-of-band (antonaudit, the
// benchmark's correctness gate).
func (d *Daemon) LedgerPath(id string) string { return d.store.LedgerPath(id) }

// openJobLedger opens the job's provenance chain. A fresh job creates
// the ledger and writes its genesis record (the full job spec, the
// engine's config fingerprint, and the system identity — everything a
// replay audit needs to rebuild the run). A resumed job re-opens the
// existing chain, which audits it end to end first: tampering or
// corruption in the committed prefix is a hard error, because extending
// an untrustworthy history would launder it. The resume is itself
// ledgered.
func (d *Daemon) openJobLedger(js *JobStatus, eng *core.Engine, resumed bool) (*ledger.Writer, error) {
	path := d.store.LedgerPath(js.ID)
	if resumed {
		if _, err := os.Stat(path); err == nil {
			lw, err := ledger.Open(path, ledger.Options{FS: d.fs})
			if err != nil {
				return nil, fmt.Errorf("audit on resume: %w", err)
			}
			if err := lw.AppendResume(js.ResumedFrom, js.Resumes); err != nil {
				lw.Close()
				return nil, err
			}
			d.log.Info("ledger audited on resume", "job", js.ID, "step", js.ResumedFrom)
			return lw, nil
		}
		// A checkpoint without a ledger: a job from before provenance
		// existed. Start the chain now rather than failing history.
	}
	lw, err := ledger.Create(path, ledger.Options{FS: d.fs})
	if err != nil {
		return nil, err
	}
	spec, err := json.Marshal(js.Spec)
	if err != nil {
		lw.Close()
		return nil, err
	}
	g := ledger.Genesis{
		Spec:        spec,
		Fingerprint: eng.FingerprintHex(),
		System:      js.Spec.System,
		Atoms:       eng.Sys.NAtoms(),
	}
	if err := lw.AppendGenesis(g); err != nil {
		lw.Close()
		return nil, err
	}
	if resumed {
		if err := lw.AppendResume(js.ResumedFrom, js.Resumes); err != nil {
			lw.Close()
			return nil, err
		}
	}
	return lw, nil
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
