package main

import (
	"encoding/json"
	"path/filepath"
	"testing"

	"anton/internal/core"
	"anton/internal/ledger"
	"anton/internal/service"
)

// TestReplayOldGenesisSpec: a ledger written before the "overlap" job-spec
// field was retired still carries it in the genesis spec. The replay
// decoder is lenient on purpose — the audit must keep rebuilding such runs
// and land on the ledgered digest bitwise.
func TestReplayOldGenesisSpec(t *testing.T) {
	spec := service.JobSpec{System: "small", Steps: 20, Shards: 8}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	sim, eng, sh, err := service.BuildSim(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	old := append([]byte(`{"overlap":"on",`), b[1:]...)

	path := filepath.Join(t.TempDir(), "run.ledger")
	lw, err := ledger.Create(path, ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := lw.AppendGenesis(ledger.Genesis{Spec: old, Fingerprint: eng.FingerprintHex()}); err != nil {
		t.Fatal(err)
	}
	core.AttachLedger(eng, lw, 0)
	sim.Step(spec.Steps)
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := ledger.VerifyFile(path); err != nil {
		t.Fatal(err)
	}
	recs, err := ledger.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := replayAudit(recs, -1, filepath.Dir(path)); err != nil {
		t.Fatalf("replay of a ledger whose genesis names the retired field: %v", err)
	}
}
