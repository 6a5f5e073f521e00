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
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	old := append([]byte(`{"overlap":"on",`), b[1:]...)
	recs, dir := recordLedger(t, spec, old)
	if err := replayAudit(recs, -1, dir); err != nil {
		t.Fatalf("replay of a ledger whose genesis names the retired field: %v", err)
	}
}

// TestReplayRejectsUnnormalizedGenesis: the hash chain can be forged, so
// a genesis spec is untrusted input. A hash-valid ledger of a real
// 1024-node run (over service.MaxNodes, so no daemon would accept it)
// must be refused before anything is built.
func TestReplayRejectsUnnormalizedGenesis(t *testing.T) {
	spec := service.JobSpec{System: "small", Steps: 10}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	spec.Nodes = 2 * service.MaxNodes
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	recs, dir := recordLedger(t, spec, b)
	if err := replayAudit(recs, -1, dir); err == nil {
		t.Fatalf("replay accepted a genesis spec naming %d nodes", spec.Nodes)
	}
}

// recordLedger runs spec with a ledger tap attached, under a genesis
// record that carries genesisSpec and the engine's fingerprint, and
// returns the verified records and the ledger's directory.
func recordLedger(t *testing.T, spec service.JobSpec, genesisSpec []byte) ([]ledger.Record, string) {
	t.Helper()
	sim, eng, sh, err := service.BuildSim(spec)
	if err != nil {
		t.Fatal(err)
	}
	if sh != nil {
		defer sh.Close()
	}

	path := filepath.Join(t.TempDir(), "run.ledger")
	lw, err := ledger.Create(path, ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := lw.AppendGenesis(ledger.Genesis{Spec: genesisSpec, Fingerprint: eng.FingerprintHex()}); err != nil {
		t.Fatal(err)
	}
	core.AttachLedger(eng, lw)
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
	return recs, filepath.Dir(path)
}
