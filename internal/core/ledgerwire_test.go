package core

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"anton/internal/faults"
	"anton/internal/ledger"
	"anton/internal/obs"
)

func newTestLedger(t *testing.T, batch int) (*ledger.Writer, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.ledger")
	w, err := ledger.Create(path, ledger.Options{Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w, path
}

// TestLedgerZeroPerturbation is the tap's acceptance contract: attaching
// a run ledger must not change a single bit of the trajectory. 120 steps
// cross ~30 migrations and many long-range refreshes on both the
// monolithic and the sharded engine, so every code path the tap hooks
// executes with the ledger present.
func TestLedgerZeroPerturbation(t *testing.T) {
	const steps = 120
	plain := smallWaterEngine(t, 8, nil)
	plain.Step(steps)
	pp, vp := plain.Snapshot()

	// Monolithic engine with a ledger attached.
	tapped := smallWaterEngine(t, 8, nil)
	w, path := newTestLedger(t, 16)
	AttachLedger(tapped, w)
	tapped.Step(steps)
	po, vo := tapped.Snapshot()
	for i := range pp {
		if pp[i] != po[i] || vp[i] != vo[i] {
			t.Fatalf("ledger tap perturbed the monolithic trajectory at atom %d", i)
		}
	}
	if tapped.Stats.Migrations < 2 {
		t.Fatalf("run crossed only %d migrations", tapped.Stats.Migrations)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The ledger itself must audit clean and carry the cadenced digests.
	rep, err := ledger.VerifyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TornTail {
		t.Fatal("cleanly closed ledger reports a torn tail")
	}
	recs, err := ledger.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%016x", tapped.StateDigest())
	got, ok := ledger.DigestAt(recs, steps)
	if !ok || got != want {
		t.Fatalf("ledger digest at step %d = %q ok=%v, engine says %q", steps, got, ok, want)
	}
	if n := len(ledger.DigestSteps(recs)); n != steps/auditCadence(tapped) {
		t.Fatalf("recorded %d digest steps, want %d", n, steps/auditCadence(tapped))
	}

	// Sharded engine with a ledger attached: same contract.
	sh := smallWaterSharded(t, 8, nil)
	ws, _ := newTestLedger(t, 16)
	AttachLedger(sh.E, ws)
	sh.Step(steps)
	ps, vs := sh.Snapshot()
	for i := range pp {
		if pp[i] != ps[i] || vp[i] != vs[i] {
			t.Fatalf("ledger tap perturbed the sharded trajectory at atom %d", i)
		}
	}
	if err := ws.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerTapCadenceRounding: the ledger tap records digests on the
// audit cadence, 10 steps rounded up to the MTS interval — on an engine
// refreshing long-range forces every 3 steps, at step 12 and then at every
// multiple of 12. TestWatchCadenceValidation checks the watch shares it.
func TestLedgerTapCadenceRounding(t *testing.T) {
	e := smallWaterEngine(t, 1, func(c *Config) { c.MTSInterval = 3 })
	w, path := newTestLedger(t, 1)
	AttachLedger(e, w)
	e.Step(48)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ledger.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ledger.DigestSteps(recs), []int64{12, 24, 36, 48}; !slices.Equal(got, want) {
		t.Fatalf("digests at steps %v, want %v", got, want)
	}
}

// TestLedgerTapCounters: the tap folds the writer's volume counters into
// the engine's obs recorder, so /metrics exposes ledger throughput
// without the scraper touching the file.
func TestLedgerTapCounters(t *testing.T) {
	e := smallWaterEngine(t, 4, nil)
	rec := obs.NewRecorder()
	e.Observe(rec)
	w, _ := newTestLedger(t, 4)
	AttachLedger(e, w)
	e.Step(40)

	st := w.Stats()
	if st.Records == 0 || st.Commits == 0 {
		t.Fatalf("writer recorded nothing: %+v", st)
	}
	snap := rec.Snapshot()
	if got := snap.Counters[obs.CtrLedgerRecords].Value; got != st.Records {
		t.Fatalf("CtrLedgerRecords = %d, writer says %d", got, st.Records)
	}
	if got := snap.Counters[obs.CtrLedgerCommits].Value; got != st.Commits {
		t.Fatalf("CtrLedgerCommits = %d, writer says %d", got, st.Commits)
	}
	if got := snap.Counters[obs.CtrLedgerBytes].Value; got != st.Bytes {
		t.Fatalf("CtrLedgerBytes = %d, writer says %d", got, st.Bytes)
	}
}

// TestLedgerChaosReplayAudit is the provenance acceptance criterion: a
// sharded run under a full-mix fault campaign (drops, dups, delays,
// corruption, stalls, a crash with checkpoint rollback) produces a
// ledger that (a) verifies clean — including the replay-consistency
// rule, since rollback recovery re-executes steps and re-appends their
// digests — and (b) supports replay audit: restoring the nearest
// recorded checkpoint and re-integrating to a digested step reproduces
// the recorded digest bitwise.
func TestLedgerChaosReplayAudit(t *testing.T) {
	skipShort(t)
	const steps = 120
	const chunk = 30

	sh := smallWaterSharded(t, 8, nil)
	plane := faults.New(chaosSpec(t, 1), sh.Shards())
	if err := sh.EnableFaults(chaosConfig(plane)); err != nil {
		t.Fatal(err)
	}

	w, path := newTestLedger(t, 8)
	tap := AttachLedger(sh.E, w)
	dir := t.TempDir()
	for s := 0; s < steps; s += chunk {
		sh.Step(chunk)
		ckpt := filepath.Join(dir, fmt.Sprintf("step%d.ckpt", s+chunk))
		if err := sh.WriteCheckpointFile(ckpt); err != nil {
			t.Fatal(err)
		}
		if err := tap.RecordCheckpoint(ckpt); err != nil {
			t.Fatal(err)
		}
	}
	if err := sh.Err(); err != nil {
		t.Fatal(err)
	}
	if got := sh.FaultReport().Injected.CrashesFired; got != 1 {
		t.Fatalf("campaign fired %d crashes, want 1", got)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// (a) The chain verifies, replayed duplicate digests and all.
	rep, err := ledger.VerifyFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Committed == 0 {
		t.Fatal("no committed records")
	}
	recs, err := ledger.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// (b) Replay audit of the prefix: target a digested step strictly
	// after the first checkpoint, restore the nearest checkpoint at or
	// before it into a fresh engine, integrate the gap, and demand the
	// recorded digest bitwise.
	const target = 100
	wantDigest, ok := ledger.DigestAt(recs, target)
	if !ok {
		t.Fatalf("no digest recorded at step %d", target)
	}
	ck, ok := ledger.CheckpointAt(recs, target)
	if !ok {
		t.Fatalf("no checkpoint at or before step %d", target)
	}
	if ck.Step >= target || ck.Step < chunk {
		t.Fatalf("nearest checkpoint landed at step %d", ck.Step)
	}
	ckptPath := filepath.Join(dir, ck.Checkpoint.File)
	if crc, err := CheckpointFileCRC(ckptPath); err != nil || crc != ck.Checkpoint.CRC {
		t.Fatalf("checkpoint on disk: crc %#x err %v, ledger says %#x", crc, err, ck.Checkpoint.CRC)
	}

	replay := smallWaterEngine(t, 8, nil)
	if err := replay.RestoreCheckpointFile(ckptPath); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%016x", replay.StateDigest()); got != ck.Checkpoint.Digest {
		t.Fatalf("restored digest %s, checkpoint record says %s", got, ck.Checkpoint.Digest)
	}
	replay.Step(int(target - ck.Step))
	if got := fmt.Sprintf("%016x", replay.StateDigest()); got != wantDigest {
		t.Fatalf("replayed digest at step %d = %s, ledger recorded %s", target, got, wantDigest)
	}
}
