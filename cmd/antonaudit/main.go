// Command antonaudit verifies and replays run ledgers written by
// antonsim (-ledger), antond (per-job run.ledger), or anything else
// using internal/ledger.
//
// Usage:
//
//	antonaudit -ledger run.ledger                verify the hash chain
//	antonaudit -ledger run.ledger -locate 500    nearest checkpoint for replaying to step 500
//	antonaudit -ledger run.ledger -replay 500    re-execute and compare digests
//	antonaudit -ledger run.ledger -replay -1     replay to the last digested step
//
// Verification recomputes every record's line hash, the Prev chain, the
// per-batch Merkle roots and their PrevRoot chain, and the head sidecar;
// any flipped byte in the committed prefix fails with an error naming
// the record (and its batch, via the commit whose root breaks). A
// trailing partial record is reported as a torn tail — the expected
// residue of a crash mid-append, not tampering.
//
// Replay is the strong audit: the genesis record embeds the job spec,
// so the simulation is re-opened through the same service.Run the
// daemon and antonsim drive, restored from the nearest recorded
// checkpoint at or before the target step (the checkpoint file is
// resolved next to the ledger, or under -dir), stepped to the target,
// and its state digest compared bitwise against the one the ledger
// recorded during the original run. Ledgers from chaos campaigns replay
// without re-running the faults: the engine's fault-tolerance contract
// makes the faulted trajectory bitwise identical to the fault-free one,
// which is exactly what a passing replay re-proves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"anton/internal/core"
	"anton/internal/ledger"
	"anton/internal/service"
)

func main() {
	var (
		path   = flag.String("ledger", "", "ledger file to audit (required)")
		locate = flag.Int64("locate", -1, "print the nearest recorded checkpoint at or before this step and exit")
		replay = flag.Int64("replay", 0, "replay the run to this step and compare state digests (-1 = last digested step; 0 = no replay)")
		dir    = flag.String("dir", "", "directory holding the recorded checkpoint files (default: the ledger's directory)")
		quiet  = flag.Bool("q", false, "suppress the per-kind record summary")
	)
	flag.Parse()
	if *path == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *dir == "" {
		*dir = filepath.Dir(*path)
	}

	rep, err := ledger.VerifyFile(*path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "antonaudit: FAIL: %v\n", err)
		os.Exit(1)
	}
	recs, err := ledger.ReadFile(*path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "antonaudit: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("chain OK: %d records, %d commits (%d committed, %d uncommitted)\n",
		rep.Records, rep.Commits, rep.Committed, rep.Pending)
	if rep.TornTail {
		fmt.Println("torn tail: the file ends in a partial record (crash mid-append); committed prefix intact")
	}
	if rep.TipRoot != "" {
		fmt.Printf("tip root: %s\n", rep.TipRoot)
	}
	if g, ok := ledger.GenesisOf(recs); ok && !*quiet {
		fmt.Printf("genesis: system %s, %d atoms, config fingerprint %s\n",
			g.System, g.Atoms, g.Fingerprint)
	}
	if !*quiet {
		byKind := map[ledger.Kind]int{}
		for _, r := range recs {
			byKind[r.Kind]++
		}
		for _, k := range []ledger.Kind{
			ledger.KindDigest, ledger.KindCheckpoint, ledger.KindFaults,
			ledger.KindRecovery, ledger.KindAlert, ledger.KindResume,
		} {
			if n := byKind[k]; n > 0 {
				fmt.Printf("  %-10s %d\n", k, n)
			}
		}
	}

	if *locate >= 0 {
		ck, ok := ledger.CheckpointAt(recs, *locate)
		if !ok {
			fmt.Fprintf(os.Stderr, "antonaudit: no checkpoint recorded at or before step %d\n", *locate)
			os.Exit(1)
		}
		fmt.Printf("nearest checkpoint for step %d: %s (step %d, crc %#08x, digest %s)\n",
			*locate, filepath.Join(*dir, ck.Checkpoint.File), ck.Step,
			ck.Checkpoint.CRC, ck.Checkpoint.Digest)
		return
	}

	if *replay != 0 {
		if err := replayAudit(recs, *replay, *dir); err != nil {
			fmt.Fprintf(os.Stderr, "antonaudit: replay FAIL: %v\n", err)
			os.Exit(1)
		}
	}
}

// replayAudit rebuilds the run from the genesis spec, restores the
// nearest recorded checkpoint, re-integrates to the target step, and
// compares the state digest bitwise against the ledgered one.
func replayAudit(recs []ledger.Record, target int64, dir string) error {
	g, ok := ledger.GenesisOf(recs)
	if !ok {
		return fmt.Errorf("ledger has no genesis record")
	}
	if len(g.Spec) == 0 {
		return fmt.Errorf("genesis record carries no job spec; cannot rebuild the run")
	}
	if target < 0 {
		steps := ledger.DigestSteps(recs)
		if len(steps) == 0 {
			return fmt.Errorf("ledger records no digests to replay to")
		}
		target = steps[len(steps)-1]
	}
	want, ok := ledger.DigestAt(recs, target)
	if !ok {
		return fmt.Errorf("no digest recorded at step %d (recorded steps: %v)",
			target, ledger.DigestSteps(recs))
	}

	var spec service.JobSpec
	if err := json.Unmarshal(g.Spec, &spec); err != nil {
		return fmt.Errorf("decoding genesis spec: %w", err)
	}
	spec.Chaos = "" // the faulted trajectory is bitwise the fault-free one; replay proves it
	// The hash chain can be forged, so the genesis spec is untrusted input:
	// it passes the daemon's submit rules before anything is built. An
	// honest spec was normalized at submission and does not change.
	if err := spec.Normalize(); err != nil {
		return fmt.Errorf("genesis spec: %w", err)
	}

	ckptPath, from := "", int64(0)
	ck, restored := ledger.CheckpointAt(recs, target)
	if restored {
		ckptPath, from = filepath.Join(dir, ck.Checkpoint.File), ck.Step
		if crc, err := core.CheckpointFileCRC(ckptPath); err != nil {
			return fmt.Errorf("checkpoint %s: %w", ckptPath, err)
		} else if crc != ck.Checkpoint.CRC {
			return fmt.Errorf("checkpoint %s: crc %#08x on disk, ledger recorded %#08x",
				ckptPath, crc, ck.Checkpoint.CRC)
		}
		if from > target {
			return fmt.Errorf("checkpoint step %d is past the target %d", from, target)
		}
	}
	r, err := service.OpenRun(spec, ckptPath, "", "", nil, nil)
	if err != nil {
		return err
	}
	defer r.Close()
	if fp := r.Eng.FingerprintHex(); g.Fingerprint != "" && fp != g.Fingerprint {
		return fmt.Errorf("rebuilt engine fingerprint %s, ledger recorded %s", fp, g.Fingerprint)
	}
	if restored {
		if got := fmt.Sprintf("%016x", r.Eng.StateDigest()); ck.Checkpoint.Digest != "" && got != ck.Checkpoint.Digest {
			return fmt.Errorf("restored digest %s at step %d, checkpoint record says %s",
				got, from, ck.Checkpoint.Digest)
		}
		fmt.Printf("restored %s at step %d\n", ckptPath, from)
	} else {
		fmt.Println("no checkpoint at or before the target; replaying from step 0")
	}

	fmt.Printf("re-integrating %d steps (%d -> %d)...\n", target-from, from, target)
	if err := r.Advance(int(target - from)); err != nil {
		return err
	}
	got := fmt.Sprintf("%016x", r.Eng.StateDigest())
	if got != want {
		return fmt.Errorf("digest at step %d = %s, ledger recorded %s — trajectories diverge",
			target, got, want)
	}
	fmt.Printf("replay OK: digest %s at step %d matches the ledger bitwise\n", got, target)
	return nil
}
