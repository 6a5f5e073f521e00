package service

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"anton/internal/core"
	"anton/internal/ledger"
)

// TestRunLedgerLifecycle pins what a run writes into its provenance
// chain, whoever drives it: the genesis names the spec's system, every
// resume is recorded with the restored step and the chain's running
// count (also when the ledger file did not survive), each Persist ends
// the chain on the checkpoint record and its commit, and the chain
// verifies after every leg.
func TestRunLedgerLifecycle(t *testing.T) {
	type leg struct {
		to         int  // step target of this leg
		resume     bool // open from the checkpoint the previous leg left
		dropLedger bool // delete the ledger file first
	}
	cases := []struct {
		name string
		legs []leg
		want []ledger.Resume // resume records in the final chain
	}{
		{"fresh", []leg{{to: 20}}, nil},
		{"resumed-with-ledger", []leg{{to: 20}, {to: 40, resume: true}},
			[]ledger.Resume{{RestoredStep: 20, Resumes: 1}}},
		{"resumed-without-ledger", []leg{{to: 20}, {to: 40, resume: true, dropLedger: true}},
			[]ledger.Resume{{RestoredStep: 20, Resumes: 1}}},
		{"resumed-twice", []leg{{to: 20}, {to: 30, resume: true}, {to: 40, resume: true}},
			[]ledger.Resume{{RestoredStep: 20, Resumes: 1}, {RestoredStep: 30, Resumes: 2}}},
	}
	spec := JobSpec{System: "small", Steps: 40}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ckpt, path := filepath.Join(dir, "job.ckpt"), filepath.Join(dir, "run.ledger")
			var recs []ledger.Record
			for _, l := range tc.legs {
				if l.dropLedger {
					if err := os.Remove(path); err != nil {
						t.Fatal(err)
					}
				}
				resume := ""
				if l.resume {
					resume = ckpt
				}
				r, err := OpenRun(spec, resume, ckpt, path, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.Advance(l.to - r.Eng.StepCount()); err != nil {
					t.Fatal(err)
				}
				if err := r.Persist(); err != nil {
					t.Fatal(err)
				}
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}

				if _, err := ledger.VerifyFile(path); err != nil {
					t.Fatalf("after the leg to step %d: %v", l.to, err)
				}
				if recs, err = ledger.ReadFile(path); err != nil {
					t.Fatal(err)
				}
				if g, ok := ledger.GenesisOf(recs); !ok || g.System != spec.System {
					t.Fatalf("genesis system %q (ok=%v), want the spec's %q", g.System, ok, spec.System)
				}
				// Persist order: the checkpoint record, then the commit that
				// seals it, are the chain's tail, and describe the file on disk.
				n := len(recs)
				if n < 2 || recs[n-2].Kind != ledger.KindCheckpoint || recs[n-1].Kind != ledger.KindCommit {
					t.Fatalf("chain does not end on checkpoint, commit after Persist at step %d", l.to)
				}
				crc, err := core.CheckpointFileCRC(ckpt)
				if err != nil {
					t.Fatal(err)
				}
				if ck := recs[n-2]; ck.Step != int64(l.to) || ck.Checkpoint.CRC != crc {
					t.Fatalf("checkpoint record step %d crc %#x, file is step %d crc %#x",
						ck.Step, ck.Checkpoint.CRC, l.to, crc)
				}
			}
			var got []ledger.Resume
			for _, rec := range recs {
				if rec.Kind == ledger.KindResume {
					got = append(got, *rec.Resume)
				}
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("resume records %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestRunOpenDamaged: a checkpoint that fails validation and a ledger
// that fails its audit on resume both refuse with ErrDamaged, which is
// what antond's quarantine and antonsim's exit key on; a fresh run over
// the same damaged ledger is not a resume and simply starts a new chain.
func TestRunOpenDamaged(t *testing.T) {
	spec := JobSpec{System: "small", Steps: 20}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ckpt, path := filepath.Join(dir, "job.ckpt"), filepath.Join(dir, "run.ledger")
	r, err := OpenRun(spec, "", ckpt, path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Advance(10); err != nil {
		t.Fatal(err)
	}
	if err := r.Persist(); err != nil {
		t.Fatal(err)
	}
	r.Close()

	flip := func(file string, off int) {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		b[off] ^= 0x40
		if err := os.WriteFile(file, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	flip(path, 40)
	if _, err := OpenRun(spec, ckpt, ckpt, path, nil, nil); !errors.Is(err, ErrDamaged) || !errors.Is(err, ledger.ErrVerify) {
		t.Fatalf("resume over a tampered ledger: %v, want ErrDamaged wrapping ErrVerify", err)
	}
	flip(ckpt, 100)
	if _, err := OpenRun(spec, ckpt, ckpt, "", nil, nil); !errors.Is(err, ErrDamaged) || !errors.Is(err, core.ErrCheckpointCorrupt) {
		t.Fatalf("resume from a flipped checkpoint: %v, want ErrDamaged wrapping ErrCheckpointCorrupt", err)
	}
	r, err = OpenRun(spec, "", ckpt, path, nil, nil)
	if err != nil {
		t.Fatalf("fresh run over stale artifacts: %v", err)
	}
	r.Close()
}
