package core

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckpointFileRoundTrip: the atomic file path round-trips a
// checkpoint bitwise — write mid-run, keep stepping, restore into a
// fresh engine, and the two trajectories converge exactly.
func TestCheckpointFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.bin")

	a := smallWaterEngine(t, 8, nil)
	a.Step(30)
	if err := a.WriteCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	a.Step(30)

	b := smallWaterEngine(t, 8, nil)
	if err := b.RestoreCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	b.Step(30)

	pa, va := a.Snapshot()
	pb, vb := b.Snapshot()
	for i := range pa {
		if pa[i] != pb[i] || va[i] != vb[i] {
			t.Fatalf("file-restored trajectory diverged at atom %d", i)
		}
	}
}

// TestCheckpointFileAtomicReplace: overwriting an existing checkpoint
// never leaves the path holding a mix of old and new bytes, and a temp
// file abandoned by a crash between write and rename is inert — restores
// read only the destination path, and the next successful write does not
// trip over the leftover.
func TestCheckpointFileAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.bin")

	e := smallWaterEngine(t, 8, nil)
	e.Step(10)
	if err := e.WriteCheckpointFile(path); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-write: a temp file exists beside the
	// destination (the prefix the atomic write uses), never renamed.
	if err := os.WriteFile(filepath.Join(dir, "ckpt.bin.tmp-dead"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	e.Step(10)
	if err := e.WriteCheckpointFile(path); err != nil {
		t.Fatalf("write with leftover temp present: %v", err)
	}

	fresh := smallWaterEngine(t, 8, nil)
	if err := fresh.RestoreCheckpointFile(path); err != nil {
		t.Fatalf("restore after replace: %v", err)
	}
	if fresh.step != e.step {
		t.Fatalf("restored step %d, want %d (stale image?)", fresh.step, e.step)
	}

	// The successful writes cleaned up their own temps; only the
	// simulated-crash leftover remains.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if strings.Contains(ent.Name(), ".tmp-") && ent.Name() != "ckpt.bin.tmp-dead" {
			t.Errorf("stray temp file %s survived a successful write", ent.Name())
		}
	}
}

// TestCheckpointFileTornWrite: a checkpoint file truncated mid-image (a
// torn write on a filesystem without the rename guarantee, or manual
// copying gone wrong) must fail the restore with the truncation sentinel
// and leave the engine state untouched — and the previous good file must
// still restore.
func TestCheckpointFileTornWrite(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.bin")
	torn := filepath.Join(dir, "torn.bin")

	e := smallWaterEngine(t, 8, nil)
	e.Step(20)
	if err := e.WriteCheckpointFile(good); err != nil {
		t.Fatal(err)
	}
	e.Step(20)
	if err := e.WriteCheckpointFile(torn); err != nil {
		t.Fatal(err)
	}

	// Tear the newer file: keep the header but cut the image short.
	data, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	victim := smallWaterEngine(t, 8, nil)
	victim.Step(5)
	wantP, wantV := victim.Snapshot()
	wantStep := victim.step

	if err := victim.RestoreCheckpointFile(torn); !errors.Is(err, ErrCheckpointTruncated) {
		t.Fatalf("torn file: got %v, want ErrCheckpointTruncated", err)
	}
	gotP, gotV := victim.Snapshot()
	if victim.step != wantStep {
		t.Fatalf("failed restore moved the step counter: %d -> %d", wantStep, victim.step)
	}
	for i := range wantP {
		if gotP[i] != wantP[i] || gotV[i] != wantV[i] {
			t.Fatalf("failed restore mutated engine state at atom %d", i)
		}
	}

	// The older checkpoint is still intact and restores cleanly.
	if err := victim.RestoreCheckpointFile(good); err != nil {
		t.Fatalf("previous checkpoint no longer restores: %v", err)
	}
	if victim.step != 20 {
		t.Fatalf("restored step %d, want 20", victim.step)
	}
}

// TestCheckpointFileCRC: the ledger's CRC read validates a file as a
// restore does — a good file gives its trailing CRC, and a torn, padded,
// flipped or foreign one fails with the restore's sentinel.
func TestCheckpointFileCRC(t *testing.T) {
	dir := t.TempDir()
	e := smallWaterEngine(t, 8, nil)
	e.Step(2)
	path := filepath.Join(dir, "good.bin")
	if err := e.WriteCheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	crc, err := CheckpointFileCRC(path)
	if err != nil || crc != binary.LittleEndian.Uint32(good[len(good)-ckptCRCLen:]) {
		t.Fatalf("good file: crc %#x, %v", crc, err)
	}
	flip := func(off int) []byte {
		b := append([]byte(nil), good...)
		b[off] ^= 0x40
		return b
	}
	for name, c := range map[string]struct {
		data []byte
		want error
	}{
		"torn":     {good[:len(good)/2], ErrCheckpointTruncated},
		"header":   {good[:10], ErrCheckpointTruncated},
		"padded":   {append(append([]byte(nil), good...), 0), ErrCheckpointCorrupt},
		"flipped":  {flip(len(good) - 20), ErrCheckpointCorrupt},
		"magic":    {flip(0), ErrCheckpointMagic},
		"version":  {flip(4), ErrCheckpointVersion},
		"atom-cnt": {flip(8), ErrCheckpointTruncated},
	} {
		p := filepath.Join(dir, name+".bin")
		if err := os.WriteFile(p, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := CheckpointFileCRC(p); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", name, err, c.want)
		}
	}
}
