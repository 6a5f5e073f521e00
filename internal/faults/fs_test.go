package faults

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

func TestFSSpecParseRoundTrip(t *testing.T) {
	in := "seed=11,enospc=0.05,eio=0.03,torn=0.05,fsyncdrop=0.01,stall=0.02,maxstall=4ms,crashes=6,horizon=40,safe=4"
	sp, err := ParseFSSpec(in)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Seed != 11 || sp.ENOSPC != 0.05 || sp.EIO != 0.03 || sp.Torn != 0.05 ||
		sp.FsyncDrop != 0.01 || sp.Stall != 0.02 || sp.MaxStall != 4*time.Millisecond ||
		sp.Crashes != 6 || sp.CrashHorizon != 40 || sp.SafeAttempt != 4 {
		t.Fatalf("parsed spec: %+v", sp)
	}
	// String round-trips the whole campaign, the maxstall and safe
	// bounds included.
	back, err := ParseFSSpec(sp.String())
	if err != nil {
		t.Fatal(err)
	}
	if back != sp {
		t.Fatalf("round trip through %q: %#v vs %#v", sp.String(), back, sp)
	}
	if _, err := ParseFSSpec("nonsense"); err == nil {
		t.Fatal("bare token accepted")
	}
	if _, err := ParseFSSpec("bogus=1"); err == nil {
		t.Fatal("unknown key accepted")
	}
	if _, err := ParseFSSpec("enospc=lots"); err == nil {
		t.Fatal("bad float accepted")
	}
	// Empty spec is the quiet default.
	q, err := ParseFSSpec("")
	if err != nil || q.ENOSPC != 0 || q.Crashes != 0 {
		t.Fatalf("empty spec: %+v err=%v", q, err)
	}
}

// driveFS runs a fixed operation sequence against a fresh plane in its
// own directory and returns the per-op outcome fingerprint. Verdicts
// hash base names and per-file ordinals — never the directory — so two
// drives of the same campaign must fingerprint identically.
func driveFS(t *testing.T, spec FSSpec) string {
	t.Helper()
	dir := t.TempDir()
	fs := NewFS(spec)
	out := ""
	record := func(err error) {
		switch {
		case err == nil:
			out += "."
		case IsCrash(err):
			out += "C"
			fs.Reboot()
		case errors.Is(err, syscall.ENOSPC):
			out += "S"
		case errors.Is(err, syscall.EIO):
			out += "E"
		default:
			t.Fatalf("unexpected error class: %v", err)
		}
	}
	payload := []byte("the quick brown fox jumps over the lazy dog")
	for i := 0; i < 40; i++ {
		record(fs.WriteFile(filepath.Join(dir, "status.json"), payload))
		record(fs.WriteFile(filepath.Join(dir, "job.ckpt"), payload))
		_, err := fs.ReadFile(filepath.Join(dir, "status.json"))
		if err != nil && !os.IsNotExist(err) {
			record(err)
		} else {
			record(nil)
		}
	}
	c := fs.Counts()
	return fmt.Sprintf("%s|%+v", out, c)
}

// TestFSReplayDeterminism: the same seed replays the same storage
// campaign — fault classes, crash cuts and tallies — regardless of
// which directory the files live in. Run under -count=2 by verify.sh so
// cross-run state leaks cannot hide.
func TestFSReplayDeterminism(t *testing.T) {
	spec, err := ParseFSSpec("seed=7,enospc=0.1,eio=0.08,torn=0.1,stall=0,crashes=3,horizon=30")
	if err != nil {
		t.Fatal(err)
	}
	a := driveFS(t, spec)
	b := driveFS(t, spec)
	if a != b {
		t.Fatalf("same seed, different campaigns:\n%s\n%s", a, b)
	}
	other := spec
	other.Seed = 8
	if c := driveFS(t, other); c == a {
		t.Fatalf("different seeds replayed the same campaign: %s", c)
	}
}

// TestFSLiveness: the SafeAttempt streak cap bounds consecutive faults
// per (op, file), so a retry loop with RetryBudget attempts always lands
// a write — even under a 100% fault probability.
func TestFSLiveness(t *testing.T) {
	spec := FSSpec{Seed: 3, ENOSPC: 1.0, SafeAttempt: 3}
	fs := NewFS(spec)
	path := filepath.Join(t.TempDir(), "status.json")
	for round := 0; round < 5; round++ {
		ok := false
		for attempt := 0; attempt < fs.RetryBudget(); attempt++ {
			if err := fs.WriteFile(path, []byte("payload")); err == nil {
				ok = true
				break
			} else if !IsInjected(err) {
				t.Fatalf("round %d: non-injected failure: %v", round, err)
			}
		}
		if !ok {
			t.Fatalf("round %d: %d attempts all faulted despite SafeAttempt=%d",
				round, fs.RetryBudget(), spec.SafeAttempt)
		}
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "payload" {
		t.Fatalf("converged write not durable: %q, %v", b, err)
	}
}

// TestFSCrashPointMatrix: a crash cut at every point of the atomic
// write sequence leaves the destination either the complete old image
// or the complete new one — never torn — and the plane refuses all
// work until Reboot.
func TestFSCrashPointMatrix(t *testing.T) {
	oldImage, newImage := []byte("old image, complete"), []byte("new image, also complete")
	for point := uint8(0); point < FSCrashPoints; point++ {
		t.Run(fmt.Sprintf("point%d", point), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "job.ckpt")
			if err := os.WriteFile(path, oldImage, 0o644); err != nil {
				t.Fatal(err)
			}
			fs := NewFS(FSSpec{Seed: 5})
			fs.ArmCrash("job.ckpt", point)
			err := fs.WriteFile(path, newImage)
			if !IsCrash(err) {
				t.Fatalf("armed crash did not fire: %v", err)
			}
			if !fs.Crashed() {
				t.Fatal("plane not in crashed state")
			}
			// Down means down: every op fails until reboot.
			if err := fs.WriteFile(path, newImage); !IsCrash(err) {
				t.Fatalf("write on a crashed plane: %v", err)
			}
			if _, err := fs.ReadFile(path); !IsCrash(err) {
				t.Fatalf("read on a crashed plane: %v", err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := oldImage
			if point >= CrashAfterRename {
				want = newImage
			}
			if string(got) != string(want) {
				t.Fatalf("point %d left %q, want %q", point, got, want)
			}
			fs.Reboot()
			if err := fs.WriteFile(path, newImage); err != nil {
				t.Fatalf("post-reboot write: %v", err)
			}
			if c := fs.Counts(); c.CrashesFired != 1 {
				t.Fatalf("crashes fired = %d, want 1", c.CrashesFired)
			}
		})
	}
}

// TestFSFsyncDropTornOnCrash: a dropped fsync is invisible until a
// crash, at which point the renamed-but-unsynced image tears back to a
// prefix — the failure mode the store's quarantine scan must absorb.
func TestFSFsyncDropTornOnCrash(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "status.json")
	fs := NewFS(FSSpec{Seed: 9, FsyncDrop: 1.0, SafeAttempt: 1 << 20})
	payload := []byte("a record long enough that a torn prefix is visibly shorter than the whole")
	if err := fs.WriteFile(path, payload); err != nil {
		t.Fatalf("dropped fsync must report success: %v", err)
	}
	if b, _ := os.ReadFile(path); string(b) != string(payload) {
		t.Fatalf("before the crash the full image is visible: %q", b)
	}
	fs.ArmCrash("other.file", CrashBeforeWrite)
	if err := fs.WriteFile(filepath.Join(dir, "other.file"), []byte("x")); !IsCrash(err) {
		t.Fatalf("armed crash did not fire: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) >= len(payload) {
		t.Fatalf("crash after dropped fsync kept all %d bytes durable", len(b))
	}
	if c := fs.Counts(); c.FsyncDrops < 1 {
		t.Fatalf("fsync drops = %d, want >= 1", c.FsyncDrops)
	}
}

// TestFSScheduledCrashCoverage: a campaign with Crashes >= FSCrashPoints
// schedules every cut point at least once, deterministically.
func TestFSScheduledCrashCoverage(t *testing.T) {
	fs := NewFS(FSSpec{Seed: 11, Crashes: FSCrashPoints + 2, CrashHorizon: 40})
	seen := make(map[uint8]int)
	for _, ev := range fs.sched {
		seen[ev.point]++
	}
	if len(fs.sched) != FSCrashPoints+2 {
		t.Fatalf("scheduled %d events, want %d", len(fs.sched), FSCrashPoints+2)
	}
	for p := uint8(0); p < FSCrashPoints; p++ {
		if seen[p] == 0 {
			t.Fatalf("crash point %d never scheduled: %v", p, seen)
		}
	}
}

// TestFSNilQuiet: a nil plane and a quiet plane run the one write
// sequence to the same result — the destination complete (over a previous
// image too), no temp file left behind — and the nil plane's other
// methods are no-ops.
func TestFSNilQuiet(t *testing.T) {
	for name, fs := range map[string]*FS{"nil": nil, "quiet": NewFS(FSSpec{Seed: 1})} {
		dir := t.TempDir()
		path := filepath.Join(dir, "f")
		for _, image := range []string{"previous image", "quiet"} {
			if err := fs.WriteFile(path, []byte(image)); err != nil {
				t.Fatalf("%s plane: %v", name, err)
			}
			b, err := fs.ReadFile(path)
			if err != nil || string(b) != image {
				t.Fatalf("%s plane: read %q, %v; want %q", name, b, err, image)
			}
		}
		if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(tmps) != 0 {
			t.Fatalf("%s plane left temp files behind: %v", name, tmps)
		}
		if fs.Crashed() {
			t.Fatalf("%s plane crashed", name)
		}
	}

	var fs *FS
	if fs.RetryBudget() != 1 {
		t.Fatal("nil plane must be quiet")
	}
	fs.Reboot()
	if c := fs.Counts(); c != (FSCounts{}) {
		t.Fatalf("nil counts: %+v", c)
	}
}
