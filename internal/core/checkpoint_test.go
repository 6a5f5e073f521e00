package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func TestCheckpointResumesBitwise(t *testing.T) {
	// Run A: 20 uninterrupted steps. Run B: 10 steps, checkpoint, restore
	// into a fresh engine, 10 more. Final states must match bit for bit.
	a := smallWaterEngine(t, 8, nil)
	a.Step(20)
	pa, va := a.Snapshot()

	b1 := smallWaterEngine(t, 8, nil)
	b1.Step(10)
	var buf bytes.Buffer
	if err := b1.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	b2 := smallWaterEngine(t, 8, nil) // fresh engine, same system/config
	if err := b2.RestoreCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if b2.StepCount() != 10 {
		t.Fatalf("restored step count %d", b2.StepCount())
	}
	b2.Step(10)
	pb, vb := b2.Snapshot()
	for i := range pa {
		if pa[i] != pb[i] || va[i] != vb[i] {
			t.Fatalf("restored trajectory diverged at atom %d", i)
		}
	}
}

func TestCheckpointRejectsMismatch(t *testing.T) {
	a := smallWaterEngine(t, 8, nil)
	var buf bytes.Buffer
	if err := a.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the magic.
	data := append([]byte(nil), buf.Bytes()...)
	data[0] ^= 0xff
	if err := a.RestoreCheckpoint(bytes.NewReader(data)); !errors.Is(err, ErrCheckpointMagic) {
		t.Errorf("bad magic: got %v, want ErrCheckpointMagic", err)
	}
	// Wrong system size, in both directions: a complete image of a
	// smaller or a larger system is a configuration mismatch, not a
	// truncated or a corrupt file.
	ion := ionicEngine(t, 8, nil)
	var buf2 bytes.Buffer
	if err := ion.WriteCheckpoint(&buf2); err != nil {
		t.Fatal(err)
	}
	if err := a.RestoreCheckpoint(bytes.NewReader(buf2.Bytes())); !errors.Is(err, ErrCheckpointConfig) {
		t.Errorf("smaller system: got %v, want ErrCheckpointConfig", err)
	}
	if err := ion.RestoreCheckpoint(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCheckpointConfig) {
		t.Errorf("larger system: got %v, want ErrCheckpointConfig", err)
	}
}

// TestCheckpointCorruptionMatrix exercises every distinct rejection
// path of the version-2 format: truncation at each field boundary,
// single-bit corruption, trailing garbage, an unknown or retired version,
// and a configuration drift — and checks that every failed restore leaves the
// engine state untouched.
func TestCheckpointCorruptionMatrix(t *testing.T) {
	e := smallWaterEngine(t, 8, nil)
	e.Step(5)
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	n := len(e.Pos)

	// The fresh engine all restores are attempted into, plus its
	// reference state to verify failed restores are side-effect free.
	target := smallWaterEngine(t, 8, nil)
	refPos, refVel := target.Snapshot()
	checkUntouched := func(t *testing.T) {
		t.Helper()
		p, v := target.Snapshot()
		for i := range p {
			if p[i] != refPos[i] || v[i] != refVel[i] {
				t.Fatalf("failed restore mutated engine state at atom %d", i)
			}
		}
	}

	// Field-boundary offsets in the v2 layout.
	const (
		afterMagicVer = 8
		afterHeader   = ckptHeaderLen
		afterFP       = ckptHeaderLen + ckptFingerprintLen
		afterStep     = ckptHeaderLen + ckptFingerprintLen + 8
		afterEnergy   = ckptHeaderLen + ckptFingerprintLen + 16
	)
	truncations := map[string]int{
		"empty":             0,
		"mid-magic":         3,
		"after-magic-ver":   afterMagicVer,
		"after-header":      afterHeader,
		"after-fingerprint": afterFP,
		"after-step":        afterStep,
		"after-energy":      afterEnergy,
		"mid-positions":     afterEnergy + n*12/2,
		"after-positions":   afterEnergy + n*12,
		"missing-crc":       len(good) - ckptCRCLen,
		"partial-crc":       len(good) - 1,
	}
	for name, cut := range truncations {
		t.Run("truncate-"+name, func(t *testing.T) {
			err := target.RestoreCheckpoint(bytes.NewReader(good[:cut]))
			if !errors.Is(err, ErrCheckpointTruncated) {
				t.Errorf("truncation at %d: got %v, want ErrCheckpointTruncated", cut, err)
			}
			checkUntouched(t)
		})
	}

	t.Run("flipped-byte", func(t *testing.T) {
		for _, off := range []int{afterHeader + 3, afterEnergy + 5, len(good) - 20} {
			data := append([]byte(nil), good...)
			data[off] ^= 0x40
			err := target.RestoreCheckpoint(bytes.NewReader(data))
			if !errors.Is(err, ErrCheckpointCorrupt) {
				t.Errorf("flip at %d: got %v, want ErrCheckpointCorrupt", off, err)
			}
			checkUntouched(t)
		}
	})

	t.Run("trailing-garbage", func(t *testing.T) {
		data := append(append([]byte(nil), good...), 0xde, 0xad)
		err := target.RestoreCheckpoint(bytes.NewReader(data))
		if !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("got %v, want ErrCheckpointCorrupt", err)
		}
		checkUntouched(t)
	})

	// Version 1 (no fingerprint, no checksum) is no longer read: nothing
	// writes it, and its decoder could not validate before mutating.
	for name, ver := range map[string]uint32{"version-1": 1, "future-version": 99} {
		t.Run(name, func(t *testing.T) {
			data := append([]byte(nil), good...)
			binary.LittleEndian.PutUint32(data[4:], ver)
			err := target.RestoreCheckpoint(bytes.NewReader(data))
			if !errors.Is(err, ErrCheckpointVersion) {
				t.Errorf("got %v, want ErrCheckpointVersion", err)
			}
			checkUntouched(t)
		})
	}

	t.Run("wrong-dt", func(t *testing.T) {
		other := smallWaterEngine(t, 8, func(c *Config) { c.Dt = c.Dt / 2 })
		err := other.RestoreCheckpoint(bytes.NewReader(good))
		if !errors.Is(err, ErrCheckpointConfig) {
			t.Errorf("got %v, want ErrCheckpointConfig", err)
		}
	})
}

// FuzzRestoreCheckpoint feeds RestoreCheckpoint hostile bytes, seeded
// with the corruption matrix's cases over a small engine's image: it must
// never panic, every rejection must leave the engine state untouched, and
// anything it accepts must be a canonical image (re-encoding the restored
// state gives the same bytes back).
func FuzzRestoreCheckpoint(f *testing.F) {
	src := ionicEngine(f, 8, nil)
	src.Step(2)
	var buf bytes.Buffer
	if err := src.WriteCheckpoint(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	mutate := func(edit func(b []byte) []byte) { f.Add(edit(append([]byte(nil), good...))) }
	f.Add(good)
	for _, cut := range []int{0, 3, 8, ckptHeaderLen, ckptHeaderLen + ckptFingerprintLen,
		ckptHeaderLen + ckptFingerprintLen + 16, len(good) / 2, len(good) - ckptCRCLen, len(good) - 1} {
		f.Add(good[:cut])
	}
	mutate(func(b []byte) []byte { b[0] ^= 0xff; return b })                             // magic
	mutate(func(b []byte) []byte { b[ckptHeaderLen+3] ^= 0x40; return b })               // fingerprint
	mutate(func(b []byte) []byte { b[len(b)-20] ^= 0x40; return b })                     // payload
	mutate(func(b []byte) []byte { return append(b, 0xde, 0xad) })                       // trailing garbage
	mutate(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:], 1); return b })  // retired version
	mutate(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:], 99); return b }) // future version

	target := ionicEngine(f, 8, nil)
	f.Fuzz(func(t *testing.T, data []byte) {
		pos, vel := target.Snapshot()
		step := target.StepCount()
		if err := target.RestoreCheckpoint(bytes.NewReader(data)); err != nil {
			p, v := target.Snapshot()
			for i := range p {
				if p[i] != pos[i] || v[i] != vel[i] {
					t.Fatalf("rejected restore (%v) mutated atom %d", err, i)
				}
			}
			if target.StepCount() != step {
				t.Fatalf("rejected restore (%v) moved the step count %d -> %d", err, step, target.StepCount())
			}
			return
		}
		var out bytes.Buffer
		if err := target.WriteCheckpoint(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted a %d-byte image that re-encodes to different bytes", len(data))
		}
	})
}
