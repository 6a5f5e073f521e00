package core

import (
	"encoding/binary"
	"hash/fnv"
	"io"

	"anton/internal/fixp"
)

// Sim is the run/resume lifecycle of an engine: advance it, persist it
// crash-consistently, restore it, and prove two runs reached the same
// state without shipping the state itself. *Engine, of either layout, is
// its one implementation; it remains because the benchmark harness
// (bench/engine.go, bench/service.go) still steps simulations through it.
type Sim interface {
	// Step advances the trajectory n steps.
	Step(n int)
	// StepCount reports completed steps (survives checkpoint round-trips).
	StepCount() int
	// Snapshot returns copies of the canonical fixed-point state.
	Snapshot() ([]fixp.Vec3, []Vel3)
	// WriteCheckpointFile persists the exact state crash-consistently
	// (temp + fsync + rename; see checkpointfile.go).
	WriteCheckpointFile(path string) error
	// RestoreCheckpointFile validates (fingerprint + CRC) and restores a
	// checkpoint, leaving the state untouched on any failure.
	RestoreCheckpointFile(path string) error
	// WriteCheckpoint / RestoreCheckpoint are the stream forms of the
	// same format — a driver that owns the file I/O (service.Run
	// persisting through a fault-injecting filesystem) serializes once
	// and writes the bytes itself.
	WriteCheckpoint(w io.Writer) error
	RestoreCheckpoint(r io.Reader) error
	// StateDigest fingerprints the dynamic state; equal digests at equal
	// steps mean bitwise-identical trajectories.
	StateDigest() uint64
}

var _ Sim = (*Engine)(nil)

// StateDigest hashes the step counter and every dynamic fixed-point array
// (positions, velocities, short- and long-range force accumulators) with
// FNV-1a 64. Because the engine is deterministic and the state is exact
// integers, the digest is a trajectory identity check: two runs of the
// same system agree at a given step if and only if their digests do —
// regardless of worker count, shard count, checkpoint round-trips or
// fault campaigns. Cheap enough to publish per status update.
func (e *Engine) StateDigest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	w64(int64(e.step))
	for _, p := range e.Pos {
		w64(int64(p.X))
		w64(int64(p.Y))
		w64(int64(p.Z))
	}
	for _, v := range e.Vel {
		w64(v.X)
		w64(v.Y)
		w64(v.Z)
	}
	for _, f := range e.fShort {
		w64(f.X)
		w64(f.Y)
		w64(f.Z)
	}
	for _, f := range e.fLong {
		w64(f.X)
		w64(f.Y)
		w64(f.Z)
	}
	return h.Sum64()
}
