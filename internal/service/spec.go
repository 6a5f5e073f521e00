// Package service lifts the Anton engine behind a multi-tenant service
// boundary: a durable job store, a prioritized FIFO queue, a bounded
// worker pool of (optionally sharded) engines, and an HTTP/JSON API with
// token auth, per-token rate limiting, and per-job telemetry.
//
// The operational model follows how Anton itself was run (SC'09 §1, §5):
// millisecond-scale simulations are long-lived batch jobs on a shared
// machine — queued, monitored, interrupted, and resumed. Two properties
// of the engine make the service's durability contract exact rather than
// best-effort:
//
//   - determinism: the trajectory is a pure function of (system, config,
//     velocity seed), bitwise invariant under worker count, shard count,
//     and checkpoint round-trips;
//   - exact state: checkpoints capture raw fixed-point integers with a
//     config fingerprint and CRC (core format v2), written crash-
//     consistently (temp+fsync+rename).
//
// Together they give the service's headline guarantee: a job interrupted
// by killing the daemon resumes from its persisted checkpoint after
// restart and finishes with a trajectory bitwise identical to an
// uninterrupted run.
package service

import (
	"fmt"

	"anton/internal/faults"
	"anton/internal/machine"
	"anton/internal/system"
)

// Defaults applied by (*JobSpec).Normalize.
const (
	DefaultNodes           = 8
	DefaultSeed            = 2
	DefaultCheckpointEvery = 25
	MaxSteps               = 100_000_000

	// MaxShards caps Shards. Every shard holds atom-indexed buffers, so
	// a sharded engine's memory grows with shards × atoms: building
	// "small" takes ~92 MB of heap at 512 shards and ~1 GB at 4,096, and
	// one unauthenticated submit must not be able to exhaust the
	// daemon's memory. 64 is the largest count any test, document or
	// benchmark runs.
	MaxShards = 64
)

// JobSpec is the client-submitted description of one simulation job.
// Everything that shapes the trajectory is explicit and recorded, so a
// job is exactly reproducible from its stored spec.
type JobSpec struct {
	// Name is a human label carried through status reports (optional).
	Name string `json:"name,omitempty"`

	// System names the molecular system: "small" or a catalog name
	// (gpW, DHFR, BPTI, ... — see system.Names).
	System string `json:"system"`

	// Steps is the total step target of the job.
	Steps int `json:"steps"`

	// Ensemble selects the thermostat: "nvt" (Berendsen at Temperature,
	// the default) or "nve".
	Ensemble string `json:"ensemble,omitempty"`

	// Temperature is the NVT target in kelvin (default 300; ignored for
	// NVE).
	Temperature float64 `json:"temperature,omitempty"`

	// Shards > 0 runs the sharded virtual-node pipeline with that many
	// shards (a power of two, at most MaxShards); 0 runs the monolithic
	// engine on Nodes nodes.
	Shards int `json:"shards,omitempty"`

	// Nodes is the monolithic engine's simulated node count, a power of
	// two (default 8; ignored when Shards > 0).
	Nodes int `json:"nodes,omitempty"`

	// Seed seeds the initial velocity draw (default 2). Same spec + same
	// seed = same trajectory, bit for bit.
	Seed int64 `json:"seed,omitempty"`

	// Priority orders the queue: higher runs first, FIFO within a
	// priority level.
	Priority int `json:"priority,omitempty"`

	// CheckpointEvery is the durable checkpoint cadence in steps
	// (default 25). A daemon kill loses at most this much progress —
	// never correctness.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`

	// Chaos is a fault-injection spec (see faults.ParseSpec), e.g.
	// "seed=7,drop=0.02,crashes=1". Requires Shards > 0.
	Chaos string `json:"chaos,omitempty"`

	// IdempotencyKey makes submission retry-safe: a second submit with
	// the same key returns the original job instead of creating a
	// duplicate. Keys are client-chosen, at most 128 characters, and
	// persisted with the job (so dedup survives daemon restarts).
	IdempotencyKey string `json:"idempotency_key,omitempty"`

	// DeadlineSec overrides the daemon's per-job wall-clock deadline in
	// seconds (0 = use the daemon default). A job past its deadline
	// fails permanently at its next chunk boundary.
	DeadlineSec int `json:"deadline_sec,omitempty"`
}

// Normalize applies defaults in place and validates the spec. It is
// called once at submission; the stored spec is already normalized, so
// a resumed job rebuilds the identical engine.
func (j *JobSpec) Normalize() error {
	if j.System == "" {
		return fmt.Errorf("service: job spec: system is required")
	}
	if j.System != "small" {
		if _, ok := system.SpecFor(j.System); !ok {
			return fmt.Errorf("service: job spec: unknown system %q (have small, %v)",
				j.System, system.Names())
		}
	}
	if j.Steps <= 0 {
		return fmt.Errorf("service: job spec: steps must be positive, got %d", j.Steps)
	}
	if j.Steps > MaxSteps {
		return fmt.Errorf("service: job spec: steps %d exceeds the %d cap", j.Steps, MaxSteps)
	}
	switch j.Ensemble {
	case "":
		j.Ensemble = "nvt"
	case "nvt", "nve":
	default:
		return fmt.Errorf("service: job spec: ensemble must be nvt or nve, got %q", j.Ensemble)
	}
	if j.Temperature == 0 {
		j.Temperature = 300
	}
	if j.Temperature < 0 {
		return fmt.Errorf("service: job spec: negative temperature %g", j.Temperature)
	}
	if j.Shards < 0 {
		return fmt.Errorf("service: job spec: negative shards %d", j.Shards)
	}
	if j.Shards > 0 && j.Shards&(j.Shards-1) != 0 {
		return fmt.Errorf("service: job spec: shards must be a power of two, got %d", j.Shards)
	}
	if j.Shards > MaxShards {
		return fmt.Errorf("service: job spec: shards %d exceeds the %d cap", j.Shards, MaxShards)
	}
	if j.Nodes == 0 {
		j.Nodes = DefaultNodes
	}
	if _, err := machine.New(j.Nodes); err != nil {
		return fmt.Errorf("service: job spec: nodes: %w", err)
	}
	if j.Seed == 0 {
		j.Seed = DefaultSeed
	}
	if j.CheckpointEvery == 0 {
		j.CheckpointEvery = DefaultCheckpointEvery
	}
	if j.CheckpointEvery < 0 {
		return fmt.Errorf("service: job spec: negative checkpoint_every %d", j.CheckpointEvery)
	}
	if j.Chaos != "" {
		if j.Shards == 0 {
			return fmt.Errorf("service: job spec: chaos requires shards > 0 (the monolithic engine has no transport to fault)")
		}
		if _, err := faults.ParseSpec(j.Chaos); err != nil {
			return fmt.Errorf("service: job spec: %w", err)
		}
	}
	if len(j.IdempotencyKey) > 128 {
		return fmt.Errorf("service: job spec: idempotency key longer than 128 characters")
	}
	if j.DeadlineSec < 0 {
		return fmt.Errorf("service: job spec: negative deadline_sec %d", j.DeadlineSec)
	}
	return nil
}
