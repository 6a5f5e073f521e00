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
	"math"
	"time"

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

	// MaxNodes caps Nodes. The monolithic engine's subbox-pair list
	// grows with the node count: building "small" takes ~3 MB of heap at
	// 512 nodes, ~136 MB at 4,096 and ~2 GB at 16,384, and at 32,768 it
	// exhausts memory, so one submit could kill the daemon (and, re-queued
	// by recovery, kill it again on restart). 512 is the paper's machine;
	// no test, document or benchmark runs the engine above 64 nodes.
	MaxNodes = 512

	// MaxTemperature caps Temperature, in kelvin. The default is 300 K
	// and thermal-unfolding protocols run near 500 K. At the 2.5 fs step
	// "small" holds together at 3,000 K but flies apart within 100 steps
	// at 10,000 K (temperature ~1e12 K, constraint groups unconverged).
	// 1,000 K is over three times the default and twice an unfolding
	// target, and a decade below that failure.
	MaxTemperature = 1000

	// MaxChaosCrashes caps a chaos campaign's crashes. Each crash stalls
	// the run for one to two 2 s heartbeats of detection plus a rollback
	// of up to checkpoint_every steps, and faults.New schedules crashes
	// with a linear probe whose cost grows with the square of the count
	// (20,000 crashes take over a second to schedule, a million ties up a
	// worker in OpenRun for tens of minutes, again after every restart).
	// 32 crashes cost at most about two minutes of detection, over five
	// times the six the largest test campaign fires.
	MaxChaosCrashes = 32

	// MaxChaosSafe caps a chaos campaign's safe attempt, the first
	// retransmission the plane never faults. Below it every attempt may
	// be refused, and the retransmission timer backs off from 2 ms to
	// 64 ms: at drop=1 an exchange waits about a quarter second for
	// safe=8, but once safe passes about 35 it outlasts the 2 s heartbeat,
	// so every stage times out and the run livelocks in recovery. 8 is
	// over the largest any test uses (5).
	MaxChaosSafe = 8

	// MaxChaosDelay caps a chaos campaign's maxdelay. A delayed copy holds
	// a goroutine and its frame until it lands, long after the
	// retransmission timer has delivered the message, so delays far past
	// the step time pile up in memory. 100 ms is over ten times the
	// largest delay any test draws (7 ms).
	MaxChaosDelay = 100 * time.Millisecond

	// MaxChaosStall caps a chaos campaign's maxstall. A stall at or past
	// the 2 s heartbeat looks like a crash: FaultConfig.Heartbeat must stay
	// comfortably above the stall bound, or stalls turn into spurious
	// recoveries that park the run. 200 ms is a tenth of the heartbeat and
	// forty times the largest stall any test uses (5 ms).
	MaxChaosStall = 200 * time.Millisecond
)

// JobSpec is the client-submitted description of one simulation job.
// Everything that shapes the trajectory is explicit and recorded, so a
// job is exactly reproducible from its stored spec.
type JobSpec struct {
	// Name is a human label carried through status reports (optional).
	Name string `json:"name,omitempty"`

	// System names the molecular system: any of system.Accepted
	// ("small", gpW, DHFR, BPTI, ...).
	System string `json:"system"`

	// Steps is the total step target of the job.
	Steps int `json:"steps"`

	// Ensemble selects the thermostat: "nvt" (Berendsen at Temperature,
	// the default) or "nve".
	Ensemble string `json:"ensemble,omitempty"`

	// Temperature is the NVT target in kelvin (default 300, at most
	// MaxTemperature; ignored for NVE).
	Temperature float64 `json:"temperature,omitempty"`

	// Shards > 0 runs the sharded virtual-node pipeline with that many
	// shards (a power of two, at most MaxShards); 0 runs the monolithic
	// engine on Nodes nodes.
	Shards int `json:"shards,omitempty"`

	// Nodes is the monolithic engine's simulated node count, a power of
	// two, at most MaxNodes (default 8; ignored when Shards > 0).
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
	if _, ok := system.SpecFor(j.System); !ok {
		return fmt.Errorf("service: job spec: unknown system %q (have %v)",
			j.System, system.Accepted())
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
	if math.IsNaN(j.Temperature) || math.IsInf(j.Temperature, 0) {
		return fmt.Errorf("service: job spec: non-finite temperature %g", j.Temperature)
	}
	if j.Temperature < 0 {
		return fmt.Errorf("service: job spec: negative temperature %g", j.Temperature)
	}
	if j.Temperature > MaxTemperature {
		return fmt.Errorf("service: job spec: temperature %g K exceeds the %d K cap", j.Temperature, MaxTemperature)
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
	if j.Nodes > MaxNodes {
		return fmt.Errorf("service: job spec: nodes %d exceeds the %d cap", j.Nodes, MaxNodes)
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
		sp, err := faults.ParseSpec(j.Chaos)
		if err != nil {
			return fmt.Errorf("service: job spec: %w", err)
		}
		if err := checkChaosCaps(sp); err != nil {
			return fmt.Errorf("service: job spec: chaos: %w", err)
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

// checkChaosCaps holds a parsed campaign to the MaxChaos* caps.
func checkChaosCaps(sp faults.Spec) error {
	switch {
	case sp.Crashes > MaxChaosCrashes:
		return fmt.Errorf("crashes %d exceeds the %d cap", sp.Crashes, MaxChaosCrashes)
	case sp.SafeAttempt > MaxChaosSafe:
		return fmt.Errorf("safe %d exceeds the %d cap", sp.SafeAttempt, MaxChaosSafe)
	case sp.MaxDelay > MaxChaosDelay:
		return fmt.Errorf("maxdelay %v exceeds the %v cap", sp.MaxDelay, MaxChaosDelay)
	case sp.MaxStall > MaxChaosStall:
		return fmt.Errorf("maxstall %v exceeds the %v cap", sp.MaxStall, MaxChaosStall)
	}
	return nil
}
