package core

import (
	"testing"

	"anton/internal/faults"
)

// Edge-case coverage for the sharded communication plane: exchanges that
// degenerate to zero-length payloads, the single-shard machine where the
// transport exists but carries nothing, and the step where a migration
// lands on the same tick as a long-range refresh.

// TestShardEmptyShardExchanges: 64 virtual nodes over the small system
// leaves shards whose box sets are empty or near-empty, so position and
// force exchanges with zero-length payloads cross the transport every
// step. The run must stay bitwise — and stay bitwise when the same
// zero-length messages also traverse the reliable (CRC + ack) protocol.
func TestShardEmptyShardExchanges(t *testing.T) {
	skipShort(t)
	const steps = 40

	ref := smallWaterEngine(t, 1, nil)
	ref.Step(steps)

	plain := smallWaterSharded(t, 64, nil)
	plain.Step(steps)
	assertBitwise(t, plain, ref, "64 shards plain")

	rel := smallWaterSharded(t, 64, nil)
	plane := faults.New(faults.Spec{Seed: 9}, rel.Shards())
	if err := rel.EnableFaults(chaosConfig(plane)); err != nil {
		t.Fatal(err)
	}
	rel.Step(steps)
	assertBitwise(t, rel, ref, "64 shards reliable")
	if s := rel.TransportStats(); s.CrcDiscards != 0 {
		t.Fatalf("zero-length payload CRC mismatch under a quiet plane: %+v", s)
	}
}

// TestShardSingleDegenerateTransport: the N=1 machine has a transport
// with no peers. Enabling the reliable protocol must be a no-op on the
// wire — zero sends, zero retransmits — while the
// trajectory stays bitwise the monolithic one.
func TestShardSingleDegenerateTransport(t *testing.T) {
	skipShort(t)
	const steps = 40

	ref := smallWaterEngine(t, 1, nil)
	ref.Step(steps)

	sh := smallWaterSharded(t, 1, nil)
	plane := faults.New(faults.Spec{Seed: 9}, sh.Shards())
	if err := sh.EnableFaults(chaosConfig(plane)); err != nil {
		t.Fatal(err)
	}
	sh.Step(steps)
	assertBitwise(t, sh, ref, "single shard reliable")

	if s := sh.TransportStats(); s != (TransportStats{}) {
		t.Fatalf("degenerate transport carried traffic: %+v", s)
	}
	if rep := sh.FaultReport(); rep.Recoveries != 0 {
		t.Fatalf("quiet single-shard run recovered %d times", rep.Recoveries)
	}
}

// TestShardMigrationCoincidesWithRefresh: with MigrationInterval ==
// MTSInterval, every migration lands on a long-range refresh step, so
// the migration messages and the full mesh + exclusion-correction
// exchange share the same tick. Bitwise invariance must hold for both
// the plain and the reliable transport.
func TestShardMigrationCoincidesWithRefresh(t *testing.T) {
	skipShort(t)
	const steps = 60
	edit := func(c *Config) { c.MigrationInterval = c.MTSInterval }

	ref := smallWaterEngine(t, 1, edit)
	ref.Step(steps)

	plain := smallWaterSharded(t, 8, edit)
	plain.Step(steps)
	assertBitwise(t, plain, ref, "migration-on-refresh plain")
	if plain.E.Stats.Migrations < steps/plain.E.Cfg.MigrationInterval {
		t.Fatalf("run crossed only %d migrations", plain.E.Stats.Migrations)
	}

	rel := smallWaterSharded(t, 8, edit)
	plane := faults.New(faults.Spec{Seed: 9}, rel.Shards())
	if err := rel.EnableFaults(chaosConfig(plane)); err != nil {
		t.Fatal(err)
	}
	rel.Step(steps)
	assertBitwise(t, rel, ref, "migration-on-refresh reliable")
}
