package core

import (
	"testing"

	"anton/internal/faults"
)

// Streaming-pipeline tests: the per-subbox readiness ledger executes
// dependency groups in arrival order, so these campaigns deliberately
// scramble arrival (delay- and stall-heavy planes, no drops masking the
// reordering behind retransmit serialization) and assert the trajectory
// is still bitwise the monolithic one, with the retransmit volume inside
// the bound the settle rule implies.

// TestStreamChaosReorder: 150 steps at 8 shards (migrations and
// long-range refreshes inside the window) under two planes — a
// delay/stall campaign that reorders frame arrival across dependency
// groups, and a lossy one (drops, corruption, duplicates, one crash) that
// drives the CRC/ack/retransmit/rollback machinery — each on both
// schedules of stage A. Bitwise invariance plus a hard retransmit bound:
// every envelope settles by attempt SafeAttempt+2, so retransmits can
// never exceed Sends*(SafeAttempt+1).
func TestStreamChaosReorder(t *testing.T) {
	skipShort(t)
	const steps = 150

	ref := smallWaterEngine(t, 1, nil)
	ref.Step(steps)

	planes := []struct{ name, spec string }{
		{"reorder", "seed=11,delay=0.25,stall=0.01,maxstall=3ms"},
		{"lossy", "seed=17,drop=0.03,corrupt=0.01,dup=0.02,crashes=1,horizon=100"},
	}
	for _, pl := range planes {
		for _, fill := range []bool{true, false} {
			name := pl.name + "-fill"
			if !fill {
				name = pl.name + "-nofill"
			}
			t.Run(name, func(t *testing.T) {
				sp, err := faults.ParseSpec(pl.spec)
				if err != nil {
					t.Fatal(err)
				}
				sh := smallWaterSharded(t, 8, nil)
				sh.SetOverlap(fill)
				plane := faults.New(sp, sh.Shards())
				if err := sh.EnableFaults(chaosConfig(plane)); err != nil {
					t.Fatal(err)
				}
				sh.Step(steps)
				assertBitwise(t, sh, ref, name)

				rep := sh.FaultReport()
				if rep.Recoveries < int64(sp.Crashes) {
					t.Fatalf("recoveries = %d, want >= %d (the scheduled crash never fired)", rep.Recoveries, sp.Crashes)
				}
				ts := rep.Transport
				if ts.Sends == 0 {
					t.Fatal("campaign carried no remote traffic")
				}
				if bound := ts.Sends * int64(sp.SafeAttempt+1); ts.Retransmits > bound {
					t.Fatalf("retransmits %d exceed the settle bound %d (sends %d, safe attempt %d)",
						ts.Retransmits, bound, ts.Sends, sp.SafeAttempt)
				}
				if ts.BlockedNs == 0 && ts.OverlapNs == 0 {
					t.Fatal("streaming loop recorded no overlap/blocked time at all")
				}
				if !fill && ts.OverlapNs != 0 {
					t.Fatalf("no-fill schedule ran %d ns of work inside the receive loop", ts.OverlapNs)
				}
				if ts.PosWireBytes == 0 || ts.ForceWireBytes == 0 {
					t.Fatalf("compressed frames carried no bytes: %+v", ts)
				}
			})
		}
	}
}

// TestStreamChaosReorder64: the same scrambling at 64 shards, where most
// shards have several dependency groups per exchange, for a shorter
// window that still crosses migrations and refreshes — plus one
// scheduled shard crash, so crash -> rollback -> replay at 64 shards is
// held to the same bitwise contract.
func TestStreamChaosReorder64(t *testing.T) {
	skipShort(t)
	const steps = 60

	ref := smallWaterEngine(t, 1, nil)
	ref.Step(steps)

	sp, err := faults.ParseSpec("seed=13,delay=0.15,dup=0.05,stall=0.004,maxstall=2ms,crashes=1,horizon=45")
	if err != nil {
		t.Fatal(err)
	}
	sh := smallWaterSharded(t, 64, nil)
	plane := faults.New(sp, sh.Shards())
	if err := sh.EnableFaults(chaosConfig(plane)); err != nil {
		t.Fatal(err)
	}
	sh.Step(steps)
	assertBitwise(t, sh, ref, "stream reorder 64 shards")
	if got := sh.FaultReport().Recoveries; got < 1 {
		t.Fatalf("recoveries = %d, want >= 1 (the scheduled crash never fired)", got)
	}

	ts := sh.TransportStats()
	if bound := ts.Sends * int64(sp.SafeAttempt+1); ts.Retransmits > bound {
		t.Fatalf("retransmits %d exceed the settle bound %d (sends %d)",
			ts.Retransmits, bound, ts.Sends)
	}
}

// TestStreamBarrierEscapeHatch: SetOverlap(false) is the no-fill schedule
// of the same stages — bitwise the same trajectory and, because frame
// sizes are a function of the trajectory and not the schedule, exactly
// the bytes of a fill run; only the overlap accounting stays zero.
func TestStreamBarrierEscapeHatch(t *testing.T) {
	skipShort(t)
	const steps = 80

	ref := smallWaterEngine(t, 1, nil)
	ref.Step(steps)

	fill := smallWaterSharded(t, 8, nil)
	fill.Step(steps)
	assertBitwise(t, fill, ref, "fill schedule 8 shards")
	want := fill.TransportStats()

	sh := smallWaterSharded(t, 8, nil)
	sh.SetOverlap(false)
	if sh.Overlap() {
		t.Fatal("SetOverlap(false) did not stick")
	}
	sh.Step(steps)
	assertBitwise(t, sh, ref, "no-fill schedule 8 shards")

	ts := sh.TransportStats()
	if ts.OverlapNs != 0 {
		t.Fatalf("no-fill schedule recorded %d ns of overlap", ts.OverlapNs)
	}
	if ts.BlockedNs == 0 {
		t.Fatal("no-fill schedule recorded no blocked-on-recv time (the A/B baseline)")
	}
	if ts.PosWireBytes == 0 || ts.ForceWireBytes == 0 ||
		ts.PosRawBytes != want.PosRawBytes || ts.PosWireBytes != want.PosWireBytes ||
		ts.ForceRawBytes != want.ForceRawBytes || ts.ForceWireBytes != want.ForceWireBytes {
		t.Fatalf("wire accounting depends on the schedule:\n  fill:    %+v\n  no-fill: %+v", want, ts)
	}
}

// TestStreamWireDeterminism: the wire byte counts are a function of the
// trajectory, not the schedule — two identical streaming runs must agree
// exactly, and the frames must actually compress (wire < raw) for the
// small-displacement payloads MD produces.
func TestStreamWireDeterminism(t *testing.T) {
	skipShort(t)
	const steps = 60

	var first TransportStats
	for run := 0; run < 2; run++ {
		sh := smallWaterSharded(t, 8, nil)
		sh.Step(steps)
		if err := sh.Err(); err != nil {
			t.Fatalf("run %d parked: %v", run, err)
		}
		ts := sh.TransportStats()
		if ts.PosRawBytes == 0 || ts.PosWireBytes == 0 {
			t.Fatalf("run %d carried no position frames: %+v", run, ts)
		}
		if ts.PosWireBytes >= ts.PosRawBytes {
			t.Fatalf("run %d: position frames did not compress: wire %d >= raw %d",
				run, ts.PosWireBytes, ts.PosRawBytes)
		}
		if ts.ForceWireBytes >= ts.ForceRawBytes {
			t.Fatalf("run %d: force frames did not compress: wire %d >= raw %d",
				run, ts.ForceWireBytes, ts.ForceRawBytes)
		}
		if run == 0 {
			first = ts
		} else if ts.PosRawBytes != first.PosRawBytes || ts.PosWireBytes != first.PosWireBytes ||
			ts.ForceRawBytes != first.ForceRawBytes || ts.ForceWireBytes != first.ForceWireBytes {
			t.Fatalf("wire accounting differs across identical runs:\n  run 0: %+v\n  run 1: %+v", first, ts)
		}
	}
}

// TestStreamOverlapToggleMidRun: flipping the schedule between Step
// calls must not disturb the trajectory — both advance the same codec
// state over the same frames, so the toggle needs no resync.
func TestStreamOverlapToggleMidRun(t *testing.T) {
	skipShort(t)
	const steps = 120 // 3 × 40, toggling each leg

	ref := smallWaterEngine(t, 1, nil)
	ref.Step(steps)

	sh := smallWaterSharded(t, 8, nil)
	for leg := 0; leg < 3; leg++ {
		sh.SetOverlap(leg%2 == 0)
		sh.Step(40)
	}
	assertBitwise(t, sh, ref, "overlap toggled mid-run")
}
