package core

import (
	"testing"

	"anton/internal/faults"
)

// Shard force-evaluation tests: frames arrive in whatever order the
// transport delivers them, so these campaigns deliberately scramble
// arrival (delay- and stall-heavy planes, no drops masking the
// reordering behind retransmit serialization) and assert the trajectory
// is still bitwise the monolithic one, with the retransmit volume inside
// the bound the settle rule implies.

// TestStreamChaosReorder: 150 steps at 8 shards (migrations and
// long-range refreshes inside the window) under two planes — a
// delay/stall campaign that reorders frame arrival, and a lossy one
// (drops, corruption, duplicates, one crash) that drives the
// CRC/ack/retransmit/rollback machinery. Bitwise invariance plus a hard
// retransmit bound: every envelope settles by attempt SafeAttempt+2, so
// retransmits can never exceed Sends*(SafeAttempt+1).
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
		t.Run(pl.name, func(t *testing.T) {
			sp, err := faults.ParseSpec(pl.spec)
			if err != nil {
				t.Fatal(err)
			}
			sh := smallWaterSharded(t, 8, nil)
			plane := faults.New(sp, sh.Shards())
			if err := sh.EnableFaults(chaosConfig(plane)); err != nil {
				t.Fatal(err)
			}
			sh.Step(steps)
			assertBitwise(t, sh, ref, pl.name)

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
			if ts.BlockedNs == 0 {
				t.Fatal("receive loop recorded no blocked time at all")
			}
			if ts.PosWireBytes == 0 || ts.ForceWireBytes == 0 {
				t.Fatalf("frames carried no bytes: %+v", ts)
			}
		})
	}
}

// TestStreamChaosReorder64: the same scrambling at 64 shards, where most
// shards wait on many more senders per exchange, for a shorter
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

// TestStreamWireDeterminism: the wire byte counts are a function of the
// trajectory, not of arrival order — two identical runs must agree
// exactly. Position frames are exactly their payload; force frames must
// compress (wire < raw) for the small components MD produces.
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
		if ts.PosWireBytes != ts.PosRawBytes {
			t.Fatalf("run %d: position frames are %d B for a %d B payload",
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
