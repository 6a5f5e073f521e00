package core

import (
	"testing"
	"time"

	"anton/internal/faults"
	"anton/internal/obs/health"
)

// Chaos tests: the fault-tolerance acceptance contract. Under any seeded
// fault schedule — drops, duplicates, delays, corruption, stalls, shard
// crashes with checkpoint-rollback recovery — the sharded trajectory must
// stay bitwise identical to the fault-free monolithic run. Wall-clock
// observables (retransmit counts, recovery latency) are asserted only
// directionally; the physics is asserted exactly.

// chaosSpec is the full-mix campaign used by the invariance tests: every
// fault class at rates high enough that each is actually exercised over a
// 200-step run, plus two crash-recovery cycles inside the horizon.
func chaosSpec(t *testing.T, crashes int) faults.Spec {
	t.Helper()
	sp, err := faults.ParseSpec(
		"seed=7,drop=0.03,dup=0.02,delay=0.03,corrupt=0.01,stall=0.004,maxstall=5ms,horizon=150")
	if err != nil {
		t.Fatal(err)
	}
	sp.Crashes = crashes
	return sp
}

// chaosConfig wires a test-scale supervisor: a short heartbeat so crash
// detection (one to two heartbeats) stays inside test budgets.
func chaosConfig(plane *faults.Plane) FaultConfig {
	return FaultConfig{
		Plane:           plane,
		CheckpointEvery: 10,
		Heartbeat:       250 * time.Millisecond,
	}
}

func assertBitwise(t *testing.T, sh *Sharded, ref *Engine, label string) {
	t.Helper()
	if err := sh.Err(); err != nil {
		t.Fatalf("%s: engine parked: %v", label, err)
	}
	rp, rv := ref.Snapshot()
	p, v := sh.Snapshot()
	for i := range rp {
		if p[i] != rp[i] || v[i] != rv[i] {
			t.Fatalf("%s: state of atom %d differs from the fault-free monolithic run", label, i)
		}
	}
}

// TestChaosTrajectoryInvariance is the acceptance criterion: 200 steps on
// 8 shards under a campaign injecting every fault class and two shard
// crashes, with migrations, long-range refreshes and checkpoint restores
// inside the window — final positions and velocities bitwise identical to
// the fault-free monolithic run.
func TestChaosTrajectoryInvariance(t *testing.T) {
	skipShort(t)
	const steps = 200

	ref := smallWaterEngine(t, 1, nil)
	ref.Step(steps)

	sh := smallWaterSharded(t, 8, nil)
	plane := faults.New(chaosSpec(t, 2), sh.Shards())
	var events []RecoveryEvent
	cfg := chaosConfig(plane)
	cfg.OnRecovery = func(ev RecoveryEvent) { events = append(events, ev) }
	if err := sh.EnableFaults(cfg); err != nil {
		t.Fatal(err)
	}
	sh.Step(steps)
	assertBitwise(t, sh, ref, "chaos 8 shards")

	rep := sh.FaultReport()
	if rep.Injected.Drops == 0 || rep.Injected.Dups == 0 ||
		rep.Injected.Delays == 0 || rep.Injected.Corrupts == 0 ||
		rep.Injected.Stalls == 0 {
		t.Fatalf("campaign did not exercise every fault class: %+v", rep.Injected)
	}
	if rep.Injected.CrashesFired != 2 {
		t.Fatalf("fired %d crashes, want 2 (schedule %v)", rep.Injected.CrashesFired, plane.Schedule())
	}
	if rep.Recoveries < 2 {
		t.Fatalf("recoveries = %d, want >= 2 (one per crash)", rep.Recoveries)
	}
	if rep.Transport.Retransmits == 0 || rep.Transport.CrcDiscards == 0 || rep.Transport.DupDiscards == 0 {
		t.Fatalf("transport machinery unexercised: %+v", rep.Transport)
	}
	for _, ev := range events {
		if !ev.Spurious && ev.RestoredStep > ev.DetectedStep {
			t.Fatalf("recovery restored forward: %+v", ev)
		}
	}
	if sh.E.Stats.Migrations < 2 {
		t.Fatalf("run crossed only %d migrations", sh.E.Stats.Migrations)
	}
}

// TestChaosReplayDeterminism: the same seed replays the same campaign —
// same crash schedule, same injected-fault tallies for the schedule-pure
// classes, and (the point) the same bitwise trajectory.
func TestChaosReplayDeterminism(t *testing.T) {
	skipShort(t)
	const steps = 120

	ref := smallWaterEngine(t, 1, nil)
	ref.Step(steps)

	var schedules [2][]faults.CrashEvent
	for run := 0; run < 2; run++ {
		sh := smallWaterSharded(t, 8, nil)
		plane := faults.New(chaosSpec(t, 1), sh.Shards())
		schedules[run] = plane.Schedule()
		if err := sh.EnableFaults(chaosConfig(plane)); err != nil {
			t.Fatal(err)
		}
		sh.Step(steps)
		assertBitwise(t, sh, ref, "replay run")
		if got := sh.FaultReport().Injected.CrashesFired; got != 1 {
			t.Fatalf("run %d fired %d crashes, want 1", run, got)
		}
		sh.Close()
	}
	if len(schedules[0]) != len(schedules[1]) || schedules[0][0] != schedules[1][0] {
		t.Fatalf("crash schedules differ across replays: %v vs %v", schedules[0], schedules[1])
	}
}

// TestChaosRepeatedCrash: an executor is a goroutine, so it is respawned
// however often it dies — there is no restart budget to run out of. One
// shard crashing three times, as the only shard of the machine and as one
// of eight, finishes bitwise identical with one recovery per crash.
func TestChaosRepeatedCrash(t *testing.T) {
	skipShort(t)
	const steps, crashes = 80, 3

	ref := smallWaterEngine(t, 1, nil)
	ref.Step(steps)

	// sameShard finds the first campaign seed whose crash schedule hits one
	// shard with every crash.
	sameShard := func(shards int) faults.Spec {
		sp := chaosSpec(t, crashes)
		sp.CrashHorizon = 60
		for sp.Seed = 1; sp.Seed < 10000; sp.Seed++ {
			sched := faults.New(sp, shards).Schedule()
			same := true
			for _, ev := range sched {
				same = same && ev.Shard == sched[0].Shard
			}
			if same {
				return sp
			}
		}
		t.Fatalf("no seed crashes one of %d shards %d times", shards, crashes)
		return sp
	}

	for _, shards := range []int{1, 8} {
		sh := smallWaterSharded(t, shards, nil)
		plane := faults.New(sameShard(shards), sh.Shards())
		if err := sh.EnableFaults(chaosConfig(plane)); err != nil {
			t.Fatal(err)
		}
		sh.Step(steps)
		assertBitwise(t, sh, ref, "repeated crash")
		rep := sh.FaultReport()
		if rep.Injected.CrashesFired != crashes || rep.Recoveries < crashes {
			t.Fatalf("%d shards: fired %d crashes (schedule %v), %d recoveries; want %d and >= %d",
				shards, rep.Injected.CrashesFired, plane.Schedule(), rep.Recoveries, crashes, crashes)
		}
		sh.Close()
	}
}

// TestEnableFaultsNilPlane: the supervisor expects acks and epochs, which
// only a plane-carrying exchange runs; a nil plane is refused.
func TestEnableFaultsNilPlane(t *testing.T) {
	sh := smallWaterSharded(t, 1, nil)
	if err := sh.EnableFaults(FaultConfig{}); err == nil {
		t.Fatal("EnableFaults accepted a nil plane")
	}
}

// TestChaosSingleShard: the N=1 degenerate machine has no remote
// transport at all, but stalls and crash-recovery (respawn the one
// executor, roll back, replay) must still work.
func TestChaosSingleShard(t *testing.T) {
	skipShort(t)
	const steps = 80

	ref := smallWaterEngine(t, 1, nil)
	ref.Step(steps)

	sh := smallWaterSharded(t, 1, nil)
	sp := chaosSpec(t, 1)
	sp.CrashHorizon = 60
	plane := faults.New(sp, sh.Shards())
	if err := sh.EnableFaults(chaosConfig(plane)); err != nil {
		t.Fatal(err)
	}
	sh.Step(steps)
	assertBitwise(t, sh, ref, "single shard")
	if got := sh.FaultReport().Recoveries; got < 1 {
		t.Fatalf("recoveries = %d, want >= 1", got)
	}
}

// TestChaosReliableNoFaults: the reliable protocol with a quiet plane —
// CRC stamping, acks, dedup stamps, timers — must be invisible: bitwise
// the monolithic trajectory, zero faults, zero recoveries.
func TestChaosReliableNoFaults(t *testing.T) {
	skipShort(t)
	const steps = 60

	ref := smallWaterEngine(t, 1, nil)
	ref.Step(steps)

	sh := smallWaterSharded(t, 8, nil)
	plane := faults.New(faults.Spec{Seed: 1}, sh.Shards())
	if err := sh.EnableFaults(chaosConfig(plane)); err != nil {
		t.Fatal(err)
	}
	sh.Step(steps)
	assertBitwise(t, sh, ref, "quiet reliable run")

	// Spurious retransmits (a receiver descheduled past the quiescence
	// timeout) are legitimate and timing-dependent; dedup absorbs them.
	// Only the fault-driven counters must be zero.
	rep := sh.FaultReport()
	if rep.Recoveries != 0 || rep.Transport.CrcDiscards != 0 || rep.Injected != (faults.Counts{}) {
		t.Fatalf("quiet plane produced faults: %+v", rep)
	}
	if rep.Transport.Sends == 0 {
		t.Fatal("reliable transport carried no messages")
	}
}

// TestWatchTransportRetryRate: wiring TransportCounts into the health
// watch feeds the retry-storm monitor. A mildly lossy plane produces a
// measured retransmit ratio well under the warn threshold — the monitor
// must have seen samples and stayed latched OK.
func TestWatchTransportRetryRate(t *testing.T) {
	skipShort(t)
	sh := smallWaterSharded(t, 4, nil)
	sp, err := faults.ParseSpec("seed=3,drop=0.02")
	if err != nil {
		t.Fatal(err)
	}
	plane := faults.New(sp, sh.Shards())
	if err := sh.EnableFaults(chaosConfig(plane)); err != nil {
		t.Fatal(err)
	}
	w := NewWatch(sh.E)
	w.WatchTransport(sh.TransportCounts)
	sh.Step(40)
	if err := sh.Err(); err != nil {
		t.Fatal(err)
	}

	var storm *health.MonitorStatus
	st := w.Registry().Status()
	for i := range st.Monitors {
		if st.Monitors[i].Name == "retry-storm" {
			storm = &st.Monitors[i]
		}
	}
	if storm == nil {
		t.Fatal("registry has no retry-storm monitor")
	}
	if !storm.Seen {
		t.Fatal("retry-storm monitor never saw a transport sample")
	}
	if storm.Level != health.SevOK {
		t.Fatalf("mildly lossy transport latched %v (rate %.3g)", storm.Level, storm.Value)
	}
}

// TestWatchRollbackNoFalseAlert: a rollback restores an older state, so
// the watch's migration-drift reference (taken later, on the abandoned
// stretch) no longer matches the trajectory. A crash campaign with the
// watch attached must report exactly the fault-free run's alerts: none.
func TestWatchRollbackNoFalseAlert(t *testing.T) {
	skipShort(t)
	const steps = 60
	plain := smallWaterSharded(t, 8, nil)
	pw := NewWatch(plain.E)
	plain.Step(steps)
	want := pw.Drain()

	sh := smallWaterSharded(t, 8, nil)
	sp, err := faults.ParseSpec("seed=7,crashes=2,horizon=60")
	if err != nil {
		t.Fatal(err)
	}
	cfg := chaosConfig(faults.New(sp, sh.Shards()))
	cfg.CheckpointEvery = 25 // the service's rollback distance
	if err := sh.EnableFaults(cfg); err != nil {
		t.Fatal(err)
	}
	w := NewWatch(sh.E)
	sh.Step(steps)
	if err := sh.Err(); err != nil {
		t.Fatal(err)
	}
	if n := sh.FaultReport().Recoveries; n == 0 {
		t.Fatal("campaign never rolled back")
	}
	if got := w.Drain(); len(got) != 0 || len(want) != 0 {
		t.Fatalf("crash campaign fired %+v, fault-free run %+v; want none", got, want)
	}
}
