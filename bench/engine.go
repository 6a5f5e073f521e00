package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"anton/internal/core"
	"anton/internal/obs"
	"anton/internal/system"
)

// golden.json holds, for seed 1, the state digest after the setup step
// plus goldenCycles cycles of each engine workload, and the final digest
// of each service job spec. An intentional arithmetic change is a
// declared re-baseline: run seed 1 and copy the digests the misses print.
//
//go:embed golden.json
var goldenJSON []byte

var golden = func() map[string]string {
	g := make(map[string]string)
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("bench: golden.json: " + err.Error())
	}
	return g
}()

const (
	goldenSeed   = 1
	goldenCycles = 2
	// refCycles is the cross-check window of the small workloads: a
	// reference built the other way (1 worker, or monolithic for the
	// sharded run) must reach the same digest.
	refCycles = 25
	// dhfrCycles is the least number of cycles dhfr_mono times, however
	// slow the host: its median needs them.
	dhfrCycles = 6
)

// setupReps is how many fresh constructions a sub-second set-up is the
// median of. bench_test.go lowers it.
var setupReps = 9

// engineWorkload is one of the three workloads that step a core.Sim
// directly. All get core.DefaultConfig(8) and default Workers.
type engineWorkload struct {
	name   string
	system func(seed int64) (*system.System, error)
	shards int // 0 = monolithic core.Engine

	// big marks DHFR scale: dhfrCycles cycles are timed however slow the
	// host, a reference rerun is too slow for the timed run (a checkpoint
	// round trip stands in), and the traced run carries the probes that
	// want the big state (1-worker baseline, checkpoint).
	big bool
	// layerProbes makes the traced run measure the layers under core.
	layerProbes bool
}

// dhfrSystem builds the paper's yardstick system. bench_test.go swaps in
// the small system so the test stays fast.
var dhfrSystem = func(int64) (*system.System, error) { return system.ByName("DHFR") }

func smallSystem(seed int64) (*system.System, error) { return system.Small(true, seed) }

var (
	dhfrMono    = engineWorkload{name: "dhfr_mono", system: func(seed int64) (*system.System, error) { return dhfrSystem(seed) }, big: true}
	smallMono   = engineWorkload{name: "small_mono", system: smallSystem, layerProbes: true}
	smallShard8 = engineWorkload{name: "small_shard8", system: smallSystem, shards: 8}
)

// sim is a constructed simulation: the stepping surface plus the engine
// underneath for read-only reporting.
type sim struct {
	core.Sim
	eng *core.Engine
	sh  *core.Sharded // nil when monolithic
}

func (s *sim) close() {
	if s.sh != nil {
		s.sh.Close()
	}
}

func digestHex(s core.Sim) string { return fmt.Sprintf("%016x", s.StateDigest()) }

// build constructs the workload's system and simulation with velocities
// drawn from seed. It returns the system-build time on its own: that is
// the system layer's share of set-up.
func (w engineWorkload) build(seed int64, shards, workers int, tr *tracer, parent *span) (*sim, time.Duration, error) {
	sp := tr.begin("build", parent)
	t0 := time.Now()
	sys, err := w.system(seed)
	buildDur := time.Since(t0)
	sp.end()
	if err != nil {
		return nil, 0, err
	}
	sp = tr.begin("engine", parent)
	defer sp.end()
	cfg := core.DefaultConfig(8)
	cfg.Workers = workers
	s := &sim{}
	if shards > 0 {
		cfg.Nodes = shards
		if s.sh, err = core.NewSharded(sys, cfg); err != nil {
			return nil, 0, err
		}
		s.Sim, s.eng = s.sh, s.sh.Engine()
	} else {
		if s.eng, err = core.NewEngine(sys, cfg); err != nil {
			return nil, 0, err
		}
		s.Sim = s.eng
	}
	s.eng.SetVelocities(system.InitVelocities(sys.Top, 300, rand.New(rand.NewSource(seed))))
	return s, buildDur, nil
}

// repeatSetup times fresh constructions for setup_s. The first counts
// from process start; when it takes under 1 s, more follow, setupReps in
// all, and the median is reported. construct builds under the given
// "setup" span, releasing what the previous call built; the last
// construction is the one the run goes on to use.
func repeatSetup(rc runConfig, rep *report, parent *span, construct func(sp *span) error) error {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if i == 0 {
			start = procStart
		}
		sp := rc.tr.add("setup", parent, 0, start, time.Time{})
		err := construct(sp)
		sp.end()
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		if setups[0] >= 1 {
			break
		}
	}
	rep.set("setup_s", median(setups), len(setups))
	return nil
}

// setup constructs the workload and runs its first step.
func (w engineWorkload) setup(rc runConfig, rep *report, parent *span) (*sim, error) {
	var s *sim
	var builds []float64
	err := repeatSetup(rc, rep, parent, func(sp *span) error {
		if s != nil {
			s.close()
		}
		var buildDur time.Duration
		var err error
		if s, buildDur, err = w.build(rc.Seed, w.shards, 0, rc.tr, sp); err != nil {
			return err
		}
		builds = append(builds, ms(buildDur))
		fs := rc.tr.begin("first-step", sp)
		s.Step(1)
		fs.end()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if rc.Trace {
		rep.set("system.build_ms", median(builds), len(builds))
	}
	return s, nil
}

// The step kinds, by step index; the names double as span names.
const (
	stepShort     = "step:short"
	stepLong      = "step:long"      // long-range evaluation
	stepMigration = "step:migration" // long-range evaluation and migration
)

// stepTimes is what timing Step(1) calls from outside yields.
type stepTimes struct {
	cycleLen int                  // steps per cycle
	cycleMs  []float64            // wall per cycle
	kindMs   map[string][]float64 // wall per Step(1), by step kind
	steps    int
	wall     time.Duration // sum of the cycle walls
}

// stepMsP50 is the median cycle's wall per step.
func (st stepTimes) stepMsP50() float64 { return median(st.cycleMs) / float64(st.cycleLen) }

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// timeCycles steps s one Step(1) at a time in whole cycles (the lcm of
// the MTS and migration intervals, so every cycle holds the same work)
// until budget has passed and at least minCycles are done. afterCycle
// runs outside the timed interval.
func timeCycles(s *sim, budget time.Duration, minCycles int, tr *tracer, parent *span, afterCycle func(done int)) stepTimes {
	cfg := s.eng.Cfg
	cycleLen := cfg.MTSInterval * cfg.MigrationInterval / gcd(cfg.MTSInterval, cfg.MigrationInterval)
	st := stepTimes{cycleLen: cycleLen, kindMs: make(map[string][]float64)}
	for st.wall < budget || len(st.cycleMs) < minCycles {
		cycleStart := time.Now()
		csp := tr.add("cycle", parent, 0, cycleStart, time.Time{})
		t0 := cycleStart
		for i := 0; i < cycleLen; i++ {
			s.Step(1)
			t1 := time.Now()
			kind := stepShort
			switch k := s.StepCount(); {
			case k%cfg.MigrationInterval == 0 && k%cfg.MTSInterval == 0:
				kind = stepMigration
			case k%cfg.MTSInterval == 0:
				kind = stepLong
			}
			st.kindMs[kind] = append(st.kindMs[kind], ms(t1.Sub(t0)))
			tr.add(kind, csp, 0, t0, t1)
			t0 = t1
		}
		csp.end()
		cycle := t0.Sub(cycleStart)
		st.cycleMs = append(st.cycleMs, ms(cycle))
		st.wall += cycle
		st.steps += cycleLen
		if afterCycle != nil {
			afterCycle(len(st.cycleMs))
		}
	}
	return st
}

// reportSteps sets the per-layer core step metrics from untraced
// per-step timings.
func reportSteps(rep *report, st stepTimes, mem0, mem1 *runtime.MemStats) {
	short, long, mig := median(st.kindMs[stepShort]), median(st.kindMs[stepLong]), median(st.kindMs[stepMigration])
	rep.set("core.step_short_ms", short, len(st.kindMs[stepShort]))
	rep.set("core.step_long_ms", long, len(st.kindMs[stepLong]))
	rep.set("core.longrange_ms", long-short, len(st.kindMs[stepLong]))
	rep.set("core.migration_ms", mig-long, len(st.kindMs[stepMigration]))
	rep.set("core.cycle_ms_p90", quantile(st.cycleMs, 0.9), len(st.cycleMs))
	rep.set("core.allocs_per_step", float64(mem1.Mallocs-mem0.Mallocs)/float64(st.steps), st.steps)
	rep.set("core.bytes_per_step", float64(mem1.TotalAlloc-mem0.TotalAlloc)/float64(st.steps), st.steps)
}

// run is the whole workload: setup, timed cycles, correctness checks
// and, in the traced run, the per-layer measurements.
func (w engineWorkload) run(rc runConfig, rep *report, root *span) error {
	s, err := w.setup(rc, rep, root)
	if err != nil {
		return err
	}
	defer s.close()
	// The digest windows: [0, setup step + goldenCycles cycles] against
	// golden.json, [0, setup step + refAt cycles] against a reference
	// built the other way.
	refAt := rc.scaled(refCycles, goldenCycles)
	var goldenDigest, refDigest string
	var refStep int
	grab := func(done int) {
		if done == goldenCycles {
			goldenDigest = digestHex(s)
		}
		if done == refAt {
			refDigest, refStep = digestHex(s), s.StepCount()
		}
	}

	budget := time.Duration(rc.Seconds * float64(time.Second))
	minCycles := refAt
	if w.big {
		minCycles = rc.scaled(dhfrCycles, goldenCycles)
	}
	if rc.Trace {
		budget /= 3
		if w.big {
			minCycles = goldenCycles
		}
	}
	// This loop records no span per cycle or step, in the traced run
	// either: its timings and allocation counts are the untraced ones.
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	lsp := rc.tr.begin("timed-loop", root)
	st := timeCycles(s, budget, minCycles, nil, nil, grab)
	lsp.end()
	runtime.ReadMemStats(&mem1)

	p50 := st.stepMsP50()
	rep.set("step_ms_p50", p50, len(st.cycleMs))
	stepsPerS := float64(st.steps) / st.wall.Seconds()
	rep.set("steps_per_s", stepsPerS, st.steps)
	info("ns_per_day", stepsPerS*s.eng.Cfg.Dt*1e-6*86400, "ns/day")
	// Before the checks and probes build further engines: the workload's
	// own memory, not the harness's.
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", rss, 1)

	csp := rc.tr.begin("checks", root)
	if rc.Seed == goldenSeed {
		want := golden[w.name]
		rep.check(goldenDigest == want, "%s: digest after %d cycles %s, golden.json %s", w.name, goldenCycles, goldenDigest, want)
	}
	if w.big {
		err = w.checkCheckpoint(rc, rep, s)
	} else {
		err = w.checkReference(rc, rep, refStep, refDigest)
	}
	csp.end()
	if err != nil {
		return err
	}

	if rc.Trace {
		reportSteps(rep, st, &mem0, &mem1)
		if w.shards > 0 {
			if err := w.traceSharded(rc, rep, root, s, budget, p50); err != nil {
				return err
			}
		} else {
			traceMono(rc, rep, root, s, budget, p50)
		}
		if w.big {
			if err := w.probeWorkers1(rc, rep, root, p50, goldenDigest); err != nil {
				return err
			}
			if err := probeCheckpoint(rc, rep, root, s); err != nil {
				return err
			}
		}
		if w.layerProbes {
			if err := probeSmallLayers(rc, rep, root, p50); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkReference runs the workload's system the other way — the sharded
// workload through the monolithic engine, the monolithic one with a
// single worker — and requires the same digest at refStep: one state
// digest across worker and shard count.
func (w engineWorkload) checkReference(rc runConfig, rep *report, refStep int, got string) error {
	workers, how := 1, "1 worker"
	if w.shards > 0 {
		workers, how = 0, "monolithic"
	}
	ref, _, err := w.build(rc.Seed, 0, workers, nil, nil)
	if err != nil {
		return err
	}
	ref.Step(refStep)
	want := digestHex(ref)
	rep.check(got == want, "%s: digest at step %d %s, %s reference %s", w.name, refStep, got, how, want)
	return nil
}

// checkCheckpoint requires a checkpoint of the final state to restore
// into a freshly built engine with the digest unchanged (the reference
// runs above are too slow at DHFR scale for the timed run; the traced
// run adds the 1-worker one).
func (w engineWorkload) checkCheckpoint(rc runConfig, rep *report, s *sim) error {
	dir, err := os.MkdirTemp(rc.outDir(), "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "final.ckpt")
	if err := s.WriteCheckpointFile(path); err != nil {
		return err
	}
	fresh, _, err := w.build(rc.Seed, 0, 0, nil, nil)
	if err != nil {
		return err
	}
	restoreErr := fresh.RestoreCheckpointFile(path)
	got, want := digestHex(fresh), digestHex(s)
	rep.check(restoreErr == nil && got == want,
		"%s: checkpoint at step %d restores to digest %s, engine has %s (restore error: %v)", w.name, s.StepCount(), got, want, restoreErr)
	return nil
}

// table2 is the paper's Table 2 commodity column (DHFR, 13 Å / 32³, one
// 2008 Xeon core), the external yardstick, in ms per evaluation.
var table2 = []struct {
	name   string
	ms     float64
	phases []obs.Phase
}{
	{"range-limited", 170, []obs.Phase{obs.PhasePairGather, obs.PhasePairMatch, obs.PhasePairReduce}},
	{"mesh spread+interp", 9.4, []obs.Phase{obs.PhaseMeshSpread, obs.PhaseMeshInterp}},
	{"FFT", 1.5, []obs.Phase{obs.PhaseFFT}},
}

// traceMono attaches an obs.Recorder and times another segment: phase
// time per step, what the phases leave unaccounted, the HTIS counters,
// and the price of the instrumentation itself against the untraced p50.
func traceMono(rc runConfig, rep *report, root *span, s *sim, budget time.Duration, untracedP50 float64) {
	rec := obs.NewRecorder()
	s.eng.Observe(rec)
	sp := rc.tr.begin("traced-loop", root)
	st := timeCycles(s, budget, 1, rc.tr, sp, nil)
	sp.end()
	snap := rec.Snapshot()
	s.eng.Observe(nil)

	steps := float64(st.steps)
	var phaseMs [obs.NumPhases]float64
	for p := obs.Phase(0); p < obs.NumPhases; p++ {
		phaseMs[p] = float64(snap.Phases[p].Ns) / 1e6 / steps
		rep.set("core.phase."+p.String()+"_ms", phaseMs[p], int(snap.Phases[p].Calls))
	}
	rep.set("core.phase_unaccounted_pct", 100*float64(st.wall.Nanoseconds()-snap.PhaseWallNs)/float64(st.wall.Nanoseconds()), st.steps)
	rep.set("core.match_efficiency", snap.MatchEfficiency, st.steps)
	rep.set("core.pairs_computed_per_step", float64(snap.Counters[obs.CtrPairsComputed].Value)/steps, st.steps)
	evals := snap.Counters[obs.CtrLongRangeEvals].Value
	rep.set("core.mesh_interactions_per_eval", float64(snap.Counters[obs.CtrMeshInteractions].Value)/float64(evals), int(evals))
	tracedP50 := st.stepMsP50()
	rep.set("obs.overhead_pct", 100*(tracedP50-untracedP50)/untracedP50, len(st.cycleMs))

	if s.eng.Sys.Name == "DHFR" {
		// Pair phases run every step, mesh phases every MTS interval.
		perEval := float64(s.eng.Cfg.MTSInterval)
		fmt.Println("Table 2 commodity column (one 2008 Xeon core) beside this host, ms per evaluation:")
		for i, row := range table2 {
			var here float64
			for _, p := range row.phases {
				here += phaseMs[p]
			}
			if i > 0 {
				here *= perEval
			}
			fmt.Printf("  %-20s paper %7.1f   here %9.1f\n", row.name, row.ms, here)
		}
		fmt.Printf("  %-20s paper %7.1f   here %9.1f (long step)\n", "step", 191.0, median(st.kindMs[stepLong]))
	}
}

// traceSharded reads the transport's own accounting over a streaming
// segment, then times the barrier pipeline and a monolithic engine on
// the same system for the two comparisons.
func (w engineWorkload) traceSharded(rc runConfig, rep *report, root *span, s *sim, budget time.Duration, streamP50 float64) error {
	comm0, err := s.sh.Comm()
	if err != nil {
		return err
	}
	ts0 := s.sh.TransportStats()
	sp := rc.tr.begin("traced-loop", root)
	st := timeCycles(s, budget, 1, rc.tr, sp, nil)
	sp.end()
	ts1 := s.sh.TransportStats()
	comm1, err := s.sh.Comm()
	if err != nil {
		return err
	}
	m0, m1 := comm0.Measured, comm1.Measured
	steps := float64(st.steps)
	shardWall := float64(st.wall.Nanoseconds()) * float64(s.sh.Shards())
	rep.set("core.shard.blocked_share", float64(ts1.BlockedNs-ts0.BlockedNs)/shardWall, st.steps)
	rep.set("core.shard.overlap_share", float64(ts1.OverlapNs-ts0.OverlapNs)/shardWall, st.steps)
	msgs := (m1.ImportMsgs + m1.ExportMsgs + m1.MeshMsgs + m1.MigrationMsgs) -
		(m0.ImportMsgs + m0.ExportMsgs + m0.MeshMsgs + m0.MigrationMsgs)
	rep.set("core.shard.msgs_per_step", float64(msgs)/steps, st.steps)
	wire := (ts1.PosWireBytes + ts1.ForceWireBytes) - (ts0.PosWireBytes + ts0.ForceWireBytes)
	raw := (ts1.PosRawBytes + ts1.ForceRawBytes) - (ts0.PosRawBytes + ts0.ForceRawBytes)
	rep.set("core.shard.wire_bytes_per_step", float64(wire)/steps, st.steps)
	rep.set("core.shard.compression_ratio", float64(raw)/float64(wire), st.steps)
	rep.set("core.shard.retransmits", float64(ts1.Retransmits-ts0.Retransmits), st.steps)

	s.sh.SetOverlap(false)
	sp = rc.tr.begin("barrier-loop", root)
	bst := timeCycles(s, budget/2, 1, rc.tr, sp, nil)
	sp.end()
	s.sh.SetOverlap(true)
	rep.set("core.shard.barrier_step_ms", bst.stepMsP50(), len(bst.cycleMs))

	mono, _, err := w.build(rc.Seed, 0, 0, nil, nil)
	if err != nil {
		return err
	}
	mono.Step(1)
	sp = rc.tr.begin("mono-loop", root)
	mst := timeCycles(mono, budget/2, 1, rc.tr, sp, nil)
	sp.end()
	rep.set("core.shard.vs_mono_ratio", streamP50/mst.stepMsP50(), len(mst.cycleMs))
	return nil
}

// probeWorkers1 runs the workload with Workers=1: the single-threaded
// baseline, the scaling efficiency of the default worker count, and —
// since the trajectory must not depend on the worker count — one more
// digest check.
func (w engineWorkload) probeWorkers1(rc runConfig, rep *report, root *span, defaultP50 float64, goldenDigest string) error {
	sp := rc.tr.begin("probe:workers1", root)
	defer sp.end()
	one, _, err := w.build(rc.Seed, 0, 1, rc.tr, sp)
	if err != nil {
		return err
	}
	one.Step(1)
	st := timeCycles(one, 0, goldenCycles, rc.tr, sp, nil)
	got := digestHex(one)
	rep.check(got == goldenDigest, "%s: digest after %d cycles with 1 worker %s, default workers %s", w.name, goldenCycles, got, goldenDigest)
	p50 := st.stepMsP50()
	rep.set("core.workers1_step_ms", p50, len(st.cycleMs))
	rep.set("core.worker_speedup", p50/defaultP50, len(st.cycleMs))
	return nil
}
