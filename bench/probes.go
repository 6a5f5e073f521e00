package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"anton/internal/analysis"
	"anton/internal/core"
	"anton/internal/ewald"
	"anton/internal/fft"
	"anton/internal/fixp"
	"anton/internal/htis"
	"anton/internal/ledger"
	"anton/internal/ppip"
	"anton/internal/refmd"
	"anton/internal/system"
	"anton/internal/vec"
)

// forceErrMax gates core.force_err_num: fixed-point forces against the
// double-precision engine with the same parameters.
const forceErrMax = 1e-4

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

// timeBatch runs fn reps times inside one "batch" span under a probe
// span and returns the wall per rep in ms.
func timeBatch(rc runConfig, probe *span, reps int, fn func()) []float64 {
	sp := rc.tr.begin("batch", probe)
	defer sp.end()
	out := make([]float64, reps)
	for i := range out {
		t0 := time.Now()
		fn()
		out[i] = ms(time.Since(t0))
	}
	return out
}

// probeCheckpoint times WriteCheckpointFile and RestoreCheckpointFile of
// the live state, writes beside reads.
func probeCheckpoint(rc runConfig, rep *report, root *span, s *sim) error {
	sp := rc.tr.begin("probe:checkpoint", root)
	defer sp.end()
	dir, err := os.MkdirTemp(rc.outDir(), "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "probe.ckpt")
	reps := rc.scaled(20, 2)
	var writes, restores []float64
	bsp := rc.tr.begin("batch", sp)
	defer bsp.end()
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := s.WriteCheckpointFile(path); err != nil {
			return err
		}
		t1 := time.Now()
		if err := s.RestoreCheckpointFile(path); err != nil {
			return err
		}
		writes = append(writes, ms(t1.Sub(t0)))
		restores = append(restores, ms(time.Since(t1)))
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	rep.set("core.ckpt_write_ms", median(writes), reps)
	rep.set("core.ckpt_restore_ms", median(restores), reps)
	rep.set("core.ckpt_bytes", float64(fi.Size()), 1)
	return nil
}

// probeSmallLayers measures the layers under core on the small system's
// parameters: the accuracy gate, the PPIP tables, the HTIS pair path,
// the FFT, the double-precision GSE and the reference engine.
func probeSmallLayers(rc runConfig, rep *report, root *span, coreP50 float64) error {
	sys, err := smallSystem(rc.Seed)
	if err != nil {
		return err
	}
	eng, err := core.NewEngine(sys, core.DefaultConfig(8))
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(rc.Seed))

	// Numerical force error at the built state.
	sp := rc.tr.begin("probe:force-error", root)
	eng.Step(0)
	rcfg := refmd.DefaultConfig(sys)
	rcfg.Method = refmd.UseGSE
	rcfg.MTSInterval = 1
	gseRef, err := refmd.NewEngine(sys, rcfg)
	if err != nil {
		return err
	}
	gseRef.ComputeForces()
	ferr, err := analysis.ForceError(eng.Forces(), gseRef.F)
	sp.end()
	if err != nil {
		return err
	}
	rep.set("core.force_err_num", ferr, sys.NAtoms())
	rep.check(ferr <= forceErrMax, "core.force_err_num %.3g against the gate %.0e", ferr, forceErrMax)

	// PPIP table build and evaluation over in-range r.
	split, boxL := eng.Split, sys.Box.L.X
	sp = rc.tr.begin("probe:ppip", root)
	var table *ppip.Table
	builds := timeBatch(rc, sp, rc.scaled(10, 1), func() {
		table, err = ppip.Build(ppip.ErfcForceFunc(split.Sigma, split.Cutoff, 0.9), ppip.PaperScheme, 22)
	})
	if err != nil {
		return err
	}
	xs := make([]float64, 1<<16)
	for i := range xs {
		r := 0.9 + rng.Float64()*(split.Cutoff-0.9)
		xs[i] = r * r / (split.Cutoff * split.Cutoff)
	}
	evals := timeBatch(rc, sp, rc.scaled(40, 2), func() {
		for _, x := range xs {
			sink += table.Evaluate(x)
		}
	})
	sp.end()
	rep.set("ppip.build_ms", median(builds), len(builds))
	rep.set("ppip.evaluate_ns", median(evals)*1e6/float64(len(xs)), len(evals)*len(xs))

	// HTIS: displacements uniform in r up to 1.15 x cutoff, so most but
	// not all pairs are inside it; the share is stated.
	sp = rc.tr.begin("probe:htis", root)
	pipe, err := htis.NewPipeline(boxL, split)
	if err != nil {
		return err
	}
	ds := make([]fixp.Vec3, 1<<15)
	params := make([]htis.PairParams, len(ds))
	for i := range ds {
		r := 0.9 + rng.Float64()*(1.15*split.Cutoff-0.9)
		dir := vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Unit()
		ds[i] = fixp.Vec3FromFloat(dir.Scale(r / boxL))
		params[i] = htis.PairParams{QQ: (rng.Float64()*2 - 1) * 100, Sigma: 2.5 + rng.Float64(), Epsilon: rng.Float64() * 0.3}
	}
	out := make([]htis.PairResult, len(ds))
	const batch = 256
	pairs := timeBatch(rc, sp, rc.scaled(40, 2), func() {
		for lo := 0; lo < len(ds); lo += batch {
			pipe.PairForceBatch(ds[lo:lo+batch], params[lo:lo+batch], out[lo:lo+batch])
		}
	})
	within := 0
	for _, r := range out {
		if r.Within {
			within++
		}
	}
	mu := htis.NewMatchUnit(boxL, split.Cutoff, 8)
	matches := timeBatch(rc, sp, rc.scaled(40, 2), func() {
		n := 0
		for _, d := range ds {
			if mu.MayInteract(d) {
				n++
			}
		}
		sink += float64(n)
	})
	sp.end()
	rep.set("htis.pairforce_ns", median(pairs)*1e6/float64(within), len(pairs)*within)
	info("htis.pairforce in-cutoff share", float64(within)/float64(len(ds)), "ratio")
	rep.set("htis.matchunit_ns", median(matches)*1e6/float64(len(ds)), len(matches)*len(ds))

	// FFT round trips: serial 32³ and 64³, distributed 32³ on 2x2x2.
	sp = rc.tr.begin("probe:fft", root)
	for _, n := range []int{32, 64} {
		g := fft.NewGrid3(n, n, n)
		for i := range g.Data {
			g.Data[i] = complex(rng.Float64(), 0)
		}
		trips := timeBatch(rc, sp, rc.scaled(30, 2), func() { g.Forward3(); g.Inverse3() })
		rep.set(fmt.Sprintf("fft.grid%d_roundtrip_ms", n), median(trips), len(trips))
	}
	g := fft.NewGrid3(32, 32, 32)
	for i := range g.Data {
		g.Data[i] = complex(rng.Float64(), 0)
	}
	dist, err := fft.NewDist3(32, 32, 32, 2, 2, 2)
	if err != nil {
		return err
	}
	if err := dist.Scatter(g); err != nil {
		return err
	}
	trips := timeBatch(rc, sp, rc.scaled(30, 2), func() { dist.Forward3(); dist.Inverse3() })
	sp.end()
	rep.set("fft.dist32_roundtrip_ms", median(trips), len(trips))

	// Double-precision GSE long-range evaluation.
	sp = rc.tr.begin("probe:ewald", root)
	gse, err := ewald.NewGSE(split, sys.Box, sys.Mesh, sys.Mesh, sys.Mesh, sys.RSpread)
	if err != nil {
		return err
	}
	f := make([]vec.V3, sys.NAtoms())
	lr := timeBatch(rc, sp, rc.scaled(30, 2), func() { sink += gse.LongRange(sys.Top.Atoms, sys.R, f) })
	sp.end()
	rep.set("ewald.gse_longrange_ms", median(lr), len(lr))

	// The commodity comparator: the reference engine with the paper's
	// standard parameters, timed in the same 4-step groups as core.
	sp = rc.tr.begin("probe:refmd", root)
	ref, err := refmd.NewEngine(sys, refmd.DefaultConfig(sys))
	if err != nil {
		return err
	}
	ref.SetVelocities(system.InitVelocities(sys.Top, 300, rand.New(rand.NewSource(rc.Seed))))
	ref.Step(1)
	groups := timeBatch(rc, sp, rc.scaled(100, 2), func() { ref.Step(4) })
	sp.end()
	refP50 := median(groups) / 4
	rep.set("refmd.step_ms", refP50, len(groups))
	rep.set("core.vs_refmd_ratio", coreP50/refP50, len(groups))
	if math.IsNaN(sink) {
		return fmt.Errorf("probe results are NaN")
	}
	return nil
}

// probeLedger times the ledger writer from outside: appends under the
// default batch, appends that each commit and fsync (Batch=1), and
// verification of the batched file.
func probeLedger(rc runConfig, rep *report, root *span) error {
	sp := rc.tr.begin("probe:ledger", root)
	defer sp.end()
	dir, err := os.MkdirTemp(rc.outDir(), "ledger-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	appendAll := func(path string, batch, n int) (time.Duration, error) {
		w, err := ledger.Create(path, ledger.Options{Batch: batch})
		if err != nil {
			return 0, err
		}
		if err := w.AppendGenesis(ledger.Genesis{Fingerprint: "bench", System: "probe", Atoms: 1}); err != nil {
			return 0, err
		}
		bsp := rc.tr.begin("batch", sp)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := w.AppendDigest(int64(i+1), uint64(i)*0x9e3779b97f4a7c15); err != nil {
				return 0, err
			}
		}
		d := time.Since(t0)
		bsp.end()
		return d, w.Close()
	}

	batched := filepath.Join(dir, "batched.ledger")
	nAppend := rc.scaled(4000, 200)
	d, err := appendAll(batched, 0, nAppend)
	if err != nil {
		return err
	}
	rep.set("ledger.append_us", float64(d.Nanoseconds())/1e3/float64(nAppend), nAppend)

	nCommit := rc.scaled(100, 5)
	if d, err = appendAll(filepath.Join(dir, "direct.ledger"), 1, nCommit); err != nil {
		return err
	}
	rep.set("ledger.commit_ms", ms(d)/float64(nCommit), nCommit)

	var report *ledger.Report
	verifies := timeBatch(rc, sp, rc.scaled(10, 1), func() { report, err = ledger.VerifyFile(batched) })
	if err != nil {
		return err
	}
	rep.set("ledger.verify_ms_per_krec", median(verifies)*1000/float64(report.Records), len(verifies))
	return nil
}
