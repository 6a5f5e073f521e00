// Command antonsim runs a molecular dynamics simulation of one of the
// paper's benchmark systems on a simulated Anton machine, reporting
// energies, hardware statistics (match efficiency, pair throughput) and
// the calibrated performance model's projection of the configuration's
// simulation rate.
//
// Usage:
//
//	antonsim -system gpW -nodes 8 -steps 50
//	antonsim -system small -steps 200 -metrics metrics.json -pprof localhost:6060
//	antonsim -system small -steps 500 -trace trace.json -watch
//	antonsim -system small -steps 100000 -listen localhost:8777 -watch
//	antonsim -system small -shards 8 -steps 200 -chaos 'seed=7,drop=0.02,crashes=1'
//	antonsim -system small -steps 1000 -checkpoint run.ckpt
//	antonsim -system small -steps 1000 -checkpoint run.ckpt -resume run.ckpt
//	antonsim -list
//
// -resume restores a checkpoint written by -checkpoint and continues the
// run from its step count: -steps is the total step target, so a run
// interrupted at step 400 of 1000 resumes with the same command line and
// executes steps 401..1000, bitwise identical to an uninterrupted run
// (compare the printed state digests). The restore validates the
// checkpoint's configuration fingerprint and CRC before touching any
// engine state and refuses cleanly on mismatch.
//
// SIGINT/SIGTERM stop the run gracefully: the current report chunk
// finishes, a final checkpoint is flushed (with -checkpoint), and the
// telemetry server drains before exit.
//
// The run itself — build, resume, ledger, fault campaign, observers, and
// how the final boundary is made durable — is a service.Run, the same one
// antond's workers drive; this file is flags, the report loop and the
// summary printers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"anton/internal/machine"
	"anton/internal/obs"
	"anton/internal/obs/health"
	"anton/internal/service"
	"anton/internal/system"
	"anton/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its process state passed in: the exit code is 2 for a
// flag error, 1 for a run that could not be opened or reported, else 0.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("antonsim", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		name    = fl.String("system", "gpW", "named system (see -list)")
		nodes   = fl.Int("nodes", 8, "Anton node count to simulate (power of two, at most 512)")
		shards  = fl.Int("shards", 0, "run the sharded virtual-node pipeline with this many shards (power of two, overrides -nodes; 0 = monolithic engine)")
		steps   = fl.Int("steps", 20, "time steps to run")
		temp    = fl.Float64("temp", 300, "thermostat target temperature, K (0 = NVE)")
		list    = fl.Bool("list", false, "list available systems and exit")
		every   = fl.Int("report", 10, "report energies every N steps")
		pdb     = fl.String("pdb", "", "write the final snapshot as a PDB file")
		comm    = fl.Bool("comm", false, "print the per-step communication report")
		metrics = fl.String("metrics", "", "write the observability snapshot as JSON to this file (and print the text report)")
		pprofAt = fl.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while running")

		traceOut  = fl.String("trace", "", "write a Chrome trace-event JSON timeline to this file (load in Perfetto)")
		watch     = fl.Bool("watch", false, "report the health watchdogs (energy, momentum, overflow headroom, migration slack, retry storm)")
		listenAt  = fl.String("listen", "", "serve live telemetry (/metrics, /healthz, /trace) on this address")
		logFormat = fl.String("log", "text", "log format: text or json")
		verbose   = fl.Bool("v", false, "debug-level logging")

		chaosSpec  = fl.String("chaos", "", "fault-injection spec, e.g. 'seed=7,drop=0.02,crashes=1' (requires -shards; see internal/faults)")
		ckptPath   = fl.String("checkpoint", "", "write a crash-consistent checkpoint to this file on exit")
		resumePath = fl.String("resume", "", "resume from this checkpoint file (-steps becomes the total step target)")
		ledgerPath = fl.String("ledger", "", "append a hash-chained run ledger (digests, checkpoints, faults, alerts) to this file; audit it with antonaudit")
	)
	if err := fl.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	logger := obs.NewLogger(stderr, *logFormat, *verbose)
	fail := func(msg string, err error) int {
		logger.Error(msg, "err", err)
		return 1
	}

	if *pprofAt != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAt, nil); err != nil {
				logger.Error("pprof server", "err", err)
			}
		}()
		fmt.Fprintf(stdout, "pprof listening on http://%s/debug/pprof/\n", *pprofAt)
	}

	if *list {
		fmt.Fprintln(stdout, "available systems:")
		for _, n := range system.Accepted() {
			spec, _ := system.SpecFor(n)
			fmt.Fprintf(stdout, "  %-8s %8d atoms, %6.1f Å box, cutoff %5.1f Å, mesh %d³\n",
				n, spec.TotalAtoms, spec.Side, spec.Cutoff, spec.Mesh)
		}
		return 0
	}

	// The run is described once, as the job spec antond would be handed:
	// the spec the ledger genesis embeds is the one the engine came from,
	// so antonaudit -replay rebuilds exactly what ran. antonsim seeds
	// velocities with the fixed seed 2. The sharded pipeline wraps the
	// engine: same state, same trajectory, but each virtual node runs as
	// its own goroutine exchanging messages, and Comm() gains a
	// measured-transport section.
	spec := service.JobSpec{
		System: *name, Steps: *steps, Shards: *shards, Nodes: *nodes,
		Ensemble: "nvt", Temperature: *temp, Seed: 2, Chaos: *chaosSpec,
	}
	if *temp <= 0 {
		spec.Ensemble, spec.Temperature = "nve", 0
	}
	if err := spec.Normalize(); err != nil {
		return fail("invalid run", err)
	}
	// A daemon job resumes whenever its checkpoint exists; -resume names a
	// file the operator expects to be there. One written under a different
	// configuration, a damaged one, or a tampered ledger refuses in OpenRun
	// before any state is touched: exit rather than silently start a
	// different trajectory.
	if *resumePath != "" {
		if _, err := os.Stat(*resumePath); err != nil {
			return fail("resume checkpoint", err)
		}
	}
	r, err := service.OpenRun(spec, *resumePath, *ckptPath, *ledgerPath, nil, nil)
	if err != nil {
		return fail("open run", err)
	}
	defer func() {
		if err := r.Close(); err != nil {
			logger.Error("close ledger", "err", err)
		}
	}()
	eng, s := r.Eng, r.Eng.Sys
	fmt.Fprintf(stdout, "system %s: %d particles, %d waters, %d protein atoms, box %.1f Å\n",
		s.Name, s.NAtoms(), s.Waters, s.ProteinAtoms, s.Box.L.X)
	if r.ResumedFrom >= 0 {
		logger.Info("resumed from checkpoint", "file", *resumePath, "step", r.ResumedFrom, "target", *steps)
	}
	if *metrics != "" || *listenAt != "" {
		r.Rec.EnableMemStats()
	}
	watching := *watch || *listenAt != ""

	var tel *obs.Telemetry
	var telSrv *http.Server
	if *listenAt != "" {
		tel = obs.NewTelemetry()
		telSrv = &http.Server{Addr: *listenAt, Handler: tel.Handler()}
		go func() {
			if err := telSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				logger.Error("telemetry server", "err", err)
			}
		}()
		logger.Info("telemetry listening", "addr", *listenAt,
			"endpoints", "/metrics /healthz /trace")
	}

	// Graceful shutdown: the first SIGINT/SIGTERM stops the run at the
	// next report boundary (a second signal kills the process the usual
	// way, since the context stops masking it).
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	remaining := max(*steps-eng.StepCount(), 0)
	if *shards > 0 {
		fmt.Fprintf(stdout, "running %d steps across %d virtual node shards (torus %v)\n",
			remaining, *shards, eng.Mach.Dims)
	} else {
		fmt.Fprintf(stdout, "running %d steps on a %d-node machine (torus %v)\n", remaining, *nodes, eng.Mach.Dims)
	}
	for done := eng.StepCount(); done < *steps; done = eng.StepCount() {
		if ctx.Err() != nil {
			logger.Info("signal received, stopping", "completed", done, "requested", *steps)
			break
		}
		if err := r.Advance(min(*every, *steps-done)); err != nil {
			logger.Error("run stopped", "err", err)
			break
		}
		fmt.Fprintf(stdout, "step %5d: T = %6.1f K   PE = %12.2f   E = %12.2f kcal/mol\n",
			eng.StepCount(), eng.Temperature(), eng.PotentialEnergy, eng.TotalEnergy())
		alerts, err := r.DrainAlerts()
		if err != nil {
			logger.Error("run ledger", "err", err)
		}
		if !watching {
			alerts = nil // ledgered by DrainAlerts; reported only on request
		}
		for _, a := range alerts {
			lvl := slog.LevelWarn
			if a.Severity >= health.SevCrit {
				lvl = slog.LevelError
			}
			logger.Log(context.Background(), lvl, "watchdog alert",
				"monitor", a.Monitor, "severity", a.Severity.String(),
				"step", a.Step, "value", a.Value, "threshold", a.Threshold)
		}
		if tel != nil {
			if err := r.Publish(tel); err != nil {
				logger.Error("publish trace", "err", err)
			}
		}
	}

	// Exit path (normal, interrupted, or parked): make the final boundary
	// durable, then drain the telemetry server so in-flight scrapes finish
	// before the listener dies.
	if err := r.Persist(); err != nil {
		logger.Error("final checkpoint", "err", err)
	} else if *ckptPath != "" {
		logger.Info("final checkpoint flushed", "file", *ckptPath, "step", eng.StepCount())
	}
	if r.Ledger != nil {
		st := r.Ledger.Stats()
		fmt.Fprintf(stdout, "\nrun ledger %s: %d records, %d commits, %d bytes (audit with antonaudit)\n",
			*ledgerPath, st.Records, st.Commits, st.Bytes)
	}
	if telSrv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		if err := telSrv.Shutdown(sctx); err != nil {
			logger.Error("telemetry shutdown", "err", err)
		}
		cancel()
	}

	// The state digest identifies the trajectory: an interrupted-and-
	// resumed run must print the same digest at the same step as an
	// uninterrupted one.
	fmt.Fprintf(stdout, "\nstate digest at step %d: %016x\n", eng.StepCount(), eng.StateDigest())

	st := eng.Stats
	fmt.Fprintf(stdout, "\nhardware statistics over %d steps:\n", st.Steps)
	fmt.Fprintf(stdout, "  pairs considered by match units: %d\n", st.PairsConsidered)
	fmt.Fprintf(stdout, "  of those, distance-tested in software: %d\n", st.PairsTested)
	fmt.Fprintf(stdout, "  pairs passing low-precision check: %d\n", st.PairsMatched)
	fmt.Fprintf(stdout, "  pairs computed by PPIPs: %d\n", st.PairsComputed)
	fmt.Fprintf(stdout, "  match efficiency: %.1f%%\n", st.MatchEfficiency()*100)
	fmt.Fprintf(stdout, "  atom-mesh interactions: %d\n", st.MeshInteractions)
	fmt.Fprintf(stdout, "  migrations: %d\n", st.Migrations)
	fmt.Fprintf(stdout, "  constraint sweeps (SHAKE + RATTLE): %d\n", st.ConstraintSweeps)
	fmt.Fprintf(stdout, "  constraint groups left unconverged at the sweep cap: %d\n", st.ConstraintUnconverged)
	if watching {
		reg := r.Watch.Registry()
		fmt.Fprintf(stdout, "  watchdog: worst severity %s (%d warn, %d critical alerts)\n",
			reg.Worst(), reg.Fired(health.SevWarn), reg.Fired(health.SevCrit))
	}
	if spec.Chaos != "" {
		rep := eng.FaultReport()
		fmt.Fprintf(stdout, "\nfault campaign over %d steps:\n", st.Steps)
		fmt.Fprintf(stdout, "  injected: %d drops, %d dups, %d delays, %d corruptions, %d stalls, %d crashes\n",
			rep.Injected.Drops, rep.Injected.Dups, rep.Injected.Delays,
			rep.Injected.Corrupts, rep.Injected.Stalls, rep.Injected.CrashesFired)
		fmt.Fprintf(stdout, "  recoveries: %d (%d replayed steps", rep.Recoveries, rep.ReplaySteps)
		if rep.Recoveries > 0 {
			fmt.Fprintf(stdout, ", mean %.1f ms", float64(rep.RecoveryNs)/float64(rep.Recoveries)/1e6)
		}
		fmt.Fprintln(stdout, ")")
		fmt.Fprintf(stdout, "  transport: %d sends, %d retransmits, %d dup discards, %d crc discards\n",
			rep.Transport.Sends, rep.Transport.Retransmits,
			rep.Transport.DupDiscards, rep.Transport.CrcDiscards)
	}

	if *metrics != "" {
		snap := r.Rec.Snapshot()
		fmt.Fprintf(stdout, "\n%s", snap)
		if err := writeFile(*metrics, snap.WriteJSON); err != nil {
			return fail("write metrics", err)
		}
		fmt.Fprintf(stdout, "wrote metrics to %s\n", *metrics)
	}

	if *traceOut != "" {
		if err := writeFile(*traceOut, r.Tracer.Export); err != nil {
			return fail("write trace", err)
		}
		fmt.Fprintf(stdout, "wrote trace to %s (%d spans, %d dropped; open in Perfetto)\n",
			*traceOut, len(r.Tracer.Spans()), r.Tracer.Dropped())
	}

	if *comm {
		rep, err := eng.Comm() // sharded: with the measured transport section
		if err != nil {
			return fail("comm report", err)
		}
		fmt.Fprintf(stdout, "\n%s", rep)
	}

	if *pdb != "" {
		labels := make([]trace.AtomLabel, s.NAtoms())
		for i, a := range s.Top.Atoms {
			labels[i] = trace.AtomLabel{Name: a.Name, Residue: a.Residue}
		}
		if err := writeFile(*pdb, func(w io.Writer) error {
			return trace.WritePDB(w, labels, eng.Positions(), s.Box, 1)
		}); err != nil {
			return fail("write pdb", err)
		}
		fmt.Fprintf(stdout, "\nwrote snapshot to %s\n", *pdb)
	}

	w := machine.WorkloadFromSystem(s)
	p := machine.DefaultModel.Estimate(eng.Mach, w)
	fmt.Fprintf(stdout, "\nperformance model for this configuration:\n")
	fmt.Fprintf(stdout, "  per-step (long-range): %.1f us; (short): %.1f us; average %.1f us\n",
		p.TotalLongRange*1e6, p.TotalShort*1e6, p.Average*1e6)
	fmt.Fprintf(stdout, "  projected simulation rate: %.2f us/day\n", p.RatePerDay)
	return 0
}

// writeFile creates path, hands it to write, and closes it, reporting the
// first failure.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
