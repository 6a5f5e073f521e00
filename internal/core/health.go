package core

import (
	"math"
	"math/bits"

	"anton/internal/ff"
	"anton/internal/obs"
	"anton/internal/obs/health"
	"anton/internal/trace"
	"anton/internal/vec"
)

// Watch attaches the health-watchdog subsystem to a running engine: every
// audit cadence it samples the invariants that certify a long run is
// still healthy — total-energy drift, net momentum, fixed-point overflow
// headroom, and the migration-slack margin (measured with
// trace.MaxDisplacementPBC against Engine.MigrationSlack) — and feeds
// them to a health.Registry. The watch hooks the engine's end-of-step
// callback and is strictly read-only: the trajectory is bitwise
// identical with a watch attached (test-asserted alongside the recorder
// and tracer contracts).
type Watch struct {
	e       *Engine
	reg     *health.Registry
	cadence int

	step    int      // engine step at the last tick
	refPos  []vec.V3 // decoded positions at the start of the drift window
	curPos  []vec.V3 // decode scratch
	lastMig int
	drift   float64 // worst drift observed since the last eval

	transport func() (sends, retransmits int64)
	lastSends int64
	lastRetx  int64

	pending []health.Alert
}

// auditCadence is the step cadence of the health watch and the ledger
// tap: every 10 steps — frequent enough that a drifting invariant fires
// within tens of steps and any prefix of a long run has a nearby audit
// point, sparse enough that the O(N) sampling and digest passes are noise
// against a step — rounded up to a multiple of the MTS interval. Total
// energy oscillates within the long-range refresh cycle (the fast forces
// see the stale mesh force between refreshes), so a misaligned watch
// would alias that oscillation into apparent drift an order of magnitude
// above the real secular trend; aligned digests keep every recorded step
// comparable across runs whose MTS phase matters.
func auditCadence(e *Engine) int {
	c := 10
	if m := e.Cfg.MTSInterval; m > 1 && c%m != 0 {
		c += m - c%m
	}
	return c
}

// NewWatch builds a watch evaluating on the audit cadence and installs it
// as the engine's step hook. A thermostatted engine (Cfg.TauT > 0)
// exchanges energy with the bath by design, so it gets no energy-drift
// monitor.
func NewWatch(e *Engine) *Watch {
	w := &Watch{
		e:       e,
		reg:     health.New(e.Cfg.TauT <= 0),
		cadence: auditCadence(e),
		step:    e.step,
		refPos:  e.Positions(),
		curPos:  make([]vec.V3, len(e.Pos)),
		lastMig: e.Stats.Migrations,
	}
	e.AddStepHook(w.tick)
	return w
}

// Registry exposes the underlying watchdog registry.
func (w *Watch) Registry() *health.Registry { return w.reg }

// WatchTransport wires a transport-counter source (typically
// Sharded.TransportCounts) into the watch: each evaluation computes the
// retransmit-per-send ratio over the window since the previous one and
// feeds it to the retry-storm monitor, so a lossy or saturated transport
// surfaces as a health alert rather than only as silent retry latency.
func (w *Watch) WatchTransport(src func() (sends, retransmits int64)) {
	w.transport = src
	if src != nil {
		w.lastSends, w.lastRetx = src()
	}
}

// Drain returns and clears the alerts fired since the last call.
func (w *Watch) Drain() []health.Alert {
	out := w.pending
	w.pending = nil
	return out
}

// tick runs after every completed step: it tracks the per-migration
// drift reference and, on the eval cadence, feeds one sample through the
// watchdogs. A step counter that did not advance by one (a rollback
// restored an older state) restarts the drift window at the current
// positions: the reference was taken on a stretch of trajectory the
// engine no longer stands on.
func (w *Watch) tick() {
	e := w.e
	restart := e.step != w.step+1
	w.step = e.step
	migrated := e.Stats.Migrations != w.lastMig
	evalNow := e.step%w.cadence == 0
	if !migrated && !evalNow && !restart {
		return
	}
	// Decode current positions and measure the drift accumulated since
	// the last migration with the trajectory diagnostic (two frames:
	// reference, current).
	for i, p := range e.Pos {
		w.curPos[i] = e.Coder.Decode(p)
	}
	if restart {
		w.drift = 0
	} else {
		tr := trace.Trajectory{
			NAtoms: len(w.curPos),
			Frames: []trace.Frame{{Positions: w.refPos}, {Positions: w.curPos}},
		}
		w.drift = max(w.drift, tr.MaxDisplacementPBC(e.Sys.Box))
	}
	if migrated || restart {
		w.refPos, w.curPos = w.curPos, w.refPos
		w.lastMig = e.Stats.Migrations
	}
	if !evalNow {
		return
	}
	s := health.Sample{
		Step:            int64(e.step),
		TotalEnergy:     e.TotalEnergy(),
		MomentumPerAtom: e.momentumPerAtom(),
		HeadroomBits:    e.forceHeadroomBits(),
		Drift:           w.drift,
		Slack:           e.MigrationSlack(),
	}
	if w.transport != nil {
		sends, retx := w.transport()
		dS, dR := sends-w.lastSends, retx-w.lastRetx
		w.lastSends, w.lastRetx = sends, retx
		if dS > 0 {
			s.RetryRate = float64(dR) / float64(dS)
			s.HaveRetry = true
		}
	}
	w.drift = 0
	if alerts := w.reg.Eval(s); len(alerts) > 0 {
		w.pending = append(w.pending, alerts...)
	}
}

// momentumPerAtom returns |sum m v| / N in amu·Å/fs — exactly zero-drift
// dynamics would conserve it bit for bit; the fixed-point kicks leave
// only rounding-level noise.
func (e *Engine) momentumPerAtom() float64 {
	var px, py, pz float64
	n := 0
	for i, a := range e.Sys.Top.Atoms {
		if a.Mass == 0 {
			continue
		}
		v := e.Vel[i].Float()
		px += a.Mass * v.X
		py += a.Mass * v.Y
		pz += a.Mass * v.Z
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Sqrt(px*px+py*py+pz*pz) / float64(n)
}

// forceHeadroomBits returns the overflow headroom of the widest force
// accumulator: how many more doublings the largest force-count component
// could absorb before wrapping (63 with no forces at all). The paper's
// Figure 4c datapaths are sized so this never approaches zero; the
// watchdog proves it stays that way.
func (e *Engine) forceHeadroomBits() float64 {
	var worst int64
	abs := func(x int64) int64 {
		if x < 0 {
			return -x
		}
		return x
	}
	for i := range e.fShort {
		f := e.totalForce(i, true)
		for _, c := range [3]int64{f.X, f.Y, f.Z} {
			if a := abs(c); a > worst {
				worst = a
			}
		}
	}
	if worst == 0 {
		return 63
	}
	return float64(bits.LeadingZeros64(uint64(worst))) - 1
}

// TelemetrySample bundles the per-step quantities the live telemetry
// ring plots (one O(N) kinetic-energy pass instead of three separate
// accessor calls per sample).
func (e *Engine) TelemetrySample() obs.StepSample {
	ke := e.KineticEnergy()
	dof := e.Sys.Top.DegreesOfFreedom()
	temp := 0.0
	if dof > 0 {
		temp = 2 * ke / (float64(dof) * ff.KB)
	}
	return obs.StepSample{
		Step:            int64(e.step),
		TimeFs:          float64(e.step) * e.Cfg.Dt,
		Temperature:     temp,
		KineticEnergy:   ke,
		PotentialEnergy: e.PotentialEnergy,
		TotalEnergy:     ke + e.PotentialEnergy,
	}
}
