package refmd

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"anton/internal/ewald"
	"anton/internal/ff"
	"anton/internal/system"
	"anton/internal/vec"
)

// LongRangeMethod selects the mesh electrostatics solver.
type LongRangeMethod int

const (
	// UseSPME is the commodity default (B-spline particle mesh Ewald).
	UseSPME LongRangeMethod = iota
	// UseGSE uses Gaussian Split Ewald (for cross-checks with Anton).
	UseGSE
	// UseExact uses the O(N*K^3) structure-factor sum (small systems,
	// "extremely conservative parameters" reference of §5.2).
	UseExact
)

// Task identifies a profile bucket, matching the rows of Table 2.
type Task int

const (
	TaskRangeLimited Task = iota
	TaskFFT               // forward and inverse FFT with the k-space multiply (or the exact k-space sum)
	TaskMeshInterp        // charge spreading + force interpolation
	TaskCorrection        // excluded-pair and 1-4 corrections
	TaskBonded
	TaskIntegration
	TaskPairList
	numTasks
)

// TaskNames mirrors Table 2's row labels.
var TaskNames = map[Task]string{
	TaskRangeLimited: "Range-limited forces",
	TaskFFT:          "FFT & inverse FFT",
	TaskMeshInterp:   "Mesh interpolation",
	TaskCorrection:   "Correction forces",
	TaskBonded:       "Bonded forces",
	TaskIntegration:  "Integration",
	TaskPairList:     "Pair list",
}

// Config tunes the engine.
type Config struct {
	// Workers caps the pair-loop concurrency (0 = up to 16/GOMAXPROCS).
	Workers int

	Dt          float64 // time step, fs (paper: 2.5)
	Cutoff      float64 // range-limited cutoff, Å
	Mesh        int     // mesh points per axis
	Skin        float64 // pair list skin, Å
	MTSInterval int     // evaluate long-range every k steps (paper: 2)
	Method      LongRangeMethod
	EwaldTol    float64 // erfc(rc/(sqrt2 sigma)) target (default 1e-5)
	SPMEOrder   int     // B-spline order (default 6)
	KMax        int     // for UseExact

	// Thermostat: Berendsen coupling. TauT <= 0 disables (NVE).
	TargetT float64
	TauT    float64 // fs
}

// DefaultConfig returns the paper's standard parameters for a system.
func DefaultConfig(s *system.System) Config {
	return Config{
		Dt:          2.5,
		Cutoff:      s.Cutoff,
		Mesh:        s.Mesh,
		Skin:        1.5,
		MTSInterval: 2,
		Method:      UseSPME,
		EwaldTol:    1e-5,
		SPMEOrder:   6,
		TargetT:     300,
		TauT:        100,
	}
}

// Engine is the reference double-precision MD engine.
type Engine struct {
	Sys   *system.System
	Cfg   Config
	Split ewald.Split

	R, V, F []vec.V3
	step    int

	pl      *PairList
	workerF [][]vec.V3 // per-worker force buffers for the pair loop
	spme    *ewald.SPME
	gse     *ewald.GSE

	// Profile accumulates wall time per task (Table 2's shape).
	Profile [numTasks]time.Duration

	// Energies of the last force evaluation.
	PotentialEnergy float64
	longRangeEnergy float64 // retained between MTS evaluations
}

// NewEngine prepares an engine over a built system with the given config.
func NewEngine(s *system.System, cfg Config) (*Engine, error) {
	if cfg.Dt <= 0 {
		return nil, fmt.Errorf("refmd: non-positive time step")
	}
	if cfg.MTSInterval < 1 {
		cfg.MTSInterval = 1
	}
	if cfg.EwaldTol == 0 {
		cfg.EwaldTol = 1e-5
	}
	if cfg.SPMEOrder == 0 {
		cfg.SPMEOrder = 6
	}
	split := ewald.Split{
		Sigma:  ewald.SigmaForCutoff(cfg.Cutoff, cfg.EwaldTol),
		Cutoff: cfg.Cutoff,
	}
	e := &Engine{
		Sys:   s,
		Cfg:   cfg,
		Split: split,
		R:     append([]vec.V3(nil), s.R...),
		V:     make([]vec.V3, s.NAtoms()),
		F:     make([]vec.V3, s.NAtoms()),
		pl:    NewPairList(cfg.Cutoff, cfg.Skin),
	}
	switch cfg.Method {
	case UseSPME:
		sp, err := ewald.NewSPME(split, s.Box, cfg.Mesh, cfg.Mesh, cfg.Mesh, cfg.SPMEOrder)
		if err != nil {
			return nil, err
		}
		e.spme = sp
	case UseGSE:
		g, err := ewald.NewGSE(split, s.Box, cfg.Mesh, cfg.Mesh, cfg.Mesh, s.RSpread)
		if err != nil {
			return nil, err
		}
		e.gse = g
	case UseExact:
		if cfg.KMax == 0 {
			cfg.KMax = 12
			e.Cfg.KMax = 12
		}
	}
	ff.PlaceVSites(s.Top, s.Box, e.R)
	return e, nil
}

// workers returns the configured pair-loop concurrency.
func (e *Engine) workers() int {
	if e.Cfg.Workers > 0 {
		return e.Cfg.Workers
	}
	w := runtime.GOMAXPROCS(0)
	if w > 16 {
		w = 16
	}
	if w < 1 {
		w = 1
	}
	return w
}

// SetVelocities installs initial velocities.
func (e *Engine) SetVelocities(v []vec.V3) { copy(e.V, v) }

// Step advances the simulation by n velocity-Verlet steps.
func (e *Engine) Step(n int) {
	if e.step == 0 {
		e.ComputeForces()
	}
	for it := 0; it < n; it++ {
		e.stepOnce()
	}
}

// stepOnce is one velocity-Verlet step with SHAKE/RATTLE and vsites.
func (e *Engine) stepOnce() {
	top := e.Sys.Top
	dt := e.Cfg.Dt
	t0 := time.Now()

	// Half kick + drift.
	old := append([]vec.V3(nil), e.R...)
	for i, a := range top.Atoms {
		if a.Mass == 0 {
			continue
		}
		acc := e.F[i].Scale(ff.ForceToAccel / a.Mass)
		e.V[i] = e.V[i].Add(acc.Scale(dt / 2))
		e.R[i] = e.R[i].Add(e.V[i].Scale(dt))
	}
	// SHAKE position constraints (also fixes velocities implicitly).
	e.shake(old, dt)
	ff.PlaceVSites(top, e.Sys.Box, e.R)
	e.Profile[TaskIntegration] += time.Since(t0)

	e.step++
	e.ComputeForces()

	t0 = time.Now()
	// Second half kick.
	for i, a := range top.Atoms {
		if a.Mass == 0 {
			continue
		}
		acc := e.F[i].Scale(ff.ForceToAccel / a.Mass)
		e.V[i] = e.V[i].Add(acc.Scale(dt / 2))
	}
	// RATTLE velocity constraints.
	e.rattle()
	// Berendsen thermostat.
	if e.Cfg.TauT > 0 {
		e.berendsen()
	}
	e.Profile[TaskIntegration] += time.Since(t0)
}

// ComputeForces evaluates all force terms into F and updates
// PotentialEnergy. Long-range terms are evaluated every MTSInterval
// steps and applied as an impulse (scaled by the interval).
func (e *Engine) ComputeForces() {
	top := e.Sys.Top
	box := e.Sys.Box
	n := top.NAtoms()
	for i := range e.F {
		e.F[i] = vec.Zero
	}
	energy := 0.0

	// Pair list maintenance.
	t0 := time.Now()
	if e.pl.NeedsRebuild(box, e.R) {
		e.pl.Build(box, e.R, top.Skip)
	}
	e.Profile[TaskPairList] += time.Since(t0)

	// Range-limited: screened electrostatics + LJ over the pair list,
	// parallel across fixed contiguous chunks with per-worker force
	// buffers (deterministic for a given worker count).
	t0 = time.Now()
	rc2 := e.Cfg.Cutoff * e.Cfg.Cutoff
	pairs := e.pl.Pairs()
	workers := e.workers()
	if len(e.workerF) < workers || (len(e.workerF) > 0 && len(e.workerF[0]) != n) {
		e.workerF = make([][]vec.V3, workers)
		for w := range e.workerF {
			e.workerF[w] = make([]vec.V3, n)
		}
	}
	energies := make([]float64, workers)
	var wg sync.WaitGroup
	chunk := (len(pairs) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(pairs) {
			break
		}
		hi := lo + chunk
		if hi > len(pairs) {
			hi = len(pairs)
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			buf := e.workerF[w]
			for i := range buf {
				buf[i] = vec.Zero
			}
			var eLocal float64
			for _, p := range pairs[lo:hi] {
				i, j := int(p[0]), int(p[1])
				d := box.MinImage(e.R[i].Sub(e.R[j]))
				r2 := d.Norm2()
				if r2 > rc2 {
					continue
				}
				ai, aj := top.Atoms[i], top.Atoms[j]
				var fs float64
				if qq := ai.Charge * aj.Charge; qq != 0 {
					ee, f1 := e.Split.RealSpacePair(r2, ai.Charge, aj.Charge)
					// Potential-shifted energy: the truncated force
					// field's true potential is V(r) - V(rc).
					eLocal += ee - e.Split.RealSpaceShift(ai.Charge, aj.Charge)
					fs += f1
				}
				sigma, eps := e.Sys.Params.LJPair(ai.LJType, aj.LJType)
				if eps != 0 {
					el, f2 := ff.LJ126(r2, sigma, eps)
					elShift, _ := ff.LJ126(rc2, sigma, eps)
					eLocal += el - elShift
					fs += f2
				}
				fv := d.Scale(fs)
				buf[i] = buf[i].Add(fv)
				buf[j] = buf[j].Sub(fv)
			}
			energies[w] = eLocal
		}(w, lo, hi)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if w*chunk >= len(pairs) {
			break
		}
		buf := e.workerF[w]
		for i := range e.F {
			e.F[i] = e.F[i].Add(buf[i])
		}
		energy += energies[w]
	}
	e.Profile[TaskRangeLimited] += time.Since(t0)

	// Long-range (mesh) + corrections, every MTSInterval steps, impulse-
	// weighted.
	if e.step%e.Cfg.MTSInterval == 0 {
		w := float64(e.Cfg.MTSInterval)
		lrF := make([]vec.V3, n)
		lrE := 0.0
		// Each mesh method's LongRange in its three stages, so that
		// spreading and gathering are booked under Mesh interpolation
		// and only the transforms under FFT.
		switch {
		case e.spme != nil:
			t0 = time.Now()
			e.spme.Spread(top.Atoms, e.R)
			e.Profile[TaskMeshInterp] += time.Since(t0)
			t0 = time.Now()
			lrE += e.spme.Convolve()
			e.Profile[TaskFFT] += time.Since(t0)
			t0 = time.Now()
			e.spme.Interpolate(top.Atoms, lrF)
			e.Profile[TaskMeshInterp] += time.Since(t0)
		case e.gse != nil:
			t0 = time.Now()
			e.gse.Spread(top.Atoms, e.R)
			e.Profile[TaskMeshInterp] += time.Since(t0)
			t0 = time.Now()
			e.gse.Convolve()
			e.Profile[TaskFFT] += time.Since(t0)
			t0 = time.Now()
			lrE += e.gse.EnergyAndForces(top.Atoms, e.R, lrF)
			e.Profile[TaskMeshInterp] += time.Since(t0)
		default:
			t0 = time.Now()
			lrE += ewald.ExactKSpace(e.Split, top.Atoms, box, e.R, lrF, e.Cfg.KMax)
			e.Profile[TaskFFT] += time.Since(t0)
		}
		lrE += e.Split.SelfEnergy(top.Atoms)

		// Correction forces: remove the mesh's contribution for excluded
		// pairs. (The scaled 1-4 terms are stiff short-range interactions
		// and run in the fast loop below — impulsing them on the long-
		// range cadence resonates with bonded-scale motions.)
		t0 = time.Now()
		lrE += e.Split.CorrectionForces(top, box, e.R, lrF)
		e.Profile[TaskCorrection] += time.Since(t0)

		e.longRangeEnergy = lrE
		for i := range lrF {
			e.F[i] = e.F[i].Add(lrF[i].Scale(w))
		}
	}
	energy += e.longRangeEnergy

	// Bonded terms and the scaled 1-4 interactions (fast loop); the 1-4
	// terms are corrections, booked as such.
	t0 = time.Now()
	energy += ff.BondedForces(top, box, e.R, e.F)
	e.Profile[TaskBonded] += time.Since(t0)
	t0 = time.Now()
	energy += e.correct14(e.F)
	e.Profile[TaskCorrection] += time.Since(t0)

	// Virtual-site force spreading.
	ff.SpreadVSiteForces(top, e.F)

	e.PotentialEnergy = energy
}

// correct14 removes the mesh's smooth-component for 1-4 pairs and adds
// the scaled bare Coulomb and LJ interactions; returns the energy change.
func (e *Engine) correct14(f []vec.V3) float64 {
	top := e.Sys.Top
	box := e.Sys.Box
	energy := 0.0
	for _, p := range top.Pairs14 {
		ai, aj := top.Atoms[p.I], top.Atoms[p.J]
		d := box.MinImage(e.R[p.I].Sub(e.R[p.J]))
		r2 := d.Norm2()
		var fs float64
		if qq := ai.Charge * aj.Charge; qq != 0 {
			// Remove the smooth part the mesh computed.
			es, f1 := e.Split.SmoothPair(r2, ai.Charge, aj.Charge)
			energy -= es
			fs -= f1
			// Add the scaled bare interaction.
			eb, f2 := ff.Coulomb(r2, ai.Charge, aj.Charge)
			energy += top.Scale14Elec * eb
			fs += top.Scale14Elec * f2
		}
		sigma, eps := e.Sys.Params.LJPair(ai.LJType, aj.LJType)
		if eps != 0 {
			el, f3 := ff.LJ126(r2, sigma, eps)
			energy += top.Scale14LJ * el
			fs += top.Scale14LJ * f3
		}
		fv := d.Scale(fs)
		f[p.I] = f[p.I].Add(fv)
		f[p.J] = f[p.J].Sub(fv)
	}
	return energy
}

// shake applies iterative SHAKE position constraints: after the
// unconstrained drift from `old`, bond lengths are restored and the
// velocities corrected to match the constrained displacement.
func (e *Engine) shake(old []vec.V3, dt float64) {
	top := e.Sys.Top
	box := e.Sys.Box
	const tol = 1e-10
	const maxIter = 200
	for iter := 0; iter < maxIter; iter++ {
		maxViol := 0.0
		for _, c := range top.Constraints {
			d := box.MinImage(e.R[c.I].Sub(e.R[c.J]))
			diff := d.Norm2() - c.R*c.R
			if v := math.Abs(diff) / (c.R * c.R); v > maxViol {
				maxViol = v
			}
			if math.Abs(diff) < tol {
				continue
			}
			ref := box.MinImage(old[c.I].Sub(old[c.J]))
			mi := 1 / top.Atoms[c.I].Mass
			mj := 1 / top.Atoms[c.J].Mass
			g := diff / (2 * (mi + mj) * d.Dot(ref))
			corr := ref.Scale(g)
			e.R[c.I] = e.R[c.I].Sub(corr.Scale(mi))
			e.R[c.J] = e.R[c.J].Add(corr.Scale(mj))
		}
		if maxViol < tol {
			break
		}
	}
	// Velocity correction: constrained atoms get the velocity consistent
	// with their constrained displacement, v = (r_con - r_old)/dt, which
	// equals the half-kick velocity plus the constraint impulse.
	inDt := 1 / dt
	for _, g := range top.ConstraintGroups() {
		for _, i := range g {
			if top.Atoms[i].Mass == 0 {
				continue
			}
			e.V[i] = box.MinImage(e.R[i].Sub(old[i])).Scale(inDt)
		}
	}
}

// rattle removes velocity components along constrained bonds.
func (e *Engine) rattle() {
	top := e.Sys.Top
	box := e.Sys.Box
	const tol = 1e-12
	for iter := 0; iter < 100; iter++ {
		worst := 0.0
		for _, c := range top.Constraints {
			d := box.MinImage(e.R[c.I].Sub(e.R[c.J]))
			vRel := e.V[c.I].Sub(e.V[c.J])
			dot := d.Dot(vRel)
			if math.Abs(dot) < tol {
				continue
			}
			if math.Abs(dot) > worst {
				worst = math.Abs(dot)
			}
			mi := 1 / top.Atoms[c.I].Mass
			mj := 1 / top.Atoms[c.J].Mass
			k := dot / (d.Norm2() * (mi + mj))
			e.V[c.I] = e.V[c.I].Sub(d.Scale(k * mi))
			e.V[c.J] = e.V[c.J].Add(d.Scale(k * mj))
		}
		if worst < tol {
			break
		}
	}
}

// berendsen rescales velocities toward the target temperature.
func (e *Engine) berendsen() {
	T := e.Temperature()
	if T <= 0 {
		return
	}
	lam := math.Sqrt(1 + e.Cfg.Dt/e.Cfg.TauT*(e.Cfg.TargetT/T-1))
	for i := range e.V {
		e.V[i] = e.V[i].Scale(lam)
	}
}

// KineticEnergy returns the kinetic energy in kcal/mol.
func (e *Engine) KineticEnergy() float64 {
	ke := 0.0
	for i, a := range e.Sys.Top.Atoms {
		ke += 0.5 * ff.VelToKinetic * a.Mass * e.V[i].Norm2()
	}
	return ke
}

// Temperature returns the instantaneous kinetic temperature.
func (e *Engine) Temperature() float64 {
	dof := e.Sys.Top.DegreesOfFreedom()
	if dof <= 0 {
		return 0
	}
	return 2 * e.KineticEnergy() / (float64(dof) * ff.KB)
}

// TotalEnergy returns kinetic + potential of the last evaluation.
func (e *Engine) TotalEnergy() float64 { return e.KineticEnergy() + e.PotentialEnergy }

// StepCount returns the number of completed steps.
func (e *Engine) StepCount() int { return e.step }
