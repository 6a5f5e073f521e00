package machine

import (
	"math"

	"anton/internal/nt"
)

// Workload summarizes the per-step computational work of a chemical
// system, the inputs to the performance models.
type Workload struct {
	Atoms        int     // total particles
	ChargedAtoms int     // particles carrying charge (mesh work)
	Side         float64 // cubic box edge, Å
	Cutoff       float64 // range-limited cutoff, Å
	Mesh         int     // FFT mesh points per axis
	RSpread      float64 // charge-spreading radius, Å
	BondTerms    int     // bonds + angles + dihedrals
	Exclusions   int     // excluded pairs (correction workload)
	Dt           float64 // fs
	MTSInterval  int     // long-range every k steps
}

// Density returns the particle number density.
func (w Workload) Density() float64 {
	return float64(w.Atoms) / (w.Side * w.Side * w.Side)
}

// PairsPerAtom returns the half-count of within-cutoff pairs per atom.
func (w Workload) PairsPerAtom() float64 {
	return 2 * math.Pi / 3 * w.Density() * math.Pow(w.Cutoff, 3)
}

// MeshPointsPerAtom returns the spreading-sphere mesh point count.
func (w Workload) MeshPointsPerAtom() float64 {
	h := w.Side / float64(w.Mesh)
	return 4.0 / 3.0 * math.Pi * math.Pow(w.RSpread, 3) / (h * h * h)
}

// StepProfile is the modelled per-time-step execution profile of one
// node, the Anton analogue of Table 2's right columns. Times in seconds.
type StepProfile struct {
	RangeLimited float64
	FFT          float64 // forward + inverse
	MeshInterp   float64 // charge spreading + force interpolation
	Correction   float64
	Bonded       float64
	Integration  float64

	TotalLongRange float64 // a step that evaluates long-range forces
	TotalShort     float64 // a step that skips them (MTS)
	Average        float64 // MTS-weighted average step time

	Subdiv          int     // chosen subbox division
	MatchEfficiency float64 // estimated analytic match efficiency
	RatePerDay      float64 // simulated microseconds per wall-clock day
}

// Model carries the calibration constants of the Anton performance model.
// The defaults are fitted to Table 2's Anton columns and validated against
// Table 4, Figure 5 and the section 5.1 partitioning results.
type Model struct {
	SyncBase      float64 // per-step fixed choreography cost, s
	SyncPerHop    float64 // added cost per torus hop of machine radius, s
	RangeFixed    float64 // import/export + pipeline drain for range-limited, s
	MeshEff       float64 // PPIP efficiency on mesh interactions
	FFTPhaseLat   float64 // per-exchange-phase latency, s
	FFTPointCost  float64 // per-mesh-point per-phase transfer cost, s
	CorrFixed     float64 // correction pipeline fixed cost, s
	CorrPerPair   float64 // cycles per correction pair
	BondFixed     float64 // bond-destination data movement, s
	BondCycles    float64 // GC cycles per bond term
	IntFixed      float64 // integration fixed cost, s
	IntCyclesAtom float64 // cycles per atom in integration/constraints
}

// DefaultModel is the calibrated production model.
var DefaultModel = Model{
	SyncBase:      1.1e-6,
	SyncPerHop:    0.15e-6,
	RangeFixed:    1.2e-6,
	MeshEff:       0.38,
	FFTPhaseLat:   0.47e-6,
	FFTPointCost:  3.1e-9,
	CorrFixed:     2.3e-6,
	CorrPerPair:   2,
	BondFixed:     2.0e-6,
	BondCycles:    637,
	IntFixed:      1.0e-6,
	IntCyclesAtom: 6,
}

// Estimate computes the per-step profile for a workload on a machine.
func (mod Model) Estimate(m *Machine, w Workload) StepProfile {
	if w.MTSInterval < 1 {
		w.MTSInterval = 2
	}
	n := float64(m.Nodes)
	atomsPerNode := float64(w.Atoms) / n
	chargedPerNode := float64(w.ChargedAtoms) / n
	rho := w.Density()
	// Effective cubic home-box side (geometric mean over torus dims).
	boxSide := w.Side / math.Cbrt(n)

	var p StepProfile

	// --- Range-limited forces on the HTIS (NT method, §3.2.1). ---
	// Choose the smallest subbox division keeping the PPIPs fed
	// (ME >= MinMatchEfficiency, Table 3's motivation).
	subdiv, me := chooseSubdiv(boxSide, w.Cutoff, rho)
	p.Subdiv, p.MatchEfficiency = subdiv, me
	cfg := nt.Config{BoxSide: boxSide, Cutoff: w.Cutoff, Subdiv: subdiv}
	needed := nt.NecessaryPairsPerNode(cfg, rho)
	considered := nt.PairsConsideredPerNode(cfg, rho)
	p.RangeLimited = mod.RangeFixed + PricePairs(considered, needed).Seconds

	// --- Mesh interpolation through the HTIS (GSE, §3.1/Figure 3c). ---
	interactions := chargedPerNode * w.MeshPointsPerAtom()
	tPass := interactions / (NumPPIPs * PPIPClockHz) / mod.MeshEff
	p.MeshInterp = 2 * tPass // spreading + interpolation

	// --- Distributed FFT (§3.2.2, reference [36]). ---
	meshPoints := float64(w.Mesh * w.Mesh * w.Mesh)
	pointsPerNode := meshPoints / n
	if pointsPerNode < 1 {
		pointsPerNode = 1
	}
	// Per-transform cost is dominated by the exchange phases; the local
	// butterflies are folded into the per-point constant (calibrated to
	// the 4-us 32^3 transform of reference [36] and Table 2's 64^3 time).
	tSingle := 6 * (mod.FFTPhaseLat + pointsPerNode*mod.FFTPointCost)
	p.FFT = 2 * tSingle

	// --- Correction pipeline (§3.2.3). ---
	p.Correction = mod.CorrFixed + float64(w.Exclusions)/n*mod.CorrPerPair/BaseClockHz

	// --- Bonded forces on the geometry cores (§3.2.3). ---
	p.Bonded = mod.BondFixed + float64(w.BondTerms)/n*mod.BondCycles/(NumGCs*BaseClockHz)

	// --- Integration + constraints (§3.2.4). ---
	p.Integration = mod.IntFixed + atomsPerNode*mod.IntCyclesAtom/BaseClockHz

	// --- Critical-path combination. ---
	// Long-range steps chain spreading -> FFT -> interpolation; the
	// range-limited, bonded and correction work overlaps with the chain
	// (the caption of Table 2: task times sum to more than the total).
	sync := mod.SyncBase + mod.SyncPerHop*float64(m.MaxHops())
	chain := p.MeshInterp/2 + p.FFT + p.MeshInterp/2
	p.TotalLongRange = sync + p.Integration +
		math.Max(math.Max(chain, p.RangeLimited), math.Max(p.Bonded, p.Correction))
	p.TotalShort = sync + p.Integration +
		math.Max(p.RangeLimited, math.Max(p.Bonded, p.Correction))
	k := float64(w.MTSInterval)
	p.Average = (p.TotalLongRange + (k-1)*p.TotalShort) / k

	// Simulated microseconds per day: dt[fs]*1e-9 us per step.
	p.RatePerDay = w.Dt * 1e-9 * 86400 / p.Average
	return p
}

// chooseSubdiv picks the smallest subbox division in {1,2,4} whose
// estimated match efficiency reaches MinMatchEfficiency, or 4 if none
// does.
func chooseSubdiv(boxSide, cutoff, rho float64) (int, float64) {
	best, bestME := 4, 0.0
	for _, s := range []int{1, 2, 4} {
		cfg := nt.Config{BoxSide: boxSide, Cutoff: cutoff, Subdiv: s}
		me := nt.NecessaryPairsPerNode(cfg, rho) / nt.PairsConsideredPerNode(cfg, rho)
		if s == 1 || me > bestME {
			bestME = me
		}
		if me >= MinMatchEfficiency {
			return s, me
		}
	}
	return best, bestME
}
