package htis

import (
	"math"

	"anton/internal/ewald"
	"anton/internal/ff"
	"anton/internal/fixp"
	"anton/internal/ppip"
)

// ForceQuantum is the fixed-point force resolution: forces are exchanged
// and accumulated as integer multiples of this many kcal/mol/Å. The
// wrapping integer accumulation is what makes Anton's force sums
// associative and therefore order- and parallelism-invariant.
const ForceQuantum = 1.0 / (1 << 18)

// QuantizeForce converts a physical force component to integer force
// counts with round-to-nearest/even (the symmetric rounding required for
// reversibility).
func QuantizeForce(f float64) int64 {
	return int64(math.RoundToEven(f / ForceQuantum))
}

// ForceValue converts integer force counts back to kcal/mol/Å.
func ForceValue(c int64) float64 { return float64(c) * ForceQuantum }

// EnergyQuantum is the fixed-point energy resolution, kcal/mol per count.
// Every energy the engine reports is a wrapping int64 sum of per-term
// energies quantized to it — the force accumulators' rule — so the sum
// is the same for any grouping, order or parallelism of the terms. An
// int64 of these counts spans ±2^31 kcal/mol.
const EnergyQuantum = 1.0 / (1 << 32)

// QuantizeEnergy converts one term's energy to integer energy counts
// with round-to-nearest/even (symmetric: -e quantizes to the negated
// count).
func QuantizeEnergy(e float64) int64 {
	return int64(math.RoundToEven(e / EnergyQuantum))
}

// EnergyValue converts integer energy counts back to kcal/mol.
func EnergyValue(c int64) float64 { return float64(c) * EnergyQuantum }

// Pipeline is the functional model of one PPIP configured for MD: it
// computes the range-limited (screened electrostatic + Lennard-Jones)
// interaction of an atom pair as a deterministic function of the pair's
// fixed-point displacement and its parameters. Both kernels are evaluated
// through the quantized piecewise-cubic tables, so the pipeline's output
// carries exactly the "numerical force error" the paper characterizes
// (Table 4, last column).
type Pipeline struct {
	BoxL    float64 // cubic box edge, Å
	Cutoff  float64 // range-limited cutoff R, Å
	Split   ewald.Split
	Elec    *ppip.Table // erfc force kernel of x=(r/R)^2
	LJ12    *ppip.Table // x^-7 kernel
	LJ6     *ppip.Table // x^-4 kernel
	ElecE   *ppip.Table // erfc energy kernel (diagnostics)
	MinDist float64     // clamp radius used when building the tables

	// Per-pipeline constants hoisted out of the per-pair datapath (the
	// hardware bakes these into the table build and datapath wiring; the
	// software model must not pay an Erfc and several Pow calls per pair).
	rc2    float64 // Cutoff^2
	l2     float64 // BoxL^2
	eShift float64 // Erfc(Cutoff/(sqrt2*Sigma))/Cutoff: elec energy shift
	invR6  float64 // Cutoff^-6
	invR8  float64 // Cutoff^-8
	invR12 float64 // Cutoff^-12
	invR14 float64 // Cutoff^-14
}

// initConsts populates the hoisted per-pair constants.
func (p *Pipeline) initConsts() {
	p.rc2 = p.Cutoff * p.Cutoff
	p.l2 = p.BoxL * p.BoxL
	p.eShift = math.Erfc(p.Cutoff/(math.Sqrt2*p.Split.Sigma)) / p.Cutoff
	r2 := p.Cutoff * p.Cutoff
	r6 := r2 * r2 * r2
	p.invR6 = 1 / r6
	p.invR8 = 1 / (r6 * r2)
	p.invR12 = 1 / (r6 * r6)
	p.invR14 = 1 / (r6 * r6 * r2)
}

// NewPipeline wires the PPIP tables for the given box, cutoff and Ewald
// split, using the paper's tiered indexing scheme and 22-bit mantissas.
// The tables come from the process-wide cache (ppip.TableFor), so
// pipelines of equal cutoff and split share them.
func NewPipeline(boxL float64, split ewald.Split) (*Pipeline, error) {
	const rmin = 0.9 // Å; shortest distance tables must represent
	p := &Pipeline{BoxL: boxL, Cutoff: split.Cutoff, Split: split, MinDist: rmin}
	var err error
	if p.Elec, err = ppip.TableFor(ppip.Kernel{Kind: ppip.ErfcForce, Sigma: split.Sigma, RCut: split.Cutoff, RMin: rmin}, ppip.PaperScheme, 22); err != nil {
		return nil, err
	}
	if p.LJ12, err = ppip.TableFor(ppip.Kernel{Kind: ppip.LJ12, RCut: split.Cutoff, RMin: 1.1}, ppip.PaperScheme, 22); err != nil {
		return nil, err
	}
	if p.LJ6, err = ppip.TableFor(ppip.Kernel{Kind: ppip.LJ6, RCut: split.Cutoff, RMin: 1.1}, ppip.PaperScheme, 22); err != nil {
		return nil, err
	}
	if p.ElecE, err = ppip.TableFor(ppip.Kernel{Kind: ppip.ErfcEnergy, Sigma: split.Sigma, RCut: split.Cutoff, RMin: rmin}, ppip.PaperScheme, 22); err != nil {
		return nil, err
	}
	p.initConsts()
	return p, nil
}

// PairParams carries the per-pair interaction parameters a PPIP receives
// alongside the positions.
type PairParams struct {
	QQ      float64 // k_C * qi * qj (kcal*Å/mol)
	Sigma   float64 // combined LJ sigma (Å); 0 disables LJ
	Epsilon float64 // combined LJ epsilon (kcal/mol)
}

// PairResult is the quantized output of one pair interaction.
type PairResult struct {
	FX, FY, FZ int64   // force counts on atom i (negate for atom j)
	Energy     float64 // pair energy, kcal/mol (diagnostic path)
	Within     bool    // pair was inside the cutoff
}

// pairStage is how many pairs PairForceBatch carries between its two
// stages.
const pairStage = 64

// PairForce evaluates the range-limited interaction for the pair whose
// fixed-point minimum-image displacement is d = r_i - r_j (box
// fractions). The result depends only on (d, params) — not on which node
// evaluates it — which together with wrapping force accumulation yields
// Anton's parallel invariance. It is PairForceBatch on a batch of one.
func (p *Pipeline) PairForce(d fixp.Vec3, params PairParams) PairResult {
	var res [1]PairResult
	p.PairForceBatch([]fixp.Vec3{d}, []PairParams{params}, res[:])
	return res[0]
}

// PairForceBatch evaluates a batch of pairs: out[k] receives the result
// for (ds[k], params[k]). Batching models the PPIP array's streaming
// operation — parameters and displacements arrive as a queue and results
// leave as a queue. Each result is a function of its own pair alone, so
// how pairs are grouped into batches never shows in the output.
//
// The datapath runs in two stages over pairStage pairs at a time, as the
// hardware pipelines it: distance, cutoff test and table index for every
// pair, then the function units. One pair's datapath is a single long
// dependency chain (a divide, the index, three multiply-and-round Horner
// steps per kernel, the output scaling); short loops over independent
// pairs let the processor overlap the chains of neighbouring pairs.
func (p *Pipeline) PairForceBatch(ds []fixp.Vec3, params []PairParams, out []PairResult) {
	if len(params) != len(ds) || len(out) != len(ds) {
		panic("htis: PairForceBatch slice length mismatch")
	}
	var xs [pairStage]float64 // (r/R)^2, or -1 outside the cutoff
	var segs [pairStage]int
	var tqs [pairStage]int64
	for lo := 0; lo < len(ds); lo += pairStage {
		n := min(pairStage, len(ds)-lo)
		for k, d := range ds[lo : lo+n] {
			// r^2 in box fractions, computed exactly in fixed point.
			r2 := d.Dot(d).Float() * p.l2
			if r2 > p.rc2 || r2 == 0 {
				xs[k] = -1
				continue
			}
			xs[k] = r2 / p.rc2
			// All four tables are built on the same tiered scheme with the
			// same TBits (NewPipeline), so the segment lookup and local-
			// coordinate quantization are shared — one Locate feeds every
			// kernel, as one distance computation feeds all function units
			// in the hardware PPIP.
			segs[k], tqs[k] = p.Elec.Locate(xs[k])
		}
		for k := 0; k < n; k++ {
			if xs[k] < 0 {
				out[lo+k] = PairResult{}
				continue
			}
			p.functionUnits(ds[lo+k], &params[lo+k], xs[k], segs[k], tqs[k], &out[lo+k])
		}
	}
}

// functionUnits is the second stage for one in-cutoff pair: the four
// kernels at the located segment, combined into force counts and energy.
func (p *Pipeline) functionUnits(d fixp.Vec3, params *PairParams, x float64, seg int, tq int64, res *PairResult) {
	fScale := params.QQ * p.Elec.EvaluateAt(seg, tq)
	// Potential-shifted energies (V(r) - V(rc)): the truncated force
	// field's true potential, so energy drift reflects the integrator.
	energy := params.QQ * (p.ElecE.EvaluateAt(seg, tq) - p.eShift)
	if params.Epsilon != 0 {
		t12 := p.LJ12.EvaluateAt(seg, tq)
		t6 := p.LJ6.EvaluateAt(seg, tq)
		// LJ force and energy from the same tabulated kernels, with all
		// cutoff powers precomputed (pure multiplies per pair):
		// F-scale = 24*eps*(2*sigma^12/R^14 * t12 - sigma^6/R^8 * t6)
		// V = 4*eps*(sigma^12/R^12 * t12*x - sigma^6/R^6 * t6*x),
		// shifted by V(rc).
		s2 := params.Sigma * params.Sigma
		s6 := s2 * s2 * s2
		s12 := s6 * s6
		fScale += 24 * params.Epsilon * (2*s12*p.invR14*t12 - s6*p.invR8*t6)
		energy += 4*params.Epsilon*(s12*p.invR12*t12*x-s6*p.invR6*t6*x) -
			4*params.Epsilon*(s12*p.invR12-s6*p.invR6)
	}

	df := d.Float()
	res.FX = QuantizeForce(fScale * df.X * p.BoxL)
	res.FY = QuantizeForce(fScale * df.Y * p.BoxL)
	res.FZ = QuantizeForce(fScale * df.Z * p.BoxL)
	res.Energy = energy
	res.Within = true
}

// PairParamsFor builds PairParams from two atoms and the parameter set.
func PairParamsFor(ps *ff.ParamSet, a, b ff.Atom) PairParams {
	sigma, eps := ps.LJPair(a.LJType, b.LJType)
	return PairParams{
		QQ:      ff.CoulombK * a.Charge * b.Charge,
		Sigma:   sigma,
		Epsilon: eps,
	}
}
