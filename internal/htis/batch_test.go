package htis

import (
	"math/rand"
	"testing"

	"anton/internal/fixp"
	"anton/internal/vec"
)

// randomPairStream samples displacements spanning inside-core, in-range
// and beyond-cutoff distances, with a mix of charged, LJ and combined
// parameter sets — every branch of the pair datapath.
func randomPairStream(n int, seed int64) ([]fixp.Vec3, []PairParams) {
	rng := rand.New(rand.NewSource(seed))
	ds := make([]fixp.Vec3, n)
	params := make([]PairParams, n)
	for i := range ds {
		r := rng.Float64() * 16 // Å; cutoff is 13
		dir := vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Unit()
		ds[i] = fixp.Vec3FromFloat(dir.Scale(r / 64))
		p := PairParams{QQ: (rng.Float64()*2 - 1) * 100}
		if rng.Intn(3) > 0 {
			p.Sigma = 2.5 + rng.Float64()
			p.Epsilon = rng.Float64() * 0.3
		}
		if rng.Intn(8) == 0 {
			p.QQ = 0
		}
		params[i] = p
	}
	return ds, params
}

func TestPairForceBatchBitwiseMatchesScalar(t *testing.T) {
	// The batched entry point is the same datapath as the scalar one; the
	// engine's trajectory must not depend on how pairs are grouped into
	// batches, so every result must be bitwise identical.
	p := newTestPipeline(t)
	ds, params := randomPairStream(5000, 83)
	out := make([]PairResult, len(ds))
	p.PairForceBatch(ds, params, out)
	for i := range ds {
		want := p.PairForce(ds[i], params[i])
		if out[i] != want {
			t.Fatalf("pair %d: batch %+v != scalar %+v", i, out[i], want)
		}
	}
}

// refPairForce is the one-pair-at-a-time datapath the two-stage batch
// replaced, kept as the oracle.
func refPairForce(p *Pipeline, d fixp.Vec3, params PairParams) PairResult {
	r2 := d.Dot(d).Float() * p.l2
	if r2 > p.rc2 || r2 == 0 {
		return PairResult{}
	}
	x := r2 / p.rc2
	seg, tq := p.Elec.Locate(x)
	fScale := params.QQ * p.Elec.EvaluateAt(seg, tq)
	energy := params.QQ * (p.ElecE.EvaluateAt(seg, tq) - p.eShift)
	if params.Epsilon != 0 {
		t12 := p.LJ12.EvaluateAt(seg, tq)
		t6 := p.LJ6.EvaluateAt(seg, tq)
		s2 := params.Sigma * params.Sigma
		s6 := s2 * s2 * s2
		s12 := s6 * s6
		fScale += 24 * params.Epsilon * (2*s12*p.invR14*t12 - s6*p.invR8*t6)
		energy += 4*params.Epsilon*(s12*p.invR12*t12*x-s6*p.invR6*t6*x) -
			4*params.Epsilon*(s12*p.invR12-s6*p.invR6)
	}
	df := d.Float()
	return PairResult{
		FX:     QuantizeForce(fScale * df.X * p.BoxL),
		FY:     QuantizeForce(fScale * df.Y * p.BoxL),
		FZ:     QuantizeForce(fScale * df.Z * p.BoxL),
		Energy: energy,
		Within: true,
	}
}

func TestPairForceBatchBitwiseMatchesReference(t *testing.T) {
	p := newTestPipeline(t)
	// Lengths either side of the stage size, so stage boundaries fall
	// inside, at the end of and beyond a batch.
	for _, n := range []int{1, pairStage - 1, pairStage, pairStage + 1, 5000} {
		ds, params := randomPairStream(n, int64(101+n))
		out := make([]PairResult, n)
		p.PairForceBatch(ds, params, out)
		for i := range ds {
			if want := refPairForce(p, ds[i], params[i]); out[i] != want {
				t.Fatalf("batch of %d, pair %d: %+v, reference %+v", n, i, out[i], want)
			}
		}
	}
}

func TestPairForceBatchSplitInvariant(t *testing.T) {
	// Splitting one stream into arbitrary sub-batches must not change any
	// result (the engine flushes at a fixed queue depth, but correctness
	// must not depend on where the boundaries fall).
	p := newTestPipeline(t)
	ds, params := randomPairStream(1000, 89)
	whole := make([]PairResult, len(ds))
	p.PairForceBatch(ds, params, whole)
	split := make([]PairResult, len(ds))
	rng := rand.New(rand.NewSource(97))
	for lo := 0; lo < len(ds); {
		hi := lo + 1 + rng.Intn(200)
		if hi > len(ds) {
			hi = len(ds)
		}
		p.PairForceBatch(ds[lo:hi], params[lo:hi], split[lo:hi])
		lo = hi
	}
	for i := range whole {
		if whole[i] != split[i] {
			t.Fatalf("pair %d: split batch %+v != whole batch %+v", i, split[i], whole[i])
		}
	}
}

func TestPairForceBatchLengthMismatchPanics(t *testing.T) {
	p := newTestPipeline(t)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched slice lengths did not panic")
		}
	}()
	p.PairForceBatch(make([]fixp.Vec3, 4), make([]PairParams, 4), make([]PairResult, 3))
}

func TestMatchUnitThresholdsInlineEquivalent(t *testing.T) {
	// Thresholds exists so hot loops can inline the check; the inlined
	// arithmetic must agree with MayInteract on every input.
	mu := NewMatchUnit(64, 13, 8)
	shift, limAxis, limR2 := mu.Thresholds()
	rng := rand.New(rand.NewSource(101))
	for i := 0; i < 200000; i++ {
		d := fixp.Vec3FromFloat(vec.V3{
			X: (rng.Float64()*2 - 1) * 0.5,
			Y: (rng.Float64()*2 - 1) * 0.5,
			Z: (rng.Float64()*2 - 1) * 0.5,
		})
		dx := absInt(int64(int32(d.X) >> shift))
		dy := absInt(int64(int32(d.Y) >> shift))
		dz := absInt(int64(int32(d.Z) >> shift))
		inline := dx <= limAxis && dy <= limAxis && dz <= limAxis &&
			dx*dx+dy*dy+dz*dz <= limR2
		if inline != mu.MayInteract(d) {
			t.Fatalf("inline check disagrees with MayInteract for %+v", d)
		}
	}
}

var sinkPairs int

// BenchmarkPairForceBatch is the bench harness's htis.pairforce_ns probe:
// displacements uniform in r up to 1.15 x cutoff through 256-pair batches;
// ns/op is per pair submitted (the probe divides by in-cutoff pairs).
func BenchmarkPairForceBatch(b *testing.B) {
	p := newTestPipeline(b)
	rng := rand.New(rand.NewSource(1))
	const batch = 256
	ds := make([]fixp.Vec3, 1<<15)
	params := make([]PairParams, len(ds))
	for i := range ds {
		r := 0.9 + rng.Float64()*(1.15*13-0.9)
		dir := vec.V3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}.Unit()
		ds[i] = fixp.Vec3FromFloat(dir.Scale(r / p.BoxL))
		params[i] = PairParams{QQ: (rng.Float64()*2 - 1) * 100, Sigma: 2.5 + rng.Float64(), Epsilon: rng.Float64() * 0.3}
	}
	out := make([]PairResult, len(ds))
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		lo := i & (len(ds) - 1)
		p.PairForceBatch(ds[lo:lo+batch], params[lo:lo+batch], out[lo:lo+batch])
	}
	for _, r := range out {
		if r.Within {
			sinkPairs++
		}
	}
}
