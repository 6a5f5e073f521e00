package core

import (
	"math/rand"
	"slices"
	"testing"

	"anton/internal/fixp"
	"anton/internal/htis"
	"anton/internal/system"
	"anton/internal/vec"
)

// TestPairKernelWorkerInvarianceLong is the tier-1 guarantee for the
// slot-indexed pair kernel: the trajectory is bitwise identical for
// Workers in {1, 2, 4, 8} over 100+ steps — long enough to cross many
// migrations (slot map rebuilds) and SHAKE/RATTLE iterations. Wrapping
// force accumulation plus the fixed-order parallel reduction make every
// partial-sum schedule produce the same bits.
func TestPairKernelWorkerInvarianceLong(t *testing.T) {
	const steps = 120
	var refP []vec.V3
	var refV []Vel3
	for _, workers := range []int{1, 2, 4, 8} {
		e := ionicEngine(t, 8, func(c *Config) { c.Workers = workers })
		e.Step(steps)
		p, v := e.Snapshot()
		pos := make([]vec.V3, len(p))
		for i := range p {
			pos[i] = vec.V3{X: float64(p[i].X), Y: float64(p[i].Y), Z: float64(p[i].Z)}
		}
		if refP == nil {
			refP, refV = pos, v
			continue
		}
		for i := range pos {
			if pos[i] != refP[i] || v[i] != refV[i] {
				t.Fatalf("workers=%d: trajectory differs at atom %d after %d steps",
					workers, i, steps)
			}
		}
	}
}

// TestPairKernelWorkerInvarianceConstrained repeats the check on the
// constrained water system (SHAKE/RATTLE, thermostat) for fewer steps.
func TestPairKernelWorkerInvarianceConstrained(t *testing.T) {
	if testing.Short() {
		t.Skip("long constrained-system invariance run")
	}
	const steps = 100
	var refP []vec.V3
	var refV []Vel3
	for _, workers := range []int{1, 2, 4, 8} {
		e := smallWaterEngine(t, 8, func(c *Config) { c.Workers = workers })
		e.Step(steps)
		p, v := e.Snapshot()
		pos := make([]vec.V3, len(p))
		for i := range p {
			pos[i] = vec.V3{X: float64(p[i].X), Y: float64(p[i].Y), Z: float64(p[i].Z)}
		}
		if refP == nil {
			refP, refV = pos, v
			continue
		}
		for i := range pos {
			if pos[i] != refP[i] || v[i] != refV[i] {
				t.Fatalf("workers=%d: trajectory differs at atom %d after %d steps",
					workers, i, steps)
			}
		}
	}
}

// TestPairKernelWorkerInvarianceOddCounts: worker counts that do not
// divide any section's length evenly, and one with more workers than the
// constraint section has blocks (one group per block, the workers past
// them idle), step in lockstep with one worker for 40 steps on the
// three-site and the four-site water box. After every step the forces,
// energies and Stats must be bitwise equal.
func TestPairKernelWorkerInvarianceOddCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("lockstep runs of five engines per system")
	}
	const steps = 40
	small, err := system.Small(true, 21)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*system.System{small, tip4pSmall(t)} {
		t.Run(s.Name, func(t *testing.T) {
			build := func(workers int) *Engine {
				cfg := DefaultConfig(8)
				cfg.Workers = workers
				e, err := NewEngine(s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				e.SetVelocities(system.InitVelocities(s.Top, 300, rand.New(rand.NewSource(33))))
				return e
			}
			ref := build(1)
			many := len(ref.consGroups) + 1
			if activeWorkers(len(ref.consGroups), many) >= many {
				t.Fatalf("%d workers do not outnumber the constraint section's blocks", many)
			}
			var engines []*Engine
			for _, w := range []int{3, 5, 7, many} {
				engines = append(engines, build(w))
			}
			for step := 1; step <= steps; step++ {
				ref.Step(1)
				for _, e := range engines {
					e.Step(1)
					w := e.Cfg.Workers
					switch {
					case !slices.Equal(e.fShort, ref.fShort) || !slices.Equal(e.fLong, ref.fLong):
						t.Fatalf("workers=%d step %d: forces differ", w, step)
					case energyBits(e) != energyBits(ref):
						t.Fatalf("workers=%d step %d: energies differ", w, step)
					case e.Stats != ref.Stats:
						t.Fatalf("workers=%d step %d: Stats %+v, want %+v", w, step, e.Stats, ref.Stats)
					}
				}
			}
		})
	}
}

// TestPairScheduleBalanceDeterministic: the block-cyclic schedule gives
// DHFR's two workers equal shares of the pair section. DHFR's subbox-pair
// list is denser in its second half, so contiguous halves computed
// 4,327,945 and 6,323,823 pairs (max/mean 1.19); dealt block by block
// the larger share must be within 5% of the mean, and the per-worker
// counts must repeat exactly on a second evaluation.
func TestPairScheduleBalanceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 23,558-atom DHFR system")
	}
	s, err := system.ByName("DHFR")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(8)
	cfg.Workers = 2
	e, err := NewEngine(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	computed := func() [2]int64 {
		e.workerAccums(2)
		e.rangeLimitedForces()
		return [2]int64{e.workerDiag[0].pairs.Computed, e.workerDiag[1].pairs.Computed}
	}
	first, second := computed(), computed()
	if first != second {
		t.Fatalf("per-worker computed pairs %v, then %v", first, second)
	}
	mean := float64(first[0]+first[1]) / 2
	ratio := float64(max(first[0], first[1])) / mean
	t.Logf("per-worker computed pairs %v, max/mean %.4f", first, ratio)
	if ratio > 1.05 {
		t.Errorf("per-worker computed pairs %v: max/mean %.4f, want <= 1.05", first, ratio)
	}
}

// TestExclusionListsMatchTopology checks the per-atom skip lists the
// pair scan's exclusion merge reads (the topology's Skip) against a set
// built from the topology's Exclusions and Pairs14: same pair set,
// symmetric, sorted, deduplicated.
func TestExclusionListsMatchTopology(t *testing.T) {
	e := smallWaterEngine(t, 8, nil)
	top := e.Sys.Top
	n := len(top.Atoms)
	want := make(map[[2]int]bool)
	add := func(i, j int) {
		if i > j {
			i, j = j, i
		}
		want[[2]int{i, j}] = true
	}
	for _, p := range top.Exclusions {
		add(int(p[0]), int(p[1]))
	}
	for _, p := range top.Pairs14 {
		add(p.I, p.J)
	}
	if len(top.Skip) != n {
		t.Fatalf("%d skip lists for %d atoms", len(top.Skip), n)
	}
	got := make(map[[2]int]bool)
	for i := 0; i < n; i++ {
		l := top.Skip[i]
		for idx, j := range l {
			if idx > 0 && l[idx-1] >= j {
				t.Fatalf("atom %d: exclusion list not strictly sorted: %v", i, l)
			}
			lo, hi := i, int(j)
			if lo > hi {
				lo, hi = hi, lo
			}
			got[[2]int{lo, hi}] = true
			// Symmetry: i must appear in j's list too.
			if !slices.Contains(top.Skip[j], int32(i)) {
				t.Fatalf("exclusion %d-%d not symmetric", i, j)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("exclusion pair count %d, topology has %d", len(got), len(want))
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("topology exclusion %v missing from skip lists", p)
		}
	}
}

// TestSlotMapsAreInverseBijections checks the migration-time slot
// assignment: atomOf and slotOf are inverse permutations, subbox slot
// ranges tile [0, n), and atoms within a subbox appear in ascending
// index order — the invariant the exclusion merge scan depends on.
func TestSlotMapsAreInverseBijections(t *testing.T) {
	e := smallWaterEngine(t, 8, nil)
	e.Step(25) // cross at least one migration
	k := &e.pk
	n := len(e.Pos)
	if len(k.atomOf) != n || len(k.slotOf) != n {
		t.Fatalf("slot map sizes %d/%d, want %d", len(k.atomOf), len(k.slotOf), n)
	}
	for s := 0; s < n; s++ {
		if k.slotOf[k.atomOf[s]] != int32(s) {
			t.Fatalf("slot %d: atomOf/slotOf not inverse", s)
		}
	}
	ns := e.subGrid.NumBoxes()
	if k.subStart[0] != 0 || k.subStart[ns] != int32(n) {
		t.Fatalf("subStart does not tile [0,%d): first %d last %d",
			n, k.subStart[0], k.subStart[ns])
	}
	for b := 0; b < ns; b++ {
		lo, hi := k.subStart[b], k.subStart[b+1]
		if lo > hi {
			t.Fatalf("subbox %d: slot range [%d,%d) inverted", b, lo, hi)
		}
		for s := lo; s < hi; s++ {
			a := k.atomOf[s]
			if e.subOf[a] != int32(b) {
				t.Fatalf("slot %d holds atom %d of subbox %d, range belongs to %d",
					s, a, e.subOf[a], b)
			}
			if s > lo && k.atomOf[s-1] >= a {
				t.Fatalf("subbox %d slots not in ascending atom order", b)
			}
		}
	}
}

// TestRangeLimitedForcesMatchAllPairs cross-checks the NT-decomposed,
// match-unit-filtered, batched kernel against a direct O(N^2) loop over
// all non-excluded pairs through the scalar PPIP entry point. Wrapping
// accumulation is order-independent, so the per-atom force counts must
// agree bitwise.
func TestRangeLimitedForcesMatchAllPairs(t *testing.T) {
	e := ionicEngine(t, 8, nil)
	e.Step(3) // move off the lattice
	// Engine path.
	for i := range e.fShort {
		e.fShort[i] = Force3{}
	}
	e.refreshPosCache()
	e.rangeLimitedForces()
	got := make([]Force3, len(e.fShort))
	copy(got, e.fShort)

	// Direct path: every pair once, fixed-point minimum-image displacement
	// by wrapping subtraction, scalar PairForce. The match-unit prefilter
	// is part of the datapath contract — without it, distant pairs whose
	// squared fraction distance exceeds the format range would wrap
	// negative and alias into the table's core region (in hardware no such
	// pair ever reaches a PPIP: the concentrator only forwards matches).
	excl := make(map[[2]int]bool)
	for i, l := range e.Sys.Top.Skip {
		for _, j := range l {
			excl[[2]int{i, int(j)}] = true
		}
	}
	top := e.Sys.Top
	want := make([]Force3, len(e.Pos))
	for i := range e.Pos {
		for j := i + 1; j < len(e.Pos); j++ {
			if excl[[2]int{i, j}] {
				continue
			}
			d := fixp.Vec3{
				X: e.Pos[i].X - e.Pos[j].X,
				Y: e.Pos[i].Y - e.Pos[j].Y,
				Z: e.Pos[i].Z - e.Pos[j].Z,
			}
			if !e.mu.MayInteract(d) {
				continue
			}
			res := e.Pipe.PairForce(d, htis.PairParamsFor(e.Sys.Params, top.Atoms[i], top.Atoms[j]))
			if !res.Within {
				continue
			}
			want[i] = want[i].AddRaw(res.FX, res.FY, res.FZ)
			want[j] = want[j].AddRaw(-res.FX, -res.FY, -res.FZ)
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("atom %d: kernel force %+v != all-pairs force %+v", i, got[i], want[i])
		}
	}
}

// scanOnce runs one serial pair scan over every subbox pair of the
// engine's current state, with the bounding-box prefilter on or off.
func scanOnce(e *Engine, prefilter bool) (buf []Force3, d evalDiag) {
	e.pk.refreshGather(e.Pos)
	e.pk.ensureBatches(1)
	buf = make([]Force3, len(e.pk.pos))
	e.scanPairs(e.subPairs, e.pk.pos, buf, &e.pk.batches[0], &d, prefilter)
	return buf, d
}

// TestPrefilterBitwiseInvisible: the bounding-box prefilter may only skip
// candidates the match units reject, so with it and without it the scan
// must match the same pairs and produce the same force counts and energy.
// `small` is the periodic-wrap case: its box (18.6 Å) is narrower than
// twice the subbox-pair reach (11.5 Å), so partner boxes are reachable
// both ways round.
func TestPrefilterBitwiseInvisible(t *testing.T) {
	engines := map[string]func() *Engine{
		"small": func() *Engine {
			e := smallWaterEngine(t, 8, nil)
			e.Step(10) // past two migrations: atoms sit off their subbox centres
			return e
		},
		"tip4p": func() *Engine {
			e, err := NewEngine(tip4pSmall(t), DefaultConfig(8))
			if err != nil {
				t.Fatal(err)
			}
			e.Step(3)
			return e
		},
	}
	if !testing.Short() {
		engines["DHFR"] = func() *Engine {
			s, err := system.ByName("DHFR")
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewEngine(s, DefaultConfig(8))
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
	}
	for name, build := range engines {
		e := build()
		wantF, wantD := scanOnce(e, false)
		gotF, gotD := scanOnce(e, true)
		want, got := wantD.pairs, gotD.pairs
		if want.Tested != want.Considered {
			t.Errorf("%s: unfiltered scan tested %d of %d candidates", name, want.Tested, want.Considered)
		}
		if got.Tested >= got.Considered || got.Tested < got.Matched {
			t.Errorf("%s: prefilter tested %d, considered %d, matched %d — it skipped nothing or too much",
				name, got.Tested, got.Considered, got.Matched)
		}
		if name == "DHFR" && got.Tested > 30e6 {
			t.Errorf("DHFR: %d candidates distance-tested per evaluation, want <= 30 M", got.Tested)
		}
		t.Logf("%s: considered %d, tested %d, matched %d, computed %d",
			name, got.Considered, got.Tested, got.Matched, got.Computed)
		got.Tested, want.Tested = 0, 0
		got.PPIPNs, want.PPIPNs = 0, 0
		if got != want {
			t.Errorf("%s: tallies differ:\n with    %+v\n without %+v", name, got, want)
		}
		if gotD.rangeLimited != wantD.rangeLimited {
			t.Errorf("%s: energy %d with the prefilter, %d without", name, gotD.rangeLimited, wantD.rangeLimited)
		}
		for s := range wantF {
			if gotF[s] != wantF[s] {
				t.Fatalf("%s: slot %d force %+v with the prefilter, %+v without", name, s, gotF[s], wantF[s])
			}
		}
	}
}

// TestPrefilterSmallBox: on `small` nearly every partner subbox is also
// reachable across the periodic boundary (18.6 Å box, 11.5 Å subbox-pair
// reach), the case a bound that gives up on wrapped ranges never rejects.
// With the wrapped cases at most 70% of the candidates are distance-tested
// over 20 steps (the give-up bound tested 94%).
func TestPrefilterSmallBox(t *testing.T) {
	s, err := system.Small(true, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(s, DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	e.SetVelocities(system.InitVelocities(s.Top, 300, rand.New(rand.NewSource(1))))
	e.Step(20)
	st := e.Stats
	t.Logf("small, 20 steps: considered %d, tested %d (%.1f%%), matched %d",
		st.PairsConsidered, st.PairsTested, 100*float64(st.PairsTested)/float64(st.PairsConsidered), st.PairsMatched)
	if float64(st.PairsTested) > 0.7*float64(st.PairsConsidered) || st.PairsTested < st.PairsMatched {
		t.Errorf("tested %d of %d considered (%d matched): want at most 70%% and no fewer than matched",
			st.PairsTested, st.PairsConsidered, st.PairsMatched)
	}
}

// TestAxisGap walks the prefilter's one-axis bound across the ±2^31
// boundary: positions are 32-bit wrapping counts, so a box whose far edge
// is 2^31 or more counts away is also near the other way round, and the
// bound is the nearer of the two approaches.
func TestAxisGap(t *testing.T) {
	const shift = 24
	const half = int64(1) << 31
	cases := []struct {
		name      string
		c, lo, hi int64
		want      int64
	}{
		{"inside the box", 5, -10, 10, 0},
		{"on the upper edge", 10, -10, 10, 0},
		{"above, under one low-precision step", 10 + 1<<24 - 1, -10, 10, 0},
		{"above, exactly one step", 10 + 1<<24, -10, 10, 1},
		{"above by 3.5 steps", 7 << 23, 0, 0, 3},
		{"below by one count floors to a full step", -11, -10, 10, 1},
		{"below by 3.5 steps floors to 4", -(7 << 23), 0, 0, 4},
		{"above, far edge one count short of wrapping", half - 1 - 100, -100, 1 << 26, (half - 1 - 100 - 1<<26) >> shift},
		// near = 2^31-100-2^26 (123 steps, floored); far wraps to -2^31 (128).
		{"above, far edge exactly 2^31 away", half - 100, -100, 1 << 26, 123},
		// near = 2^31-1 (127); far = 3*2^30-1 wraps to -(2^30+1): 64 steps
		// and a count, which the match unit's shift rounds up to 65.
		{"above, far edge beyond 2^31", half - 1, -(1 << 30), 0, 65},
		{"below, far edge exactly -2^31 away", -half + 100, -(1 << 26), 100, (half - 100 - 1<<26 + 1<<24 - 1) >> shift},
		// far = -(2^31-100-2^26) (124, rounded up); near = -2^31-1 wraps to 2^31-1 (127).
		{"below, far edge beyond -2^31", -half + 100, -(1 << 26), 101, 124},
		{"below, wrapped end the nearer", -half + 100, -(1 << 26), 100 + 5<<24, 123},
		{"degenerate box spanning the period", 0, -half, half - 1, 0},
	}
	for _, c := range cases {
		if got := axisGap(c.c, c.lo, c.hi, shift); got != c.want {
			t.Errorf("%s: axisGap(%d, %d, %d) = %d, want %d", c.name, c.c, c.lo, c.hi, got, c.want)
		}
	}

	// Whatever the geometry, the bound never exceeds what the match unit
	// computes for any candidate in the box.
	rng := rand.New(rand.NewSource(9))
	for n := 0; n < 200000; n++ {
		c := int64(int32(rng.Uint32()))
		lo := -int64(rng.Uint32() >> uint(1+rng.Intn(31)))
		hi := int64(rng.Uint32() >> uint(1+rng.Intn(31)))
		o := lo + rng.Int63n(hi-lo+1)
		d := int64(int32(c-o) >> shift) // the match unit's axis magnitude
		if d < 0 {
			d = -d
		}
		if g := axisGap(c, lo, hi, shift); g > d {
			t.Fatalf("axisGap(%d, %d, %d) = %d exceeds candidate %d's |d| = %d", c, lo, hi, g, o, d)
		}
	}
}
