package machine

import (
	"math"
	"testing"

	"anton/internal/system"
)

func TestNewMachineValidation(t *testing.T) {
	for _, n := range []int{1, 2, 512, 32768} {
		m, err := New(n)
		if err != nil {
			t.Fatalf("New(%d): %v", n, err)
		}
		if m.Dims[0]*m.Dims[1]*m.Dims[2] != n {
			t.Errorf("dims %v do not multiply to %d", m.Dims, n)
		}
	}
	for _, n := range []int{0, 3, 100, 65536} {
		if _, err := New(n); err == nil {
			t.Errorf("New(%d) accepted", n)
		}
	}
}

func TestTorusDims(t *testing.T) {
	cases := map[int][3]int{
		1:     {1, 1, 1},
		2:     {2, 1, 1},
		8:     {2, 2, 2},
		128:   {8, 4, 4},
		512:   {8, 8, 8}, // the paper's configuration
		32768: {32, 32, 32},
	}
	for n, want := range cases {
		m, _ := New(n)
		if m.Dims != want {
			t.Errorf("dims(%d) = %v, want %v", n, m.Dims, want)
		}
	}
}

func TestPartition(t *testing.T) {
	m, _ := New(512)
	p, err := m.Partition(4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Nodes != 128 {
		t.Errorf("partition: got %d nodes", p.Nodes)
	}
	if _, err := m.Partition(3); err == nil {
		t.Error("partition into 3 accepted")
	}
}

// dhfrWorkload matches the paper's DHFR benchmark (Table 2/Table 4).
func dhfrWorkload(cutoff float64, mesh int) Workload {
	spec, _ := system.SpecFor("DHFR")
	w := WorkloadFromSpec(spec)
	w.Cutoff = cutoff
	w.Mesh = mesh
	w.RSpread = system.RSpreadFor(cutoff)
	return w
}

func TestTable2AntonColumns(t *testing.T) {
	// Table 2, right columns: DHFR per-step task times on one node of a
	// 512-node machine, for both electrostatics parameter sets. We require
	// each modelled task time within a factor band of the paper's
	// measurement, and the structural relations to hold exactly.
	m, _ := New(512)
	small := DefaultModel.Estimate(m, dhfrWorkload(9, 64))
	large := DefaultModel.Estimate(m, dhfrWorkload(13, 32))

	check := func(name string, got, want, band float64) {
		t.Helper()
		gotUs := got * 1e6
		if gotUs < want/band || gotUs > want*band {
			t.Errorf("%s: modelled %.3g us, paper %.3g us (band %.1fx)", name, gotUs, want, band)
		}
	}
	// Paper values in microseconds.
	check("small/range-limited", small.RangeLimited, 1.4, 2.0)
	check("small/FFT", small.FFT, 24.7, 1.5)
	check("small/mesh", small.MeshInterp, 9.5, 2.2)
	check("small/correction", small.Correction, 2.5, 1.6)
	check("small/bonded", small.Bonded, 3.5, 1.7)
	check("small/integration", small.Integration, 1.6, 1.7)
	check("small/total", small.TotalLongRange, 39.2, 1.4)

	check("large/range-limited", large.RangeLimited, 1.9, 2.0)
	check("large/FFT", large.FFT, 8.9, 1.5)
	check("large/mesh", large.MeshInterp, 2.0, 2.2)
	check("large/correction", large.Correction, 2.5, 1.6)
	check("large/bonded", large.Bonded, 4.1, 1.7)
	check("large/total", large.TotalLongRange, 15.4, 1.4)

	// Structure: on Anton the large-cutoff/coarse-mesh configuration is
	// faster overall (the co-design argument of §3.1) — by about 2.5x.
	if large.TotalLongRange >= small.TotalLongRange {
		t.Error("Anton should prefer large cutoff + coarse mesh")
	}
	ratio := small.TotalLongRange / large.TotalLongRange
	if ratio < 1.7 || ratio > 3.5 {
		t.Errorf("Anton speedup from parameter change: %.2fx, paper ~2.5x", ratio)
	}
}

func TestTable2X86Columns(t *testing.T) {
	small := DefaultX86.Estimate(dhfrWorkload(9, 64))
	large := DefaultX86.Estimate(dhfrWorkload(13, 32))
	check := func(name string, got, wantMs, band float64) {
		t.Helper()
		gotMs := got * 1e3
		if gotMs < wantMs/band || gotMs > wantMs*band {
			t.Errorf("%s: modelled %.3g ms, paper %.3g ms", name, gotMs, wantMs)
		}
	}
	check("small/range-limited", small.RangeLimited, 56.6, 1.4)
	check("small/FFT", small.FFT, 12.3, 1.3)
	check("small/mesh", small.MeshInterp, 9.6, 1.5)
	check("small/bonded", small.Bonded, 2.7, 1.8)
	check("small/integration", small.Integration, 3.4, 1.3)
	check("small/total", small.Total, 88.5, 1.3)

	check("large/range-limited", large.RangeLimited, 164.4, 1.4)
	check("large/FFT", large.FFT, 1.4, 1.3)
	check("large/total", large.Total, 184.5, 1.3)

	// Structure: on the x86 the same parameter change is a ~2x slowdown.
	ratio := large.Total / small.Total
	if ratio < 1.5 || ratio > 2.7 {
		t.Errorf("x86 slowdown from parameter change: %.2fx, paper ~2.1x", ratio)
	}
	// Range-limited dominates the x86 profile (64% / 89%).
	if small.RangeLimited/small.Total < 0.5 || large.RangeLimited/large.Total < 0.75 {
		t.Error("x86 profile should be dominated by range-limited forces")
	}
}

func TestTable4Rates(t *testing.T) {
	// Table 4 performance column: microseconds/day on 512 nodes.
	want := map[string]float64{
		"gpW":    18.7,
		"DHFR":   16.4,
		"aSFP":   11.2,
		"NADHOx": 6.4,
		"FtsZ":   5.8,
		"T7Lig":  5.5,
	}
	m, _ := New(512)
	prev := math.Inf(1)
	for _, name := range system.Table4Names() {
		spec, _ := system.SpecFor(name)
		p := DefaultModel.Estimate(m, WorkloadFromSpec(spec))
		w := want[name]
		if p.RatePerDay < w/1.45 || p.RatePerDay > w*1.45 {
			t.Errorf("%s: modelled %.1f us/day, paper %.1f", name, p.RatePerDay, w)
		}
		// Monotone: bigger systems are never faster.
		if p.RatePerDay > prev*1.02 {
			t.Errorf("%s: rate %.1f exceeds smaller system's %.1f", name, p.RatePerDay, prev)
		}
		prev = p.RatePerDay
	}
}

func TestInverseNScalingAbove25k(t *testing.T) {
	// Figure 5: above ~25k atoms the rate falls with the atom count;
	// below, it plateaus as communication dominates.
	m, _ := New(512)
	specBig, _ := system.SpecFor("FtsZ")
	specBigger, _ := system.SpecFor("T7Lig")
	pBig := DefaultModel.Estimate(m, WorkloadFromSpec(specBig))
	pBigger := DefaultModel.Estimate(m, WorkloadFromSpec(specBigger))
	if pBigger.RatePerDay >= pBig.RatePerDay {
		t.Error("rate should fall with system size in the large regime")
	}
	// Plateau: gpW (9.9k atoms) is not proportionally faster than DHFR.
	specS, _ := system.SpecFor("gpW")
	specM, _ := system.SpecFor("DHFR")
	pS := DefaultModel.Estimate(m, WorkloadFromSpec(specS))
	pM := DefaultModel.Estimate(m, WorkloadFromSpec(specM))
	atomRatio := 23558.0 / 9865.0 // 2.39x
	if pS.RatePerDay/pM.RatePerDay > atomRatio*0.75 {
		t.Errorf("small-system plateau missing: gpW/DHFR rate ratio %.2f vs atom ratio %.2f",
			pS.RatePerDay/pM.RatePerDay, atomRatio)
	}
}

func TestPartitionPerformance(t *testing.T) {
	// Section 5.1: a 128-node partition achieves 7.5 us/day on DHFR —
	// well over 25% of the 512-node rate (16.4).
	spec, _ := system.SpecFor("DHFR")
	w := WorkloadFromSpec(spec)
	m512, _ := New(512)
	m128, _ := New(128)
	r512 := DefaultModel.Estimate(m512, w).RatePerDay
	r128 := DefaultModel.Estimate(m128, w).RatePerDay
	if r128 < 7.5/1.45 || r128 > 7.5*1.45 {
		t.Errorf("128-node DHFR: modelled %.1f us/day, paper 7.5", r128)
	}
	if r128 < 0.25*r512 {
		t.Errorf("128-node rate %.1f below 25%% of 512-node %.1f", r128, r512)
	}
	if r128 >= r512 {
		t.Error("more nodes should be faster for DHFR")
	}
}

func TestSmallSystemsDoNotBenefitFromHugeMachines(t *testing.T) {
	// Section 5.1: configurations beyond 512 nodes will not help systems
	// with only a few thousand atoms.
	spec, _ := system.SpecFor("gpW")
	w := WorkloadFromSpec(spec)
	m512, _ := New(512)
	m4096, _ := New(4096)
	r512 := DefaultModel.Estimate(m512, w).RatePerDay
	r4096 := DefaultModel.Estimate(m4096, w).RatePerDay
	if r4096 > r512*1.35 {
		t.Errorf("gpW gained %.2fx from 512 -> 4096 nodes; should be marginal",
			r4096/r512)
	}
}

func TestClusterModelDesmondPoint(t *testing.T) {
	// Section 5.1: Desmond runs DHFR at 471 ns/day on a 512-node cluster
	// (two cores per node); practical cluster rates are ~100 ns/day.
	w := dhfrWorkload(9, 64)
	rate := DefaultCluster.RatePerDay(w, 512)
	if rate < 0.471/1.4 || rate > 0.471*1.4 {
		t.Errorf("Desmond 512-node DHFR: modelled %.3f us/day, paper 0.471", rate)
	}
	// A modest 32-node cluster lands near the ~100 ns/day regime.
	rate32 := DefaultCluster.RatePerDay(w, 32)
	if rate32 < 0.04 || rate32 > 0.3 {
		t.Errorf("32-node cluster rate %.3f us/day outside the practical range", rate32)
	}
	// Anton's advantage at full parallelism: >20x over the best cluster
	// datapoint and ~2 orders of magnitude over practical rates.
	m, _ := New(512)
	anton := DefaultModel.Estimate(m, dhfrWorkload(13, 32)).RatePerDay
	if anton/rate < 20 {
		t.Errorf("Anton/Desmond ratio %.1f too small", anton/rate)
	}
	if anton/rate32 < 60 {
		t.Errorf("Anton/practical-cluster ratio %.1f should approach two orders of magnitude", anton/rate32)
	}
}

func TestClusterScalingRollsOver(t *testing.T) {
	// Commodity scaling saturates: going from 512 to 4096 nodes gains
	// little or hurts (the paper: using more nodes decreases performance).
	w := dhfrWorkload(9, 64)
	r512 := DefaultCluster.RatePerDay(w, 512)
	r4096 := DefaultCluster.RatePerDay(w, 4096)
	if r4096 > r512*1.6 {
		t.Errorf("cluster kept scaling: %.3f -> %.3f", r512, r4096)
	}
}

func TestWaterOnlyFasterThanProtein(t *testing.T) {
	// Figure 5: water-only systems run 3-24% faster than protein systems
	// of the same size (no bond terms).
	m, _ := New(512)
	spec, _ := system.SpecFor("DHFR")
	wProt := WorkloadFromSpec(spec)
	wWater := wProt
	wWater.BondTerms = 0
	rProt := DefaultModel.Estimate(m, wProt).RatePerDay
	rWater := DefaultModel.Estimate(m, wWater).RatePerDay
	gain := rWater/rProt - 1
	if gain <= 0 {
		t.Errorf("water-only not faster: %.1f vs %.1f", rWater, rProt)
	}
	if gain > 0.40 {
		t.Errorf("water-only gain %.0f%% implausibly large", gain*100)
	}
}

func TestWorkloadFromSystemMatchesSpecEstimate(t *testing.T) {
	s, err := system.ByName("gpW")
	if err != nil {
		t.Fatal(err)
	}
	exact := WorkloadFromSystem(s)
	spec, _ := system.SpecFor("gpW")
	est := WorkloadFromSpec(spec)
	if exact.Atoms != est.Atoms {
		t.Errorf("atom counts differ: %d vs %d", exact.Atoms, est.Atoms)
	}
	relDiff := func(a, b int) float64 {
		return math.Abs(float64(a-b)) / math.Max(float64(a), 1)
	}
	if relDiff(exact.BondTerms, est.BondTerms) > 0.30 {
		t.Errorf("bond terms: exact %d vs estimated %d", exact.BondTerms, est.BondTerms)
	}
	if relDiff(exact.Exclusions, est.Exclusions) > 0.30 {
		t.Errorf("exclusions: exact %d vs estimated %d", exact.Exclusions, est.Exclusions)
	}
}

func TestBPTIRateMatchesPaper(t *testing.T) {
	// Section 5.3: the BPTI system initially ran at 9.8 us/day, with later
	// software and clock improvements reaching 18.2; our model should land
	// in that range.
	spec, _ := system.SpecFor("BPTI")
	m, _ := New(512)
	p := DefaultModel.Estimate(m, WorkloadFromSpec(spec))
	if p.RatePerDay < 9.8/1.4 || p.RatePerDay > 18.2*1.4 {
		t.Errorf("BPTI: modelled %.1f us/day, paper 9.8-18.2", p.RatePerDay)
	}
}

func TestMaxHops(t *testing.T) {
	m, _ := New(512)
	if got := m.MaxHops(); got != 12 {
		t.Errorf("max hops on 8x8x8: got %d, want 12", got)
	}
}
