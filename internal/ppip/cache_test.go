package ppip_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"anton/internal/core"
	"anton/internal/ewald"
	"anton/internal/htis"
	"anton/internal/ppip"
	"anton/internal/system"
)

// countFits starts the test on an empty table cache that fits its
// entries with build, and returns the number of fits so far.
func countFits(t *testing.T, build func(func(float64) float64, ppip.Scheme, uint) (*ppip.Table, error)) *atomic.Int64 {
	var n atomic.Int64
	t.Cleanup(ppip.SwapTableBuilder(func(f func(float64) float64, s ppip.Scheme, bits uint) (*ppip.Table, error) {
		n.Add(1)
		return build(f, s, bits)
	}))
	return &n
}

// smallEngine builds an engine of the `small` system (seed 1) after
// letting edit change the system and the configuration.
func smallEngine(t *testing.T, edit func(*system.System, *core.Config)) *core.Engine {
	t.Helper()
	s, err := system.Small(true, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(8)
	if edit != nil {
		edit(s, &cfg)
	}
	e, err := core.NewEngine(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// pipeTables lists a pipeline's four tables in a fixed order.
func pipeTables(e *core.Engine) [4]*ppip.Table {
	return [4]*ppip.Table{e.Pipe.Elec, e.Pipe.ElecE, e.Pipe.LJ12, e.Pipe.LJ6}
}

// digestAfter20 runs 20 steps from seed-1 velocities and returns the
// state digest.
func digestAfter20(e *core.Engine) uint64 {
	e.SetVelocities(system.InitVelocities(e.Sys.Top, 300, rand.New(rand.NewSource(1))))
	e.Step(20)
	return e.StateDigest()
}

// TestTableCacheKeys: engines of one system share all five tables; a
// system that differs in cutoff or spreading radius, or a pipeline on
// another Ewald σ, gets fresh tables for exactly the kernels that read the
// changed parameter and shares the rest; and an engine on cached tables
// runs the same trajectory as one on tables from the serial reference fit.
func TestTableCacheKeys(t *testing.T) {
	fits := countFits(t, ppip.Build)
	base := smallEngine(t, nil)
	if n := fits.Load(); n != 5 {
		t.Fatalf("first engine fitted %d tables, want 5", n)
	}
	if again := smallEngine(t, nil); pipeTables(again) != pipeTables(base) || fits.Load() != 5 {
		t.Fatalf("second engine of the same system did not share the tables (%d fits)", fits.Load())
	}

	for _, c := range []struct {
		name   string
		edit   func(*system.System, *core.Config)
		fits   int64   // fresh tables: the kernels that read the parameter
		shared [4]bool // which of Elec, ElecE, LJ12, LJ6 stay shared
	}{
		// σ follows the cutoff, and the spreading σ₁ follows σ.
		{"cutoff", func(s *system.System, _ *core.Config) { s.Cutoff = 6.5 }, 5, [4]bool{}},
		{"RSpread", func(s *system.System, _ *core.Config) { s.RSpread *= 0.9 }, 1, [4]bool{true, true, true, true}},
	} {
		before := fits.Load()
		e := smallEngine(t, c.edit)
		if n := fits.Load() - before; n != c.fits {
			t.Errorf("%s: %d tables fitted, want %d", c.name, n, c.fits)
		}
		got, want := pipeTables(e), pipeTables(base)
		for i := range got {
			if (got[i] == want[i]) != c.shared[i] {
				t.Errorf("%s: pipeline table %d shared = %v, want %v", c.name, i, got[i] == want[i], c.shared[i])
			}
		}
	}

	// σ alone (the engine's Ewald tolerance is a constant): a pipeline on a
	// tighter tolerance refits the two erfc kernels and shares the LJ ones.
	before := fits.Load()
	tight := ewald.Split{Sigma: ewald.SigmaForCutoff(base.Split.Cutoff, 1e-6), Cutoff: base.Split.Cutoff}
	p, err := htis.NewPipeline(base.Pipe.BoxL, tight)
	if err != nil {
		t.Fatal(err)
	}
	if n := fits.Load() - before; n != 2 {
		t.Errorf("sigma: %d tables fitted, want 2", n)
	}
	got, want := [4]*ppip.Table{p.Elec, p.ElecE, p.LJ12, p.LJ6}, pipeTables(base)
	for i, shared := range [4]bool{false, false, true, true} {
		if (got[i] == want[i]) != shared {
			t.Errorf("sigma: pipeline table %d shared = %v, want %v", i, got[i] == want[i], shared)
		}
	}

	cached := digestAfter20(base)
	countFits(t, ppip.RefBuild)
	ref := smallEngine(t, nil)
	if pipeTables(ref)[0] == pipeTables(base)[0] {
		t.Fatal("the reference engine reused a cached table")
	}
	if got := digestAfter20(ref); got != cached {
		t.Fatalf("digest after 20 steps: %016x on cached tables, %016x on reference fits", cached, got)
	}
}

// TestTableCacheConcurrent: engines constructed at once fit each of their
// five tables exactly once and all share them. Run under -race.
func TestTableCacheConcurrent(t *testing.T) {
	fits := countFits(t, ppip.Build)
	const n = 8
	systems := make([]*system.System, n)
	for i := range systems {
		var err error
		if systems[i], err = system.Small(true, 1); err != nil {
			t.Fatal(err)
		}
	}
	engines := make([]*core.Engine, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			engines[i], errs[i] = core.NewEngine(systems[i], core.DefaultConfig(8))
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
	}
	if got := fits.Load(); got != 5 {
		t.Fatalf("%d engines fitted %d tables, want 5", n, got)
	}
	for i, e := range engines[1:] {
		if pipeTables(e) != pipeTables(engines[0]) {
			t.Fatalf("engine %d holds different tables from engine 0", i+1)
		}
	}
}
