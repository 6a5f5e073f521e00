package core

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"anton/internal/nt"
	"anton/internal/system"
)

// TestOneNodeRunsOnEveryWorker is the 1-node probe of the one force
// pipeline: a DefaultConfig(1) engine is one shard, and with two workers
// both compute pairs, while the trajectory is the one-worker engine's and
// the 8-shard engine's, bit for bit (`small`, the benchmark's builder seed
// and velocities).
func TestOneNodeRunsOnEveryWorker(t *testing.T) {
	const steps = 20
	s, err := system.Small(true, 1)
	if err != nil {
		t.Fatal(err)
	}
	vel := system.InitVelocities(s.Top, 300, rand.New(rand.NewSource(1)))
	digest := func(workers int) (uint64, *Engine) {
		cfg := DefaultConfig(1)
		cfg.Workers = workers
		e, err := NewEngine(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.SetVelocities(vel)
		e.Step(steps)
		return e.StateDigest(), e
	}
	two, e := digest(2)
	if len(e.shards) != 1 || e.shards[0].wps != 2 {
		t.Fatalf("%d shards on %d workers, want one shard on 2", len(e.shards), e.shards[0].wps)
	}
	for w, wk := range e.shards[0].wk {
		if n := wk.diag.pairs.Computed; n <= 0 {
			t.Errorf("worker %d computed %d pairs in the last evaluation", w, n)
		}
	}
	if one, _ := digest(1); one != two {
		t.Errorf("digest %016x on one worker, %016x on two", one, two)
	}
	sh, err := NewSharded(s, DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	sh.SetVelocities(vel)
	sh.Step(steps)
	if got := sh.StateDigest(); got != two {
		t.Errorf("digest %016x at 8 shards, %016x on one node", got, two)
	}
}

// TestNewEngineStartsNoGoroutine: the one-shard engine runs its stages on
// the caller, so building and stepping it (on one worker, whose parallel
// sections run inline too) leaves the goroutine count as it was, and
// there is nothing to close.
func TestNewEngineStartsNoGoroutine(t *testing.T) {
	// Let goroutines of earlier tests finish exiting.
	before := runtime.NumGoroutine()
	for range 50 {
		time.Sleep(2 * time.Millisecond)
		if n := runtime.NumGoroutine(); n == before {
			break
		} else {
			before = n
		}
	}
	e := smallWaterEngine(t, 8, func(c *Config) { c.Workers = 1 })
	e.Step(6)
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before NewEngine + Step, %d after", before, after)
	}
}

// TestShardPairListsPartitionSubPairs: e.subPairs is grouped by shard in
// place. The one-shard engine's list is the whole array (no copy), and
// the 8-shard engine's lists tile its array in shard order, each pair
// assigned to its NT node, together the one-shard engine's pairs exactly
// once.
func TestShardPairListsPartitionSubPairs(t *testing.T) {
	mono := smallWaterEngine(t, 8, nil)
	if p := mono.shards[0].myPairs; len(p) != len(mono.subPairs) || &p[0] != &mono.subPairs[0] {
		t.Fatalf("the one shard's %d pairs are not e.subPairs' %d", len(p), len(mono.subPairs))
	}
	e := smallWaterSharded(t, 8, nil)
	off := 0
	for _, st := range e.shards {
		if n := len(st.myPairs); n > 0 && (off+n > len(e.subPairs) || &st.myPairs[0] != &e.subPairs[off]) {
			t.Fatalf("shard %d's %d pairs are not e.subPairs[%d:]", st.id, n, off)
		}
		for _, bp := range st.myPairs {
			ba := nt.SubToBox(e.subGrid, e.grid, e.subGrid.Coord(int(bp[0])))
			bb := nt.SubToBox(e.subGrid, e.grid, e.subGrid.Coord(int(bp[1])))
			if node := int32(e.grid.Index(nt.AssignPairNode(e.grid, ba, bb))); ba != bb && node != st.id {
				t.Fatalf("pair %v on shard %d, its NT node is %d", bp, st.id, node)
			}
		}
		off += len(st.myPairs)
	}
	if off != len(e.subPairs) {
		t.Fatalf("shard lists cover %d of %d pairs", off, len(e.subPairs))
	}
	cmp := func(a, b [2]int32) int {
		if a[0] != b[0] {
			return int(a[0] - b[0])
		}
		return int(a[1] - b[1])
	}
	want, got := slices.Clone(mono.subPairs), slices.Clone(e.subPairs)
	slices.SortFunc(want, cmp)
	slices.SortFunc(got, cmp)
	if !slices.Equal(got, want) {
		t.Fatal("the 8-shard pair list is not the one-shard list regrouped")
	}
}

// TestShardWorkerBuffersReuseAndZeroing: growing the worker count keeps
// the buffers already allocated, worker 0 has no buffer of its own (it
// adds into the shard's accumulators), and the gather zeroes the other
// workers' buffers at every slot the shard's sections can touch.
func TestShardWorkerBuffersReuseAndZeroing(t *testing.T) {
	e := smallWaterEngine(t, 8, func(c *Config) { c.Workers = 2 })
	e.Step(1)
	st := e.shards[0]
	prev := &st.wk[1].buf[0]
	st.ensureWorkers(4)
	if len(st.wk) != 4 || &st.wk[1].buf[0] != prev {
		t.Fatalf("growing to 4 workers: %d workers, worker 1's buffer reallocated: %v", len(st.wk), &st.wk[1].buf[0] != prev)
	}
	if st.wk[0].buf != nil {
		t.Fatalf("worker 0 holds a %d-entry buffer", len(st.wk[0].buf))
	}
	for w := range st.wk[1:] {
		for i := range st.wk[1+w].buf {
			st.wk[1+w].buf[i] = Force3{X: 7, Y: -7, Z: int64(w)}
		}
	}
	e.Cfg.Workers = 4
	st.begin(false)
	st.gather()
	for _, s := range st.needSlots {
		for w := 1; w < st.wps; w++ {
			if f := st.wk[w].buf[s]; f != (Force3{}) {
				t.Fatalf("worker %d: slot %d holds %+v after the gather", w, s, f)
			}
		}
	}
}

// TestShardReducesMatchSerialSum: the partials reduce adds the buffers of
// the workers past 0 into the shard's accumulator at every needed slot,
// equal to the obvious serial loop.
func TestShardReducesMatchSerialSum(t *testing.T) {
	e := smallWaterEngine(t, 8, func(c *Config) { c.Workers = 4 })
	e.Step(1)
	st := e.shards[0]
	st.begin(false)
	st.gather()
	rng := rand.New(rand.NewSource(131))
	randForce := func() Force3 {
		return Force3{X: rng.Int63n(1 << 30), Y: -rng.Int63n(1 << 30), Z: rng.Int63n(1 << 30)}
	}
	want := make([]Force3, len(e.Pos))
	for _, s := range st.needSlots {
		st.lfShort[s] = randForce()
		want[s] = st.lfShort[s]
		for w := 1; w < st.wps; w++ {
			f := randForce()
			st.wk[w].buf[s] = f
			want[s] = want[s].Add(f)
		}
	}
	st.addPartials(st.lfShort)
	for _, s := range st.needSlots {
		if st.lfShort[s] != want[s] {
			t.Fatalf("partials: slot %d %+v, serial sum %+v", s, st.lfShort[s], want[s])
		}
	}
}

// TestShardBeginZeroesWorkerDiags: every evaluation starts its workers'
// diagnostics from zero, also after a smaller and then a larger worker
// count, so the published energies and counts are the evaluation's own.
func TestShardBeginZeroesWorkerDiags(t *testing.T) {
	e := smallWaterEngine(t, 8, func(c *Config) { c.Workers = 3 })
	e.Step(1)
	st := e.shards[0]
	for w := range st.wk {
		st.wk[w].diag = evalDiag{bonded: 42, pairs: tally{Computed: 7}}
	}
	e.Cfg.Workers = 2
	st.begin(false)
	for w := range st.wk[:2] {
		if st.wk[w].diag != (evalDiag{}) {
			t.Fatalf("worker %d's diagnostics not zeroed", w)
		}
	}
	e.Cfg.Workers = 3
	st.begin(false)
	if st.wk[2].diag != (evalDiag{}) {
		t.Fatal("worker 2's diagnostics not zeroed when it joined again")
	}
}
