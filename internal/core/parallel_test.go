package core

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"anton/internal/vec"
)

// chunkCall is one fn(worker, lo, hi) call of parallelChunks.
type chunkCall struct{ w, lo, hi int }

// captureChunks runs parallelChunks(n, workers) and returns every call,
// grouped by worker in the order that worker made them.
func captureChunks(n, workers int) [][]chunkCall {
	byWorker := make([][]chunkCall, workers)
	var mu sync.Mutex
	parallelChunks(n, workers, func(w, lo, hi int) {
		mu.Lock()
		byWorker[w] = append(byWorker[w], chunkCall{w, lo, hi})
		mu.Unlock()
	})
	return byWorker
}

var (
	scheduleSizes   = []int{0, 1, 2, 7, 17, 1001, 842408}
	scheduleWorkers = []int{1, 2, 3, 8, 16}
)

func TestParallelChunksCoverExactlyOnce(t *testing.T) {
	// Every call is one block: the blocks tile [0, n) with equal lengths
	// (the last may be shorter), block b — the b-th from the left — runs
	// on worker b mod workers, each worker takes its blocks left to
	// right, and every index is visited exactly once. A single worker
	// runs [0, n) as one block.
	for _, n := range scheduleSizes {
		for _, workers := range scheduleWorkers {
			byWorker := captureChunks(n, workers)
			var calls []chunkCall
			for w, seq := range byWorker {
				for k, c := range seq {
					if c.w != w || k > 0 && c.lo < seq[k-1].hi {
						t.Fatalf("n=%d workers=%d: worker %d ran %v out of order", n, workers, w, seq)
					}
				}
				calls = append(calls, seq...)
			}
			sort.Slice(calls, func(a, b int) bool { return calls[a].lo < calls[b].lo })
			if workers == 1 && (len(calls) != 1 || calls[0] != chunkCall{0, 0, n}) {
				t.Fatalf("n=%d: one worker ran %v, want one block [0, %d)", n, calls, n)
			}
			if len(calls) > max(1, workers*blocksPerWorker) {
				t.Fatalf("n=%d workers=%d: %d blocks, more than %d per worker", n, workers, len(calls), blocksPerWorker)
			}
			visits := make([]int32, n)
			for b, c := range calls {
				if c.w != b%workers {
					t.Fatalf("n=%d workers=%d: block %d [%d, %d) on worker %d, want %d",
						n, workers, b, c.lo, c.hi, c.w, b%workers)
				}
				if b+1 < len(calls) && c.hi-c.lo != calls[0].hi-calls[0].lo {
					t.Fatalf("n=%d workers=%d: block %d has length %d, block 0 %d",
						n, workers, b, c.hi-c.lo, calls[0].hi-calls[0].lo)
				}
				for i := c.lo; i < c.hi; i++ {
					visits[i]++
				}
			}
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, v)
				}
			}
		}
	}
}

func TestParallelChunksBoundariesDeterministic(t *testing.T) {
	// The schedule depends only on (n, workers) — never on goroutine
	// timing — so every (worker, lo, hi) call, and each worker's order of
	// calls, repeats exactly across runs.
	for _, n := range scheduleSizes {
		for _, workers := range scheduleWorkers {
			a := captureChunks(n, workers)
			for run := 0; run < 3; run++ {
				b := captureChunks(n, workers)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("n=%d workers=%d: calls %v, then %v", n, workers, a, b)
				}
			}
		}
	}
}

func TestForceBuffersReuseAndZeroing(t *testing.T) {
	e := &Engine{}
	bufs := e.forceBuffers(3, 10)
	if len(bufs) != 3 || len(bufs[0]) != 10 {
		t.Fatalf("got %dx%d buffers, want 3x10", len(bufs), len(bufs[0]))
	}
	// Dirty the buffers; a second call with the same shape must reuse the
	// backing arrays and zero them.
	bufs[1][4] = Force3{X: 7, Y: -7, Z: 7}
	prev := &bufs[1][0]
	bufs2 := e.forceBuffers(3, 10)
	if &bufs2[1][0] != prev {
		t.Error("same-shape forceBuffers call reallocated")
	}
	if bufs2[1][4] != (Force3{}) {
		t.Error("forceBuffers did not zero reused buffer")
	}
	// Growth: more workers reallocates to the larger count.
	bufs3 := e.forceBuffers(5, 10)
	if len(bufs3) != 5 {
		t.Fatalf("growth to 5 workers got %d buffers", len(bufs3))
	}
	// Shrink in workers only narrows the returned view; length change in n
	// must resize every buffer.
	bufs4 := e.forceBuffers(2, 6)
	if len(bufs4) != 2 || len(bufs4[0]) != 6 {
		t.Fatalf("shrink got %dx%d, want 2x6", len(bufs4), len(bufs4[0]))
	}
	for w := range bufs4 {
		for i, f := range bufs4[w] {
			if f != (Force3{}) {
				t.Fatalf("buffer %d index %d not zeroed after resize", w, i)
			}
		}
	}
}

func TestScratchBuffersPreserveSparseZeroInvariant(t *testing.T) {
	// scratchBuffers zeroes only on (re)allocation; consumers must restore
	// touched entries. Verify the contract: fresh buffers are zero, reuse
	// keeps contents (the consumer's restore is what keeps them zero), and
	// reshaping yields fresh zeroed memory.
	e := &Engine{}
	s := e.scratchBuffers(2, 8)
	for w := range s {
		for i, v := range s[w] {
			if v != (vec.V3{}) {
				t.Fatalf("fresh scratch[%d][%d] non-zero", w, i)
			}
		}
	}
	s[0][3] = vec.V3{X: 1}
	s2 := e.scratchBuffers(2, 8)
	if &s2[0][0] != &s[0][0] {
		t.Error("same-shape scratchBuffers call reallocated")
	}
	if s2[0][3] != (vec.V3{X: 1}) {
		t.Error("scratchBuffers unexpectedly cleared reused buffer (contract is sparse zeroing by consumers)")
	}
	s3 := e.scratchBuffers(2, 12)
	for w := range s3 {
		for i, v := range s3[w] {
			if v != (vec.V3{}) {
				t.Fatalf("resized scratch[%d][%d] non-zero", w, i)
			}
		}
	}
}

func TestReduceForcesMatchesSerialSum(t *testing.T) {
	// The parallel fixed-order reduction must equal the obvious serial
	// double loop, with and without a slot-to-atom map.
	rng := rand.New(rand.NewSource(131))
	n := 257
	workers := 4
	e := &Engine{}
	e.reduceChunkFn = e.reduceChunk
	randForce := func() Force3 {
		return Force3{X: rng.Int63n(1 << 30), Y: -rng.Int63n(1 << 30), Z: rng.Int63n(1 << 30)}
	}
	bufs := make([][]Force3, workers)
	for w := range bufs {
		bufs[w] = make([]Force3, n)
		for i := range bufs[w] {
			bufs[w][i] = randForce()
		}
	}
	base := make([]Force3, n)
	for i := range base {
		base[i] = randForce()
	}

	// nil map: dst[i] += sum_w bufs[w][i].
	dst := make([]Force3, n)
	copy(dst, base)
	e.reduceForces(dst, bufs, nil, workers)
	for i := 0; i < n; i++ {
		want := base[i]
		for w := 0; w < workers; w++ {
			want = want.Add(bufs[w][i])
		}
		if dst[i] != want {
			t.Fatalf("nil-map reduction wrong at %d", i)
		}
	}

	// Slot map: a random permutation; dst[map[s]] += sum_w bufs[w][s].
	perm := rng.Perm(n)
	slotToAtom := make([]int32, n)
	for s, a := range perm {
		slotToAtom[s] = int32(a)
	}
	dst2 := make([]Force3, n)
	copy(dst2, base)
	e.reduceForces(dst2, bufs, slotToAtom, workers)
	want2 := make([]Force3, n)
	copy(want2, base)
	for s := 0; s < n; s++ {
		f := bufs[0][s]
		for w := 1; w < workers; w++ {
			f = f.Add(bufs[w][s])
		}
		a := slotToAtom[s]
		want2[a] = want2[a].Add(f)
	}
	for i := 0; i < n; i++ {
		if dst2[i] != want2[i] {
			t.Fatalf("slot-map reduction wrong at %d", i)
		}
	}
}

func TestWorkerAccumsZeroOnEveryCall(t *testing.T) {
	e := &Engine{}
	e.workerAccums(3)
	e.workerDiag[1].bonded = 42
	e.workerDiag[1].pairs.Computed = 7
	e.workerDiag[2].pairs = tally{Considered: 9}
	// A smaller request must still zero the previously-used entries it
	// returns, and reuse the backing array.
	prev := &e.workerDiag[0]
	e.workerAccums(2)
	if &e.workerDiag[0] != prev {
		t.Error("workerAccums reallocated on shrink")
	}
	if e.workerDiag[1] != (evalDiag{}) {
		t.Error("workerAccums did not zero reused entries")
	}
	// Worker 2's stale values are outside the requested range; a later
	// growth back to 3 must zero them again before use.
	e.workerAccums(3)
	if e.workerDiag[2] != (evalDiag{}) {
		t.Error("workerAccums did not zero regrown entries")
	}
}
