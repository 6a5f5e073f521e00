package core

import (
	"reflect"
	"sort"
	"sync"
	"testing"
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
