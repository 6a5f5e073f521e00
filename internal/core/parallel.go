package core

import (
	"runtime"
	"sync"
)

// The engine parallelizes its force phases across OS threads, mirroring
// how Anton's phases run concurrently across hardware units. Because
// every accumulator — forces, mesh charge, energies — is a wrapping
// fixed-point integer, partial results merge associatively: the
// trajectory and every reported energy are bitwise identical for ANY
// worker count or scheduling — the same §4 property that gives the
// machine its parallel invariance.

// workers returns the configured worker count.
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

// blocksPerWorker is the number of equal blocks a parallel section is cut
// into per worker. Work per index is not uniform — DHFR's subbox-pair
// list is denser in its second half — so one contiguous chunk per worker
// leaves the lighter worker idle; dealt round-robin, each worker's blocks
// sample the whole list. Measured (DESIGN §7): the worst per-worker
// computed-pair max/mean over 8 DHFR steps on two workers is 1.042 at 16
// blocks per worker and 1.003 at 32; at 32 the 645-atom water box's step
// did not slow, though its constraint groups go four to a block.
const blocksPerWorker = 32

// blockLayout returns the block length and block count of a parallel
// section over [0, n): one block for one worker (or n <= 1), otherwise
// min(n, workers*blocksPerWorker) equal blocks, the last one shorter.
// Block b is [b*size, min((b+1)*size, n)) and belongs to worker
// b mod workers.
func blockLayout(n, workers int) (size, blocks int) {
	if workers <= 1 || n <= 1 {
		return n, 1
	}
	size = (n + workers*blocksPerWorker - 1) / (workers * blocksPerWorker)
	return size, (n + size - 1) / size
}

// parallelChunks runs fn(worker, lo, hi) once per block of blockLayout
// (n, workers), block b on worker b mod workers. A worker runs its blocks
// in ascending order on one goroutine, so per-worker state needs no lock;
// the block-to-worker map depends only on n and the worker count, never on
// scheduling. Worker 0 runs on the calling goroutine, which would
// otherwise only wait: one goroutine (and its closure allocation) fewer
// per parallel section.
func parallelChunks(n, workers int, fn func(worker, lo, hi int)) {
	size, blocks := blockLayout(n, workers)
	active := min(workers, blocks)
	if active <= 1 {
		fn(0, 0, n)
		return
	}
	run := func(w int) {
		for b := w; b < blocks; b += workers {
			fn(w, b*size, min((b+1)*size, n))
		}
	}
	var wg sync.WaitGroup
	wg.Add(active - 1)
	for w := 1; w < active; w++ {
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
}
