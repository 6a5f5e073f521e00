package core

import (
	"runtime"
	"sync"

	"anton/internal/vec"
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

// activeWorkers returns the number of workers that run at least one block
// of a parallel section over [0, n).
func activeWorkers(n, workers int) int {
	_, blocks := blockLayout(n, workers)
	return min(workers, blocks)
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

// forceBuffers returns per-worker force accumulators of length n, reusing
// prior allocations across phases and steps, and zeroing them.
func (e *Engine) forceBuffers(workers, n int) [][]Force3 {
	if len(e.workerF) < workers || len(e.workerF) > 0 && len(e.workerF[0]) != n {
		e.workerF = make([][]Force3, workers)
		for w := range e.workerF {
			e.workerF[w] = make([]Force3, n)
		}
	}
	for w := 0; w < workers; w++ {
		buf := e.workerF[w]
		for i := range buf {
			buf[i] = Force3{}
		}
	}
	return e.workerF[:workers]
}

// workerAccums sizes and zeroes the per-worker diagnostics accumulators,
// reusing prior allocations.
func (e *Engine) workerAccums(workers int) {
	if len(e.workerDiag) < workers {
		e.workerDiag = make([]evalDiag, workers)
	}
	for w := range e.workerDiag[:workers] {
		e.workerDiag[w] = evalDiag{}
	}
}

// scratchBuffers returns per-worker float force scratch of length n for
// the bonded kernels, reusing prior allocations. The buffers rely on the
// sparse-zeroing invariant: every consumer restores touched entries to
// vec.Zero, so they are zeroed only when (re)allocated.
func (e *Engine) scratchBuffers(workers, n int) [][]vec.V3 {
	if len(e.workerScratch) < workers || len(e.workerScratch) > 0 && len(e.workerScratch[0]) != n {
		e.workerScratch = make([][]vec.V3, workers)
		for w := range e.workerScratch {
			e.workerScratch[w] = make([]vec.V3, n)
		}
	}
	return e.workerScratch[:workers]
}

// forceReduction stages the arguments of an in-flight reduceForces call
// for the preallocated chunk closure (avoiding a per-call closure
// allocation on the steady-state step path).
type forceReduction struct {
	dst        []Force3
	bufs       [][]Force3
	slotToAtom []int32
}

// reduceForces adds per-worker buffers into dst, parallelized over index
// ranges. Each range sums every worker's buffer in fixed worker order —
// wrapping fixed-point addition makes the result exact and identical for
// any worker count (and any order, but a fixed order keeps the code
// honest). If slotToAtom is non-nil, buffer index s contributes to
// dst[slotToAtom[s]]; the map is a bijection, so ranges never collide.
func (e *Engine) reduceForces(dst []Force3, bufs [][]Force3, slotToAtom []int32, workers int) {
	e.redu = forceReduction{dst: dst, bufs: bufs, slotToAtom: slotToAtom}
	parallelChunks(len(dst), workers, e.reduceChunkFn)
	e.redu = forceReduction{}
}

// reduceChunk reduces dst indices [lo, hi) of the staged reduction.
func (e *Engine) reduceChunk(_, lo, hi int) {
	dst, bufs, slotToAtom := e.redu.dst, e.redu.bufs, e.redu.slotToAtom
	if slotToAtom == nil {
		for _, buf := range bufs {
			for i := lo; i < hi; i++ {
				dst[i] = dst[i].Add(buf[i])
			}
		}
		return
	}
	for s := lo; s < hi; s++ {
		f := bufs[0][s]
		for w := 1; w < len(bufs); w++ {
			f = f.Add(bufs[w][s])
		}
		a := slotToAtom[s]
		dst[a] = dst[a].Add(f)
	}
}
