package core

import (
	"anton/internal/ff"
	"anton/internal/fixp"
	"anton/internal/htis"
	"anton/internal/obs"
)

// The cache-resident cluster pair kernel. The HTIS pair loop is the
// dominant per-step cost (on Anton, 32 PPIPs per ASIC exist solely to
// make it fast); in software the same loop must stream cache lines
// instead of chasing pointers. At every migration the kernel gathers the
// per-atom data the loop needs — fixed-point position, CoulombK-scaled
// charge, LJ type — into contiguous arrays indexed by subbox *slot*, so
// that each subbox occupies one contiguous slot range and the inner loop
// touches memory sequentially. Exclusions are consulted by a merge scan
// over per-atom sorted partner lists (subbox slot order is atom order, so
// the scan is linear), eliminating the per-pair hash lookup. Matched
// pairs are queued and evaluated through the batched PPIP entry point,
// and per-worker force partials are reduced in parallel over slot ranges
// in fixed worker order — exact, because wrapping fixed-point addition is
// associative, which is also why none of this changes the trajectory for
// any worker count.

// pairBatchSize is the PPIP input queue depth of the software model: the
// number of matched pairs accumulated before a batched pipeline call.
const pairBatchSize = 256

// pairKernel is the slot-indexed SoA image of the subbox decomposition.
type pairKernel struct {
	// Slot maps, rebuilt at each migration. Slots are assigned in subbox
	// scan order, ascending atom index within a subbox.
	atomOf   []int32 // slot -> atom
	slotOf   []int32 // atom -> slot
	subStart []int32 // subbox -> first slot (len = NumBoxes()+1)

	// Per-slot static parameters, rebuilt at each migration.
	qK    []float64 // CoulombK * charge (QQ = qK[i] * q[j])
	q     []float64 // raw charge
	ljRow []int32   // LJType * nTypes: row base into Engine.ljPairs
	ljCol []int32   // LJType: column offset into Engine.ljPairs

	// Per-slot fixed-point positions, refreshed once per force evaluation
	// between migrations.
	pos []fixp.Vec3

	// Per-worker PPIP batch queues.
	batches []pairBatch

	counts []int32 // per-subbox atom counts (migration scratch)
}

// pairBatch queues matched pairs for one worker between pipeline calls.
// Fixed-capacity arrays with an explicit fill cursor: the hot loop writes
// by index instead of paying append's length/capacity bookkeeping.
type pairBatch struct {
	ds     []fixp.Vec3
	params []htis.PairParams
	out    []htis.PairResult
	si, sj []int32 // slot indices for the force scatter
	n      int     // queued pair count
}

func (b *pairBatch) init() {
	b.ds = make([]fixp.Vec3, pairBatchSize)
	b.params = make([]htis.PairParams, pairBatchSize)
	b.out = make([]htis.PairResult, pairBatchSize)
	b.si = make([]int32, pairBatchSize)
	b.sj = make([]int32, pairBatchSize)
}

// rebuild regenerates the slot maps and per-slot parameters after a
// migration. subOf must hold the current subbox of every atom. All
// buffers are reused across migrations; steady state allocates nothing.
func (k *pairKernel) rebuild(e *Engine) {
	n := len(e.Pos)
	ns := e.subGrid.NumBoxes()
	if k.atomOf == nil {
		k.atomOf = make([]int32, n)
		k.slotOf = make([]int32, n)
		k.subStart = make([]int32, ns+1)
		k.qK = make([]float64, n)
		k.q = make([]float64, n)
		k.ljRow = make([]int32, n)
		k.ljCol = make([]int32, n)
		k.pos = make([]fixp.Vec3, n)
		k.counts = make([]int32, ns)
	}
	counts := k.counts
	for i := range counts {
		counts[i] = 0
	}
	for _, sb := range e.subOf {
		counts[sb]++
	}
	slot := int32(0)
	for b := 0; b < ns; b++ {
		k.subStart[b] = slot
		slot += counts[b]
		counts[b] = k.subStart[b] // reuse as fill cursor
	}
	k.subStart[ns] = slot
	// Atoms scanned in ascending index, so each subbox's slot range is
	// sorted by atom index — the property the exclusion merge scan needs.
	for i := 0; i < n; i++ {
		s := counts[e.subOf[i]]
		counts[e.subOf[i]]++
		k.atomOf[s] = int32(i)
		k.slotOf[i] = s
	}
	top := e.Sys.Top
	for s := 0; s < n; s++ {
		a := &top.Atoms[k.atomOf[s]]
		k.qK[s] = ff.CoulombK * a.Charge
		k.q[s] = a.Charge
		k.ljRow[s] = int32(a.LJType * e.nTypes)
		k.ljCol[s] = int32(a.LJType)
	}
}

// refreshGather re-reads the gathered fixed-point positions from the
// canonical per-atom state (cheap sequential writes, once per force
// evaluation; slot assignments change only at migrations).
func (k *pairKernel) refreshGather(pos []fixp.Vec3) {
	for s, a := range k.atomOf {
		k.pos[s] = pos[a]
	}
}

// ensureBatches sizes the per-worker batch queues.
func (k *pairKernel) ensureBatches(workers int) {
	for len(k.batches) < workers {
		var b pairBatch
		b.init()
		k.batches = append(k.batches, b)
	}
}

// flushPairBatch runs the queued pairs through the batched PPIP
// evaluation, scatters the results into the worker's slot-indexed force
// buffer and adds each pair's quantized energy to d. Batch bookkeeping
// (flush count, occupancy histogram) lands in d's pair tally; the PPIP
// datapath is timed only with observability attached, and the timing
// reads clocks only — the computed forces are bitwise identical either
// way.
func (e *Engine) flushPairBatch(b *pairBatch, buf []Force3, d *evalDiag) {
	if b.n == 0 {
		return
	}
	st := &d.pairs
	st.RecordFlush(b.n, pairBatchSize)
	out := b.out[:b.n]
	if e.rec == nil {
		e.Pipe.PairForceBatch(b.ds[:b.n], b.params[:b.n], out)
	} else {
		t0 := obs.Now()
		e.Pipe.PairForceBatch(b.ds[:b.n], b.params[:b.n], out)
		st.PPIPNs += obs.Now() - t0
	}
	for n := range out {
		res := &out[n]
		if !res.Within {
			continue
		}
		st.Computed++
		si, sj := b.si[n], b.sj[n]
		buf[si] = buf[si].AddRaw(res.FX, res.FY, res.FZ)
		buf[sj] = buf[sj].AddRaw(-res.FX, -res.FY, -res.FZ)
		d.rangeLimited += htis.QuantizeEnergy(res.Energy)
	}
	b.n = 0
}

// busySpan is one worker's measured interval in a parallel section: the
// start of its first block to the end of its last.
type busySpan struct{ t0, end int64 }

// pairChunk processes subbox pairs [lo, hi) as worker w: match-unit
// prefilter, exclusion merge scan, batched PPIP evaluation. Installed
// once as Engine.pairChunkFn so the steady-state path allocates nothing.
// The scan accumulates on this goroutine's stack: neighbouring workers'
// entries of Engine.workerDiag may share a cache line. With an observer
// attached, the block also extends the worker's busy interval.
func (e *Engine) pairChunk(w, lo, hi int) {
	var t0 int64
	if e.rec != nil {
		t0 = obs.Now()
	}
	var d evalDiag
	e.pairScan(e.subPairs[lo:hi], e.pk.pos, e.workerF[w], &e.pk.batches[w], &d)
	e.workerDiag[w].merge(&d)
	if e.rec != nil {
		s := &e.workerBusy[w]
		if s.end == 0 {
			s.t0 = t0
		}
		s.end = obs.Now()
	}
}

// pairScan runs the match units and batched PPIP evaluation over an
// explicit list of subbox pairs, reading slot-indexed positions from pos
// and scattering quantized forces into the slot-indexed buf. It is the
// shared core of the monolithic worker chunks and the per-shard NT node
// computation: a shard passes its assigned pair list, its own gathered
// position view and its private accumulation buffers.
func (e *Engine) pairScan(pairs [][2]int32, pos []fixp.Vec3, buf []Force3, b *pairBatch, d *evalDiag) {
	e.scanPairs(pairs, pos, buf, b, d, true)
}

// scanPairs is pairScan with the bounding-box prefilter switchable, so a
// test can show the prefilter changes nothing but Tested.
//
// The subbox-pair list is enumerated once with the worst-case reach, so
// most of an atom's candidates in a partner subbox are far outside the
// cutoff. Before the per-candidate loop, the partner subbox's bounding
// box is taken from pos — recomputed on every call, never cached — and
// each atom's per-axis gap to that box is put through the match unit's
// own test. The gap is a lower
// bound on the low-precision |d| of every candidate in the box — by either
// way round the periodic boundary, see axisGap — so a
// skipped range holds only candidates the match units reject: Matched,
// Computed, the order of queued pairs and so every output bit are
// unchanged. Considered still counts the skipped candidates (it models
// what the hardware match units examine); Tested counts the distance
// tests actually run.
func (e *Engine) scanPairs(pairs [][2]int32, pos []fixp.Vec3, buf []Force3, b *pairBatch, diag *evalDiag, prefilter bool) {
	k := &e.pk
	t := &diag.pairs
	// Match-unit thresholds hoisted into locals; the check below is the
	// MayInteract datapath inlined (per-axis reject, then conservative
	// low-precision r^2), saving a call and three field loads per pair.
	shift, limAxis, limR2 := e.mu.Thresholds()
	atomOf := k.atomOf
	skip := e.Sys.Top.Skip
	for _, bp := range pairs {
		aLo, aHi := k.subStart[bp[0]], k.subStart[bp[0]+1]
		bLo, bHi := k.subStart[bp[1]], k.subStart[bp[1]+1]
		same := bp[0] == bp[1]
		if aLo == aHi || bLo == bHi {
			continue
		}
		// Partner box as wrapping offsets from its first slot's position.
		ref := pos[bLo]
		filter := prefilter && !same
		var loX, hiX, loY, hiY, loZ, hiZ int64
		if filter {
			for _, p := range pos[bLo+1 : bHi] {
				ox, oy, oz := int64(int32(p.X-ref.X)), int64(int32(p.Y-ref.Y)), int64(int32(p.Z-ref.Z))
				loX, hiX = min(loX, ox), max(hiX, ox)
				loY, hiY = min(loY, oy), max(hiY, oy)
				loZ, hiZ = min(loZ, oz), max(hiZ, oz)
			}
		}
		for si := aLo; si < aHi; si++ {
			pi := pos[si]
			sj := bLo
			if same {
				sj = si + 1
			}
			t.Considered += int64(bHi - sj)
			if filter {
				gx := axisGap(int64(int32(pi.X-ref.X)), loX, hiX, shift)
				gy := axisGap(int64(int32(pi.Y-ref.Y)), loY, hiY, shift)
				gz := axisGap(int64(int32(pi.Z-ref.Z)), loZ, hiZ, shift)
				if gx > limAxis || gy > limAxis || gz > limAxis ||
					gx*gx+gy*gy+gz*gz > limR2 {
					continue
				}
			}
			t.Tested += int64(bHi - sj)
			i := atomOf[si]
			excl := skip[i]
			ep := 0
			qKi := k.qK[si]
			row := k.ljRow[si]
			for ; sj < bHi; sj++ {
				pj := pos[sj]
				d := fixp.Vec3{X: pi.X - pj.X, Y: pi.Y - pj.Y, Z: pi.Z - pj.Z}
				dx := int64(int32(d.X) >> shift)
				if dx < 0 {
					dx = -dx
				}
				dy := int64(int32(d.Y) >> shift)
				if dy < 0 {
					dy = -dy
				}
				dz := int64(int32(d.Z) >> shift)
				if dz < 0 {
					dz = -dz
				}
				if dx > limAxis || dy > limAxis || dz > limAxis ||
					dx*dx+dy*dy+dz*dz > limR2 {
					continue
				}
				t.Matched++
				// Exclusion merge scan: slot order is atom order within a
				// subbox, so j ascends and the pointer advances linearly.
				j := atomOf[sj]
				for ep < len(excl) && excl[ep] < j {
					ep++
				}
				if ep < len(excl) && excl[ep] == j {
					continue
				}
				lj := e.ljPairs[row+k.ljCol[sj]]
				n := b.n
				b.ds[n] = d
				b.params[n] = htis.PairParams{
					QQ:      qKi * k.q[sj],
					Sigma:   lj.sigma,
					Epsilon: lj.eps,
				}
				b.si[n] = si
				b.sj[n] = sj
				b.n = n + 1
				if b.n == pairBatchSize {
					e.flushPairBatch(b, buf, diag)
				}
			}
		}
	}
	e.flushPairBatch(b, buf, diag)
}

// axisGap bounds one axis of the prefilter. c is an atom's position and
// [lo, hi] (lo <= 0 <= hi) a subbox's extent, all as wrapping 32-bit
// offsets from one reference position, so a candidate's displacement on
// this axis is c-o wrapped to 32 bits for some o in [lo, hi]. The result
// is a lower bound on |wrap(c-o) >> shift| — the magnitude the match
// unit compares — over that whole range.
//
// Unwrapped, the displacements run over [near, far], an interval shorter
// than 2^32. If it holds 0 the bound is 0. If it lies within one half of
// the ring nothing wraps and the nearer end is the minimum (the first two
// cases: every subbox pair of a box much wider than the cutoff). If it
// starts on the positive side and runs past 2^31, the part past 2^31
// wraps negative — the box is also reachable across the periodic boundary
// — and comes within 2^32 - far of zero from below; the bound is the
// smaller of the two approaches, and symmetrically for an interval that
// runs below -2^31. Each approach is rounded the way the match unit's
// arithmetic shift rounds that sign (down for positive displacements, up
// in magnitude for negative ones).
func axisGap(c, lo, hi int64, shift uint) int64 {
	near, far := c-hi, c-lo
	switch {
	case near > 0 && far < 1<<31:
		return near >> shift
	case far < 0 && near >= -(1<<31):
		return -(far >> shift)
	case near > 0:
		return min(near>>shift, -((far - 1<<32) >> shift))
	case far < 0:
		return min(-(far >> shift), (near+1<<32)>>shift)
	}
	return 0
}

// rangeLimitedForces runs the NT-decomposed HTIS computation: every
// interacting subbox pair is processed by a worker standing in for its
// neutral-territory node; match units prefilter, the batched PPIP path
// computes, forces accumulate in wrapping counts and are reduced in
// parallel over slot ranges.
func (e *Engine) rangeLimitedForces() {
	k := &e.pk
	t0 := e.obsNow()
	k.refreshGather(e.Pos)
	e.obsPhase(obs.PhasePairGather, t0)
	workers := e.workers()
	e.forceBuffers(workers, len(k.pos))
	k.ensureBatches(workers)
	if e.rec != nil {
		for len(e.workerBusy) < workers {
			e.workerBusy = append(e.workerBusy, busySpan{})
		}
		clear(e.workerBusy[:workers])
	}
	t0 = e.obsNow()
	parallelChunks(len(e.subPairs), workers, e.pairChunkFn)
	e.obsPhase(obs.PhasePairMatch, t0)
	t0 = e.obsNow()
	e.reduceForces(e.fShort, e.workerF[:workers], k.atomOf, workers)
	e.obsPhase(obs.PhasePairReduce, t0)
	if e.rec != nil {
		// Each worker lane is the worker's measured busy interval in the
		// match section, so an idle tail shows as the gap to the section's
		// end; its PPIP time and batch flushes ride along as arguments.
		for w, s := range e.workerBusy[:workers] {
			if s.end != 0 {
				t := &e.workerDiag[w].pairs
				e.rec.AddLane("worker", "pair-blocks", w, s.t0, s.end-s.t0, t.BatchFlushes, t.PPIPNs)
			}
		}
	}
}
