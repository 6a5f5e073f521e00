package core

import (
	"errors"
	"slices"
	"sync"
	"time"

	"anton/internal/faults"
	"anton/internal/fixp"
	"anton/internal/nt"
	"anton/internal/obs"
	"anton/internal/system"
	"anton/internal/vec"
)

// The force evaluation runs on shards. A shard owns the atoms homed in its
// home boxes, computes the range-limited pairs assigned to it as a
// neutral-territory node, the bonded/1-4/exclusion terms whose first atom
// it owns, and its owned atoms' mesh spreading, interpolation and
// virtual-site force spreading (shardstream.go). An engine has one of two
// layouts, fixed at construction:
//
//   - NewEngine: one shard owns every home box and runs its stages inline
//     on the caller. It sends and receives nothing.
//   - NewSharded: one shard per home box, each on its own goroutine,
//     exchanging position and force frames over the channel transport.
//
// Either way a shard runs each section of its stage bodies through
// parallelChunks on max(1, workers/shards) workers, so the one-shard
// engine deals the whole pair list block-cyclically over every worker.
//
// Bitwise invariance across shard and worker counts follows from every
// force, mesh and energy accumulator being a wrapping fixed-point integer:
// accumulation is associative AND commutative, so neither the order in
// which messages arrive nor the split of a section over workers can
// change a bit. Each interaction is computed exactly once, by exactly one
// shard and worker, from position values that are bit-copies of the
// owner's canonical state.
//
// Under NewSharded the engine is N virtual nodes ("shards"), one per home
// box of the NT decomposition, each running its stages on its own
// goroutine. It is the same *Engine: only its force evaluation's stages
// run elsewhere, and Engine.net holds the transport. All remote data
// arrives through explicit messages on a channel transport: position
// imports (a box multicasts its atoms to the nodes whose tower or plate
// needs them) and force exports (a computing node returns its
// contributions to the home box; on refresh steps the same frame also
// carries its long-range exclusion corrections). Everything outside the
// stage bodies — integration, constraints, virtual-site placement, the
// mesh merge and FFT convolution, the Berendsen thermostat, the residency
// check and migration — is the engine's own code, so its float operation
// sequences are identical by construction.
//
// Memory: each shard works in one index space, the pair kernel's slots
// (Engine.pk.slotOf): its position views, its force accumulators and its
// workers' partial buffers are all slot-indexed, 84 B/atom at one worker
// plus 24 B/atom per further worker, plus a dense mesh buffer per worker.
// Only the canonical engine arrays (Pos, Vel, fShort, fLong) stay
// atom-indexed. The views are the shard's "local memory", written only by
// owner writes and received messages, never read through another shard's
// state.

// Sharded names the engine NewSharded returns. It remains only because
// the benchmark harness (bench/engine.go, bench/service.go) still spells
// that type; a sharded engine is an *Engine.
type Sharded = Engine

// network is the transport and supervision state of an engine built by
// NewSharded (Engine.net; nil for NewEngine's one shard).
type network struct {
	done   chan stageDone // stage-completion signals from the executors
	closed chan struct{}  // closed by Close; releases helper goroutines

	// Fault-tolerance state (nil/zero in plain runs; see EnableFaults).
	sup *supervisor
	xid uint32 // last minted exchange id (driver-serial)
	err error  // sticky failure (see Err): unrecoverable fault, or Close

	comm *measuredComm

	// cellBox maps a mesh cell to the home box covering its location
	// (static).
	cellBox []int32

	prevBoxOf []int32 // boxOf snapshot for migration-traffic accounting

	// meshCellRows[si][dst] counts the nonzero mesh cells shard si
	// contributed to home box dst (merge scratch, one row per shard so the
	// traffic pass parallelizes across shards without collisions).
	meshCellRows [][]int64

	closeOnce sync.Once
}

// errClosed parks a closed sharded engine (see Close).
var errClosed = errors.New("core: engine closed")

// Message kinds on the shard transport.
const (
	msgPos   uint8 = iota // position import (sender's owned atoms)
	msgForce              // force export (foot atoms; refresh: + long-range section)
)

// shardMsg is one transport message. Buffers are owned by the sender and
// reused across steps; the stage barriers guarantee the receiver has
// consumed a buffer before the sender refills it. The envelope fields
// (epoch, xid, crc, attempt) are zero in plain runs and carry the
// reliable-transport protocol under fault injection — a receiver always
// checks (epoch, xid) before touching the payload, because a delayed or
// retransmitted message may alias a buffer the sender has since refilled.
type shardMsg struct {
	from    int32
	kind    uint8
	epoch   uint32 // recovery epoch the message belongs to
	xid     uint32 // exchange id (driver-minted, globally unique)
	crc     uint32 // CRC32 (IEEE) over the frame
	attempt uint8  // transmission attempt (1 = first send)
	frame   []byte // encoded payload (shardcodec.go)
}

// shardCmd is one broadcast work item: the stage closure plus the
// supervisor tick it belongs to (zero in plain runs).
type shardCmd struct {
	fn   func(*shardState)
	tick uint64
}

// stageDone signals one executor's completion of a stage. The tick lets
// the collector discard stragglers from an aborted earlier stage.
type stageDone struct {
	id   int32
	tick uint64
}

// shardState is one shard: its static work assignment, its per-migration
// views of the decomposition, its local buffers and workers, and its
// per-stage timers (read by the driver after a barrier).
type shardState struct {
	id int32
	e  *Engine

	// Transport state (NewSharded only; the one-shard engine's stay nil).
	cmd    chan shardCmd
	inbox  chan shardMsg
	exited chan struct{}  // closed when the current executor goroutine returns
	acks   chan shardAck  // acknowledgements for our in-flight sends (EnableFaults)
	out    []outMsg       // in-flight sends of the current exchange (EnableFaults)
	gotPos []uint32       // per-sender xid stamps: position import applied
	gotF   []uint32       // per-sender xid stamps: force export applied
	tstats TransportStats // transport accounting (driver-read between stages)

	// Static work assignment (NT pair node; set once at construction):
	// the shard's subslice of Engine.subPairs and the subboxes it touches.
	myPairs     [][2]int32
	touchedSubs []int32

	// Per-migration views.
	owned      []int32    // atoms homed here
	ownedSlots []int32    // their slots, in owned order (importers decode our position frame through it)
	vsites     []int32    // virtual sites homed here (stage B spreads their forces)
	bondTerms  []int32    // flat bonded term indices owned here
	pair14Idx  []int32    // 1-4 pair indices owned here
	exclTerms  [][2]int32 // exclusion-correction pairs owned here
	needSlots  []int32    // slots of the atoms this shard reads or touches, in ascending atom order
	impSrcs    []int32    // shards whose positions we import
	expDsts    []int32    // shards importing our positions
	footSlots  [][]int32  // per impSrcs entry: slots of the remote atoms we export forces for
	inFoot     int        // expected incoming force frames per evaluation
	inFootFrom [][]int32  // per sender: its footSlots entry for us, slots of our owned atoms

	// Local views, slot-indexed and valid only at needSlots. The
	// accumulators take worker 0's partials, then the other workers', and
	// at owned slots the force frames received and (lfLong) the mesh
	// interpolation; stage B copies the owned slots into the canonical
	// forces.
	spos    []fixp.Vec3 // fixed-point positions: owned copied from Pos, the rest decoded from imports
	lposF   []vec.V3    // their float decode
	lfShort []Force3    // short-range accumulator
	lfLong  []Force3    // long-range accumulator (refresh evaluations)

	// wk are the workers of the current evaluation's sections (wps of
	// them), each allocated when an evaluation first runs on it.
	wk  []shardWorker
	wps int

	// The stage's refresh flag, for the section bodies, and the section
	// bodies themselves, bound once (a closure passed to parallelChunks
	// escapes; binding them at construction keeps the step path
	// allocation-free).
	refresh                            bool
	pairFn, bondedFn, pair14Fn, exclFn func(w, lo, hi int)
	spreadFn, interpFn, assembleFn     func(w, lo, hi int)

	// Force-evaluation state (see shardstream.go).
	arrived    int      // pos imports applied this evaluation
	footGot    int      // force frames applied this evaluation
	posFrame   []byte   // encoded position frame (immutable per exchange)
	footFrames [][]byte // per impSrcs entry: encoded force frame

	// Stage timers (obs.Now): the body's start and wall, and per phase
	// the time its sections took (Engine.bookStage splits the stage wall
	// by them). last is the end of the previous section.
	bodyT0, bodyNs, last int64
	secNs                [obs.NumPhases]int64
}

// shardWorker is one worker of a shard's parallel sections.
type shardWorker struct {
	// buf takes the partial forces of a worker past 0, slot-indexed: its
	// pairs, bonded terms and 1-4 pairs, then (refresh) its exclusion
	// corrections. Worker 0 has none: it adds into the shard's own
	// lfShort/lfLong.
	buf   []Force3
	mesh  []int64 // dense charge-spreading buffer (refresh steps)
	batch pairBatch

	// The evaluation's diagnostics (merged by the driver after stage B)
	// and the worker's busy interval in the pair section.
	diag evalDiag
	busy busySpan
}

// busySpan is one worker's measured interval in a parallel section: the
// start of its first block to the end of its last.
type busySpan struct{ t0, end int64 }

// newShard allocates shard id with its slot-indexed views, and binds its
// section bodies.
func newShard(e *Engine, id int32) *shardState {
	n := len(e.Pos)
	st := &shardState{
		id:      id,
		e:       e,
		spos:    make([]fixp.Vec3, n),
		lposF:   make([]vec.V3, n),
		lfShort: make([]Force3, n),
		lfLong:  make([]Force3, n),
	}
	if len(e.shards) > 1 {
		st.inFootFrom = make([][]int32, len(e.shards))
	}
	st.pairFn = st.scanChunk
	st.bondedFn = st.bondedChunk
	st.pair14Fn = st.pair14Chunk
	st.exclFn = st.exclChunk
	st.spreadFn = st.spreadChunk
	st.interpFn = st.interpChunk
	st.assembleFn = st.assembleChunk
	return st
}

// ensureWorkers allocates the buffers of workers up to n: a mesh buffer
// and a pair batch for each, and a partial buffer for all but worker 0.
func (st *shardState) ensureWorkers(n int) {
	for len(st.wk) < n {
		w := shardWorker{mesh: make([]int64, len(st.e.mesh.counts))}
		if len(st.wk) > 0 {
			w.buf = make([]Force3, len(st.e.Pos))
		}
		w.batch.init()
		st.wk = append(st.wk, w)
	}
}

// shardOf maps a home box to the shard that owns it: every box to the one
// shard of NewEngine, box i to shard i under NewSharded.
func (e *Engine) shardOf(box int32) int32 {
	if len(e.shards) == 1 {
		return 0
	}
	return box
}

// buildShards creates the engine's shards (perBox: one per home box,
// else one over every box) and fills e.subPairs grouped by the shard that
// computes each pair — the NT node of the pair's home boxes — in two
// walks of the subbox pairs, so the list is allocated once at its final
// length. Each shard's pair list is its subslice; within it the pairs
// keep the walk order, so the one shard's list is the whole array in walk
// order.
func (e *Engine) buildShards(reach float64, perBox bool) {
	nsh := 1
	var subBox []int32
	if perBox {
		nsh = e.grid.NumBoxes()
		subBox = make([]int32, e.subGrid.NumBoxes())
		for i := range subBox {
			subBox[i] = int32(e.grid.Index(nt.SubToBox(e.subGrid, e.grid, e.subGrid.Coord(i))))
		}
	}
	e.shards = make([]*shardState, nsh)
	for i := range e.shards {
		e.shards[i] = newShard(e, int32(i))
	}
	node := func(sa, sb int32) int32 {
		if subBox == nil {
			return 0
		}
		ba, bb := subBox[sa], subBox[sb]
		if ba == bb {
			return ba
		}
		return int32(e.grid.Index(nt.AssignPairNode(e.grid, e.grid.Coord(int(ba)), e.grid.Coord(int(bb)))))
	}

	// The first walk counts each shard's pairs and marks the subboxes they
	// touch, which are then listed in ascending order.
	nsub := e.subGrid.NumBoxes()
	next := make([]int, nsh+1)
	touched := make([]bool, nsh*nsub)
	nt.BoxPairsWithinCutoff(e.subGrid, e.subSide, reach, func(a, b nt.BoxCoord) {
		sa, sb := int32(e.subGrid.Index(a)), int32(e.subGrid.Index(b))
		s := int(node(sa, sb))
		next[s+1]++
		touched[s*nsub+int(sa)] = true
		touched[s*nsub+int(sb)] = true
	})
	for s := range nsh {
		next[s+1] += next[s]
	}
	e.subPairs = make([][2]int32, next[nsh])
	for s, st := range e.shards {
		st.myPairs = e.subPairs[next[s]:next[s+1]:next[s+1]]
		for sb, ok := range touched[s*nsub : (s+1)*nsub] {
			if ok {
				st.touchedSubs = append(st.touchedSubs, int32(sb))
			}
		}
	}
	nt.BoxPairsWithinCutoff(e.subGrid, e.subSide, reach, func(a, b nt.BoxCoord) {
		sa, sb := int32(e.subGrid.Index(a)), int32(e.subGrid.Index(b))
		s := node(sa, sb)
		e.subPairs[next[s]] = [2]int32{sa, sb}
		next[s]++
	})

	e.viewStamp = make([]int32, len(e.Pos))
	e.shardStamp = make([]int32, nsh)
	e.shardSlot = make([]int32, nsh)
	for i := range e.viewStamp {
		e.viewStamp[i] = -1
	}
	for i := range e.shardStamp {
		e.shardStamp[i] = -1
	}
}

// NewSharded builds a sharded engine: the engine (whose node count is the
// shard count) with one goroutine-backed shard per home box. The caller
// should Close() it when done.
func NewSharded(s *system.System, cfg Config) (*Engine, error) {
	e, err := newEngine(s, cfg, true)
	if err != nil {
		return nil, err
	}
	net := &network{prevBoxOf: slices.Clone(e.boxOf)}
	net.comm, err = newMeasuredComm([3]int{e.grid.Nx, e.grid.Ny, e.grid.Nz})
	if err != nil {
		return nil, err
	}

	// Static mesh cell -> home box map (the node owning the cell's region
	// of space receives that cell's charge contributions).
	nm := e.mesh.n
	net.cellBox = make([]int32, nm*nm*nm)
	for kz := 0; kz < nm; kz++ {
		bz := int(float64(kz) * e.mesh.h / e.boxSide[2])
		for ky := 0; ky < nm; ky++ {
			by := int(float64(ky) * e.mesh.h / e.boxSide[1])
			for kx := 0; kx < nm; kx++ {
				bx := int(float64(kx) * e.mesh.h / e.boxSide[0])
				c := e.grid.Wrap(nt.BoxCoord{X: bx, Y: by, Z: bz})
				net.cellBox[(kz*nm+ky)*nm+kx] = int32(e.grid.Index(c))
			}
		}
	}

	// Shard goroutines. The done channel is sized past one signal per
	// executor so stragglers from an aborted stage (and restarted
	// executors' duplicates) never block on send.
	n := len(e.shards)
	net.done = make(chan stageDone, 4*n)
	net.closed = make(chan struct{})
	for _, st := range e.shards {
		st.cmd = make(chan shardCmd)
		st.gotPos = make([]uint32, n)
		st.gotF = make([]uint32, n)
	}
	e.net = net
	e.relink()
	for _, st := range e.shards {
		e.spawnShard(st)
	}
	return e, nil
}

// spawnShard starts (or restarts) the executor goroutine for st. The
// executor loops on the command channel, running one stage closure per
// broadcast and signaling completion on the shared done channel. An
// injected crash (panic(errShardCrash) inside the closure) exits the
// goroutine without a completion signal — exactly what a dead node looks
// like to the supervisor's heartbeat. st.exited closes as the goroutine
// returns: recovery reads it before touching the state the dead executor
// wrote last (detection stays the heartbeat's).
func (e *Engine) spawnShard(st *shardState) {
	exited := make(chan struct{})
	st.exited = exited
	done := e.net.done
	go func() {
		defer close(exited)
		defer func() {
			if r := recover(); r != nil && r != errShardCrash {
				panic(r)
			}
		}()
		for c := range st.cmd {
			c.fn(st)
			done <- stageDone{id: st.id, tick: c.tick}
		}
	}()
}

// Close stops a sharded engine's shard goroutines and parks it: from then
// on Step is a no-op and Err reports the closure. Its state stays
// readable (digest, snapshot, checkpoint). Closing twice, or closing an
// engine built by NewEngine, does nothing.
func (e *Engine) Close() {
	net := e.net
	if net == nil {
		return
	}
	net.closeOnce.Do(func() {
		close(net.closed)
		for _, st := range e.shards {
			close(st.cmd)
		}
		if net.err == nil {
			net.err = errClosed
		}
	})
}

// runEach runs one stage on every shard — for stage A the position send
// half, then the body — and waits for all of them (the stage barrier). The
// fault plane's stall and crash hooks wrap the halves (a nil plane, i.e. a
// plain run, injects nothing); a plain run counts the completions, a
// supervised one collects them under the heartbeat and reports dead
// executors (non-nil return).
func (e *Engine) runEach(stage uint8, x *xchg, refresh bool) *stageFail {
	sup := e.net.sup
	var plane *faults.Plane
	var tick uint64
	if sup != nil {
		plane = sup.plane
		sup.tick++
		tick = sup.tick
	}
	step := int64(e.step)
	fn := func(st *shardState) {
		if ns := plane.StallNs(step, stage, st.id); ns > 0 {
			time.Sleep(time.Duration(ns))
		}
		if stage != stExchangePos {
			st.finishForces(x, refresh)
			return
		}
		if plane.Crash(step, st.id, faults.CrashBeforeSend) {
			panic(errShardCrash)
		}
		st.sendPositionsStream(x)
		if plane.Crash(step, st.id, faults.CrashAfterSend) {
			panic(errShardCrash)
		}
		st.streamBody(x, refresh)
	}
	for _, st := range e.shards {
		st.cmd <- shardCmd{fn: fn, tick: tick}
	}
	if sup != nil {
		return sup.collect(tick)
	}
	for range e.shards {
		<-e.net.done
	}
	return nil
}

// Engine returns e. It remains only because the benchmark harness
// (bench/engine.go) reaches the engine of a sharded run through it.
func (e *Engine) Engine() *Engine { return e }

// SetOverlap does nothing: stage A has one schedule (receive every
// import, then compute). It remains because the benchmark harness
// (bench/engine.go) still calls it around its core.shard.barrier_step_ms
// segment, which now times that same schedule.
func (e *Engine) SetOverlap(bool) {}

// Shards returns the virtual node count: 1 for NewEngine, the home-box
// count for NewSharded.
func (e *Engine) Shards() int { return len(e.shards) }

// rebuildViews recomputes every ownership-derived view after a migration
// (or restore): owned atoms, term assignments, import/export sets and foot
// lists. Driver-serial.
func (e *Engine) rebuildViews() {
	top := e.Sys.Top
	// The lists start with room for a shard's share, so the first rebuild
	// sizes them about once (for one shard exactly) instead of doubling up
	// to their length.
	nsh := len(e.shards)
	for _, st := range e.shards {
		st.owned = slices.Grow(st.owned[:0], len(e.boxOf)/nsh)
		st.ownedSlots = slices.Grow(st.ownedSlots[:0], len(e.boxOf)/nsh)
		st.vsites = st.vsites[:0]
		st.bondTerms = slices.Grow(st.bondTerms[:0], top.NumBondedTerms()/nsh)
		st.pair14Idx = slices.Grow(st.pair14Idx[:0], len(top.Pairs14)/nsh)
		st.exclTerms = slices.Grow(st.exclTerms[:0], len(top.Exclusions)/nsh)
		st.expDsts = st.expDsts[:0]
		st.inFoot = 0
		clear(st.inFootFrom)
	}

	// Ownership sweeps (a virtual site goes with its constraint group;
	// first-atom rule for interaction terms).
	k := &e.pk
	owner := func(a int) *shardState { return e.shards[e.shardOf(e.boxOf[a])] }
	for a := range e.boxOf {
		st := owner(a)
		st.owned = append(st.owned, int32(a))
		st.ownedSlots = append(st.ownedSlots, k.slotOf[a])
	}
	for vi := range top.VSites {
		st := owner(top.VSites[vi].Site)
		st.vsites = append(st.vsites, int32(vi))
	}
	for t := range top.NumBondedTerms() {
		atoms, _ := top.BondedTermAtoms(t)
		st := owner(atoms[0])
		st.bondTerms = append(st.bondTerms, int32(t))
	}
	for pi := range top.Pairs14 {
		st := owner(top.Pairs14[pi].I)
		st.pair14Idx = append(st.pair14Idx, int32(pi))
	}
	for _, p := range top.Exclusions {
		st := owner(int(p[0]))
		st.exclTerms = append(st.exclTerms, p)
	}

	// Per-shard read/touch sets, import sources and foot lists. Every
	// list is in ascending atom order: a force frame's entries follow it.
	for _, st := range e.shards {
		e.viewEpoch++
		ep := e.viewEpoch
		mark := func(a int32) { e.viewStamp[a] = ep }
		for _, a := range st.owned {
			mark(a)
		}
		for _, sb := range st.touchedSubs {
			for slot := k.subStart[sb]; slot < k.subStart[sb+1]; slot++ {
				mark(k.atomOf[slot])
			}
		}
		for _, t := range st.bondTerms {
			atoms, na := top.BondedTermAtoms(int(t))
			for _, a := range atoms[:na] {
				mark(int32(a))
			}
		}
		for _, pi := range st.pair14Idx {
			p := &top.Pairs14[pi]
			mark(int32(p.I))
			mark(int32(p.J))
		}
		for _, p := range st.exclTerms {
			mark(p[0])
			mark(p[1])
		}
		st.needSlots = slices.Grow(st.needSlots[:0], len(st.owned))
		for a, stamp := range e.viewStamp {
			if stamp == ep {
				st.needSlots = append(st.needSlots, k.slotOf[a])
			}
		}

		// Import sources: every shard owning a needed remote atom. The foot
		// (force export) destinations are the same shards: what we import
		// is exactly what we may accumulate forces for.
		st.impSrcs = st.impSrcs[:0]
		for _, s := range st.needSlots {
			src := e.shardOf(e.boxOf[k.atomOf[s]])
			if src != st.id && e.shardStamp[src] != ep {
				e.shardStamp[src] = ep
				st.impSrcs = append(st.impSrcs, src)
			}
		}
		slices.Sort(st.impSrcs)
		st.footSlots = resized(st.footSlots, len(st.impSrcs))
		for di, src := range st.impSrcs {
			e.shardSlot[src] = int32(di)
			st.footSlots[di] = st.footSlots[di][:0]
		}
		for _, s := range st.needSlots {
			if src := e.shardOf(e.boxOf[k.atomOf[s]]); src != st.id {
				di := e.shardSlot[src]
				st.footSlots[di] = append(st.footSlots[di], s)
			}
		}
		st.footFrames = resized(st.footFrames, len(st.impSrcs))
	}

	// Invert imports into export destinations, and foot lists into the
	// receive side. Iterating shards in ascending id keeps every derived
	// list deterministic.
	for _, st := range e.shards {
		for di, src := range st.impSrcs {
			from := e.shards[src]
			from.expDsts = append(from.expDsts, st.id)
			from.inFoot++
			from.inFootFrom[st.id] = st.footSlots[di]
		}
	}
}

// relink sizes the transport for the current views and rebuilds the
// measured traffic's static message lists. Driver-serial, after every
// rebuildViews.
func (e *Engine) relink() {
	for _, st := range e.shards {
		// Early force frames can arrive while positions are still in
		// flight, so size each inbox for a whole evaluation's message set —
		// that is what keeps plain-mode sends non-blocking and deadlock-free.
		need := len(st.impSrcs) + st.inFoot + 4
		if e.net.sup != nil {
			// Reliable mode: the inbox also absorbs duplicates, delayed
			// stragglers from earlier exchanges and retransmissions, and the
			// ack channel one ack per (possibly repeated) send. Size both
			// generously — overflow is survivable (counted drop, recovered
			// by retransmission) but wasteful.
			need = need*10 + 16
			if st.acks == nil || cap(st.acks) < need {
				st.acks = make(chan shardAck, need)
			}
		}
		if st.inbox == nil || cap(st.inbox) < need {
			st.inbox = make(chan shardMsg, need)
		}
	}
	e.net.comm.rebuildStatic(e)
}

// noteMigrations books every atom that changed home box since prevBoxOf
// as one migration message.
func (e *Engine) noteMigrations() {
	net := e.net
	for i := range e.boxOf {
		if e.boxOf[i] != net.prevBoxOf[i] {
			net.comm.noteMigration(int(net.prevBoxOf[i]), int(e.boxOf[i]))
		}
	}
}

// resized returns ls at length n, keeping the lists it already holds.
func resized[T any](ls [][]T, n int) [][]T {
	for len(ls) < n {
		ls = append(ls, nil)
	}
	return ls[:n]
}
