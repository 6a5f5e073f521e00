package core

import (
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

// Sharded executes the engine as N virtual nodes ("shards"), one per home
// box of the NT decomposition, each running on its own goroutine. A shard
// owns the atoms homed in its box (internal/nt box assignment), computes
// the range-limited pairs assigned to it as a neutral-territory node, the
// bonded/1-4/exclusion terms whose first atom it owns, and its owned
// atoms' mesh spreading, interpolation and virtual-site force spreading.
// All remote data arrives through explicit messages on a channel
// transport: position imports (a box multicasts its atoms to the nodes
// whose tower or plate needs them) and force exports (a computing node
// returns its contributions to the home box; on refresh steps the same
// frame also carries its long-range exclusion corrections). Everything
// outside the force evaluation — integration, constraints, virtual-site
// placement, the FFT convolution, the Berendsen thermostat, the residency
// check and the migration decision — is the monolithic engine's own code
// run by the driver, so the float operation sequences it contains are
// identical by construction.
//
// Bitwise invariance across shard counts follows from the same property
// that gives the monolithic engine its worker- and node-count invariance:
// every force, mesh and energy accumulator is a wrapping fixed-point
// integer, so accumulation is associative AND commutative — the order in
// which messages arrive can never change a bit. Each interaction is
// computed exactly once, by exactly one shard, from position values that
// are bit-copies of the owner's canonical state; its quantized
// contribution is therefore identical to the monolithic evaluation, and
// the merged sums are identical regardless of N. The reported energies
// are wrapping fixed-point sums too (evalDiag), so they do not depend on
// N either.
//
// Memory: each shard carries atom- and slot-indexed views (~150 B/atom)
// plus a dense mesh buffer on refresh steps. That is deliberate — the
// views are the shard's "local memory", written only by owner writes and
// received messages, never read through another shard's state.
type Sharded struct {
	E *Engine

	shards []*shardState
	done   chan stageDone // stage-completion signals from the executors
	closed chan struct{}  // closed by Close; releases helper goroutines

	// Fault-tolerance state (nil/zero in plain runs; see EnableFaults).
	sup    *supervisor
	primed bool   // initial force evaluation done (step-0 compute)
	xid    uint32 // last minted exchange id (driver-serial)
	err    error  // sticky unrecoverable failure (see Err)

	comm *measuredComm

	// lastTally snapshots the summed per-shard transport tallies so each
	// evaluation's delta can feed the obs counters.
	lastTally transportTally

	// subBox maps a subbox to its enclosing home box; cellBox maps a mesh
	// cell to the home box covering its location. Both are static.
	subBox  []int32
	cellBox []int32

	prevBoxOf []int32 // boxOf snapshot for migration-traffic accounting

	// meshCellRows[si][dst] counts the nonzero mesh cells shard si
	// contributed to home box dst (merge scratch, one row per shard so the
	// traffic pass parallelizes across shards without collisions).
	meshCellRows [][]int64

	// Rebuild scratch: epoch-stamped membership marks, and each import
	// source's index in the shard's impSrcs.
	atomStamp []int32
	boxStamp  []int32
	boxSlot   []int32
	epoch     int32

	closeOnce sync.Once
}

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

// shardState is one virtual node: its static work assignment, its
// per-migration views of the decomposition, its local buffers, and its
// per-step diagnostic outputs (read by the driver after a barrier).
type shardState struct {
	id int32
	s  *Sharded

	cmd    chan shardCmd
	inbox  chan shardMsg
	exited chan struct{} // closed when the current executor goroutine returns

	// Reliable-transport state (allocated/used only under EnableFaults).
	acks   chan shardAck  // acknowledgements for our in-flight sends
	out    []outMsg       // in-flight sends of the current exchange
	gotPos []uint32       // per-sender xid stamps: position import applied
	gotF   []uint32       // per-sender xid stamps: force export applied
	tstats transportTally // transport accounting (driver-read between stages)

	// Static work assignment (NT pair node; set once at construction).
	myPairs     [][2]int32
	touchedSubs []int32

	// Per-migration views.
	owned      []int32    // atoms homed here (= Engine.boxAtoms[id])
	vsites     []int32    // virtual sites homed here (stage B spreads their forces)
	bondTerms  []int32    // flat bonded term indices owned here
	pair14Idx  []int32    // 1-4 pair indices owned here
	exclTerms  [][2]int32 // exclusion-correction pairs owned here
	needAll    []int32    // sorted atoms this shard reads or touches
	impSrcs    []int32    // boxes whose positions we import
	expDsts    []int32    // boxes importing our positions
	footAtoms  [][]int32  // per impSrcs entry: remote atoms we export forces for
	inFoot     int        // expected incoming force frames per evaluation
	inFootFrom [][]int32  // per sender: the owned atoms its force frame covers

	// Local buffers (atom- or slot-indexed; valid only for the view sets).
	lpos       []fixp.Vec3 // local fixed-point positions (owned + imported)
	lposF      []vec.V3    // decoded float view of needAll
	spos       []fixp.Vec3 // slot-indexed positions of touched subboxes
	sbuf       []Force3    // slot-indexed pair-force accumulator
	lfShort    []Force3    // atom-indexed short-range accumulator
	lfLong     []Force3    // atom-indexed long-range correction accumulator
	scratch    []vec.V3    // bonded float scratch (sparse-zero invariant)
	meshCounts []int64     // dense mesh charge contribution (refresh steps)
	batch      pairBatch

	// Force-evaluation state (see shardstream.go).
	arrived    int      // pos imports applied this evaluation
	footGot    int      // force frames applied this evaluation
	posFrame   []byte   // encoded position frame (immutable per exchange)
	footFrames [][]byte // per impSrcs entry: encoded force frame
	bodyT0     int64    // start (obs.Now) of the last stage A body (driver-read)
	bodyNs     int64    // wall of the last stage A/B body (driver-read)
	meshNs     int64    // of which spread (stage A) / interpolate (stage B)

	// The evaluation's diagnostics (driver-merged after stage B).
	diag evalDiag
}

// NewSharded builds a sharded engine: the underlying Engine (whose node
// count is the shard count) plus one goroutine-backed virtual node per
// home box. The caller should Close() it when done.
func NewSharded(s *system.System, cfg Config) (*Sharded, error) {
	e, err := NewEngine(s, cfg)
	if err != nil {
		return nil, err
	}
	sh := &Sharded{E: e}
	n := e.grid.NumBoxes()

	sh.prevBoxOf = make([]int32, len(e.Pos))
	sh.atomStamp = make([]int32, len(e.Pos))
	sh.boxStamp = make([]int32, n)
	sh.boxSlot = make([]int32, n)
	for i := range sh.atomStamp {
		sh.atomStamp[i] = -1
	}
	for i := range sh.boxStamp {
		sh.boxStamp[i] = -1
	}

	// Static subbox -> home box map.
	sh.subBox = make([]int32, e.subGrid.NumBoxes())
	for i := range sh.subBox {
		c := nt.SubToBox(e.subGrid, e.grid, e.subGrid.Coord(i))
		sh.subBox[i] = int32(e.grid.Index(c))
	}
	// Static mesh cell -> home box map (the node owning the cell's region
	// of space receives that cell's charge contributions).
	nm := e.mesh.n
	sh.cellBox = make([]int32, nm*nm*nm)
	for kz := 0; kz < nm; kz++ {
		bz := int(float64(kz) * e.mesh.h / e.boxSide[2])
		for ky := 0; ky < nm; ky++ {
			by := int(float64(ky) * e.mesh.h / e.boxSide[1])
			for kx := 0; kx < nm; kx++ {
				bx := int(float64(kx) * e.mesh.h / e.boxSide[0])
				c := e.grid.Wrap(nt.BoxCoord{X: bx, Y: by, Z: bz})
				sh.cellBox[(kz*nm+ky)*nm+kx] = int32(e.grid.Index(c))
			}
		}
	}

	// Shard goroutines.
	// Sized past one signal per executor so stragglers from an aborted
	// stage (and restarted executors' duplicates) never block on send.
	sh.done = make(chan stageDone, 4*n)
	sh.closed = make(chan struct{})
	sh.shards = make([]*shardState, n)
	for i := range sh.shards {
		st := &shardState{
			id:         int32(i),
			s:          sh,
			cmd:        make(chan shardCmd),
			gotPos:     make([]uint32, n),
			gotF:       make([]uint32, n),
			inFootFrom: make([][]int32, n),
		}
		st.batch.init()
		sh.shards[i] = st
		sh.spawnShard(st)
	}

	// Static NT pair assignment: each interacting subbox pair belongs to
	// the node given by AssignPairNode over the pair's home boxes. The
	// first pass counts each node's pairs, so its list is allocated once
	// at its final length, and marks the subboxes they touch, which are
	// then listed in ascending order.
	nsub := len(sh.subBox)
	pairNode := make([]int32, len(e.subPairs))
	perNode := make([]int, n)
	touched := make([]bool, n*nsub)
	for pi, bp := range e.subPairs {
		ba, bb := sh.subBox[bp[0]], sh.subBox[bp[1]]
		node := ba
		if ba != bb {
			c := nt.AssignPairNode(e.grid, e.grid.Coord(int(ba)), e.grid.Coord(int(bb)))
			node = int32(e.grid.Index(c))
		}
		pairNode[pi] = node
		perNode[node]++
		touched[int(node)*nsub+int(bp[0])] = true
		touched[int(node)*nsub+int(bp[1])] = true
	}
	for i, st := range sh.shards {
		st.myPairs = make([][2]int32, 0, perNode[i])
		for sb, ok := range touched[i*nsub : (i+1)*nsub] {
			if ok {
				st.touchedSubs = append(st.touchedSubs, int32(sb))
			}
		}
	}
	for pi, bp := range e.subPairs {
		st := sh.shards[pairNode[pi]]
		st.myPairs = append(st.myPairs, bp)
	}

	// Local buffers, indexed by atom or slot over the whole system
	// (allocated once: the atom count is fixed).
	natoms := len(e.Pos)
	for _, st := range sh.shards {
		st.lpos = make([]fixp.Vec3, natoms)
		st.lposF = make([]vec.V3, natoms)
		st.spos = make([]fixp.Vec3, natoms)
		st.sbuf = make([]Force3, natoms)
		st.lfShort = make([]Force3, natoms)
		st.lfLong = make([]Force3, natoms)
		st.scratch = make([]vec.V3, natoms)
		st.meshCounts = make([]int64, len(e.mesh.counts))
	}

	sh.comm, err = newMeasuredComm([3]int{e.grid.Nx, e.grid.Ny, e.grid.Nz})
	if err != nil {
		return nil, err
	}

	sh.rebuildViews()
	return sh, nil
}

// spawnShard starts (or restarts) the executor goroutine for st. The
// executor loops on the command channel, running one stage closure per
// broadcast and signaling completion on the shared done channel. An
// injected crash (panic(errShardCrash) inside the closure) exits the
// goroutine without a completion signal — exactly what a dead node looks
// like to the supervisor's heartbeat. st.exited closes as the goroutine
// returns: recovery reads it before touching the state the dead executor
// wrote last (detection stays the heartbeat's).
func (s *Sharded) spawnShard(st *shardState) {
	exited := make(chan struct{})
	st.exited = exited
	go func() {
		defer close(exited)
		defer func() {
			if r := recover(); r != nil && r != errShardCrash {
				panic(r)
			}
		}()
		for c := range st.cmd {
			c.fn(st)
			s.done <- stageDone{id: st.id, tick: c.tick}
		}
	}()
}

// Close stops the shard goroutines. The underlying Engine stays usable.
func (s *Sharded) Close() {
	s.closeOnce.Do(func() {
		close(s.closed)
		for _, st := range s.shards {
			close(st.cmd)
		}
	})
}

// runEach runs one pipeline stage — the send half, then the body half, on
// every shard — and waits for all of them (the stage barrier). The fault
// plane's stall and crash hooks wrap the halves (a nil plane, i.e. a plain
// run, injects nothing); a plain run counts the completions, a supervised
// one collects them under the heartbeat and reports dead executors
// (non-nil return).
func (s *Sharded) runEach(stage uint8, send, body func(*shardState)) *stageFail {
	var plane *faults.Plane
	var tick uint64
	if s.sup != nil {
		plane = s.sup.plane
		s.sup.tick++
		tick = s.sup.tick
	}
	step := int64(s.E.step)
	fn := func(st *shardState) {
		if ns := plane.StallNs(step, stage, st.id); ns > 0 {
			time.Sleep(time.Duration(ns))
		}
		if stage == stExchangePos && plane.Crash(step, st.id, faults.CrashBeforeSend) {
			panic(errShardCrash)
		}
		if send != nil {
			send(st)
		}
		if stage == stExchangePos && plane.Crash(step, st.id, faults.CrashAfterSend) {
			panic(errShardCrash)
		}
		if body != nil {
			body(st)
		}
	}
	for _, st := range s.shards {
		st.cmd <- shardCmd{fn: fn, tick: tick}
	}
	if s.sup != nil {
		return s.sup.collect(tick)
	}
	for range s.shards {
		<-s.done
	}
	return nil
}

// Engine exposes the underlying engine for read-only reporting.
func (s *Sharded) Engine() *Engine { return s.E }

// SetOverlap does nothing: stage A has one schedule (receive every
// import, then compute). It remains because the benchmark harness
// (bench/engine.go) still calls it around its core.shard.barrier_step_ms
// segment, which now times that same schedule.
func (s *Sharded) SetOverlap(bool) {}

// Shards returns the virtual node count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Delegated state and observability access (same contracts as Engine).
func (s *Sharded) StepCount() int                  { return s.E.StepCount() }
func (s *Sharded) Snapshot() ([]fixp.Vec3, []Vel3) { return s.E.Snapshot() }
func (s *Sharded) SetVelocities(v []vec.V3)        { s.E.SetVelocities(v) }
func (s *Sharded) Observe(r *obs.Recorder)         { s.E.Observe(r) }

// rebuildViews recomputes every ownership-derived view after a migration
// (or restore): owned atoms, term assignments, import/export sets, foot
// lists, buffer sizes and the static traffic tallies. Driver-serial.
func (s *Sharded) rebuildViews() {
	e := s.E
	top := e.Sys.Top

	for _, st := range s.shards {
		st.owned = e.boxAtoms[st.id]
		st.vsites = st.vsites[:0]
		st.bondTerms = st.bondTerms[:0]
		st.pair14Idx = st.pair14Idx[:0]
		st.exclTerms = st.exclTerms[:0]
		st.expDsts = st.expDsts[:0]
		st.inFoot = 0
		clear(st.inFootFrom)
	}

	// Ownership sweeps (a virtual site goes with its constraint group;
	// first-atom rule for interaction terms).
	for vi := range top.VSites {
		st := s.shards[e.boxOf[top.VSites[vi].Site]]
		st.vsites = append(st.vsites, int32(vi))
	}
	for t := range top.NumBondedTerms() {
		atoms, _ := top.BondedTermAtoms(t)
		st := s.shards[e.boxOf[atoms[0]]]
		st.bondTerms = append(st.bondTerms, int32(t))
	}
	for pi := range top.Pairs14 {
		st := s.shards[e.boxOf[top.Pairs14[pi].I]]
		st.pair14Idx = append(st.pair14Idx, int32(pi))
	}
	for _, p := range top.Exclusions {
		st := s.shards[e.boxOf[p[0]]]
		st.exclTerms = append(st.exclTerms, p)
	}

	// Per-shard read/touch sets, import sources and foot lists.
	k := &e.pk
	for _, st := range s.shards {
		s.epoch++
		ep := s.epoch
		mark := func(a int32) { s.atomStamp[a] = ep }
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
		st.needAll = st.needAll[:0]
		for a, stamp := range s.atomStamp {
			if stamp == ep {
				st.needAll = append(st.needAll, int32(a))
			}
		}

		// Import sources: every box owning a needed remote atom. The foot
		// (force export) destinations are the same boxes: what we import
		// is exactly what we may accumulate forces for.
		st.impSrcs = st.impSrcs[:0]
		for _, a := range st.needAll {
			b := e.boxOf[a]
			if b != st.id && s.boxStamp[b] != ep {
				s.boxStamp[b] = ep
				st.impSrcs = append(st.impSrcs, b)
			}
		}
		slices.Sort(st.impSrcs)
		st.footAtoms = resizeLists(st.footAtoms, len(st.impSrcs))
		for di, src := range st.impSrcs {
			s.boxSlot[src] = int32(di)
			st.footAtoms[di] = st.footAtoms[di][:0]
		}
		for _, a := range st.needAll {
			if b := e.boxOf[a]; b != st.id {
				di := s.boxSlot[b]
				st.footAtoms[di] = append(st.footAtoms[di], a)
			}
		}
		st.footFrames = resizeBytes(st.footFrames, len(st.impSrcs))
	}

	// Invert imports into export destinations, and foot lists into the
	// receive side. Iterating shards in ascending id keeps every derived
	// list deterministic.
	for _, st := range s.shards {
		for _, src := range st.impSrcs {
			from := s.shards[src]
			from.expDsts = append(from.expDsts, st.id)
		}
		for di, dst := range st.impSrcs {
			d := s.shards[dst]
			d.inFoot++
			d.inFootFrom[st.id] = st.footAtoms[di]
		}
	}
	for _, st := range s.shards {
		// Early force frames can arrive while positions are still in
		// flight, so size each inbox for a whole evaluation's message set —
		// that is what keeps plain-mode sends non-blocking and deadlock-free.
		need := len(st.impSrcs) + st.inFoot + 4
		if s.sup != nil {
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

	s.comm.rebuildStatic(s)
}

func resizeLists(ls [][]int32, n int) [][]int32 {
	for len(ls) < n {
		ls = append(ls, nil)
	}
	return ls[:n]
}

func resizeBytes(ls [][]byte, n int) [][]byte {
	for len(ls) < n {
		ls = append(ls, nil)
	}
	return ls[:n]
}
