// Package obs is the engine's deterministic observability layer: per-phase
// wall-time accounting, monotonic counters from the HTIS path, batch
// occupancy histograms and per-step allocation/GC deltas, collected into a
// snapshotable registry that renders to text and structured JSON — the
// software twin of the paper's Table 2 execution profile.
//
// The zero-perturbation contract: a Recorder is strictly read-only with
// respect to dynamics state. It observes wall clocks and integer counts
// that the engine produces anyway; it never touches the fixed-point
// datapath, so trajectories are bitwise identical with observability on or
// off (asserted by test in internal/core). The disabled path is a single
// nil-pointer check at phase granularity — never inside the per-pair inner
// loops — so it costs well under 2% on the pair-kernel benchmark.
//
// Concurrency: a Recorder is owned by the engine's coordinating goroutine.
// Worker partials (PPIP batch time, pair tallies) accumulate in per-worker
// state and merge serially after each parallel section, so the Recorder
// itself needs no atomics and stays allocation-free on the hot path.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
)

// Phase identifies one timed section of the engine's step loop. The set
// mirrors the task rows of the paper's Table 2, refined to the software
// engine's actual pipeline stages.
type Phase int

// The step-loop phases, in execution order.
const (
	PhaseDecode      Phase = iota // position decode + residency check
	PhasePairGather               // slot-indexed SoA position gather
	PhasePairMatch                // match-unit scan + exclusion merge + batching (wall; includes PPIP time)
	PhasePairPPIP                 // batched PPIP evaluation (aggregate worker-seconds, inside PhasePairMatch)
	PhasePairReduce               // parallel fixed-order force reduction
	PhaseBonded                   // bonds/angles/dihedrals/impropers on the geometry cores
	PhasePair14                   // scaled 1-4 corrections (fast loop)
	PhaseExclusion                // excluded-pair mesh corrections (slow loop)
	PhaseMeshSpread               // charge spreading onto the mesh
	PhaseFFT                      // forward FFT + Green multiply + inverse FFT
	PhaseMeshInterp               // force interpolation from the mesh
	PhaseConstraints              // SHAKE/RATTLE + virtual sites
	PhaseIntegration              // kicks + drift
	PhaseMigration                // home-box/subbox reassignment + kernel rebuild
	NumPhases
)

var phaseNames = [NumPhases]string{
	"decode", "pair-gather", "pair-match", "pair-ppip", "pair-reduce",
	"bonded", "correction-14", "correction-excl",
	"mesh-spread", "fft", "mesh-interp",
	"constraints", "integration", "migration",
}

// String returns the phase's stable name (used in JSON and reports).
func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return fmt.Sprintf("phase(%d)", int(p))
	}
	return phaseNames[p]
}

// wallPhase reports whether the phase is a wall-clock section of the step
// loop (PhasePairPPIP is aggregate worker-seconds nested inside
// PhasePairMatch, so it is excluded from wall-time totals and shares).
func wallPhase(p Phase) bool { return p != PhasePairPPIP }

// Counter identifies one monotonic event counter.
type Counter int

// The engine's monotonic counters. The pair counters come from the HTIS
// path: candidates examined by the match units, pairs passing the
// low-precision check, pairs evaluated by the PPIPs (the numerator and
// denominator of Table 3's match efficiency), and the batch-flush
// bookkeeping of the software PPIP queue.
const (
	CtrPairsConsidered Counter = iota
	CtrPairsMatched
	CtrPairsComputed
	CtrBatchFlushes
	CtrBatchPairs
	CtrMeshInteractions
	CtrMigrations
	CtrResidencyMigrations // migrations forced by a residency-slack violation
	CtrLongRangeEvals      // MTS long-range refreshes

	// The shard transport counters: messages actually exchanged between
	// virtual node shards over the channel transport (zero in monolithic
	// runs). A position or force message is one frame per (sender,
	// receiver) link per evaluation, carrying every atom record of that
	// link; the analytic Comm() estimate counts one message per atom per
	// link instead (the measured atom records are the pos/force raw bytes
	// over 12 and 24).
	CtrShardImportMsgs    // position import messages (home box -> tower/plate importers)
	CtrShardExportMsgs    // force export messages (computing shard -> home box)
	CtrShardMeshMsgs      // mesh charge contributions sent to cell-owner nodes
	CtrShardMigrationMsgs // atoms handed between home boxes at migrations

	// Fault-injection and recovery counters (zero unless a fault plane is
	// attached to the sharded engine). The injected-fault counters mirror
	// the plane's verdict tallies; the transport counters measure the
	// retry/ack machinery's reaction; the recovery counters measure the
	// checkpoint-rollback path.
	CtrFaultDrops    // injected message drops
	CtrFaultDups     // injected message duplications
	CtrFaultDelays   // injected message delays (reordering)
	CtrFaultCorrupts // injected payload bit-flips
	CtrFaultStalls   // injected slow-shard stalls
	CtrFaultCrashes  // injected shard crashes that fired
	CtrRetransmits   // timeout-driven retransmissions
	CtrDupDiscards   // duplicate envelopes dropped by receive-side dedup
	CtrCrcDiscards   // envelopes dropped by the payload CRC check
	CtrRecoveries    // supervised checkpoint-rollback recoveries
	CtrReplaySteps   // steps replayed after rollbacks
	CtrRecoveryNs    // wall time spent in recovery

	// Run-ledger counters (zero unless a provenance ledger is attached):
	// the append/commit/byte volume of the hash-chained audit trail, so
	// the ledger's overhead is itself observable.
	CtrLedgerRecords // provenance records appended
	CtrLedgerCommits // Merkle batch commits sealed (each is one fsync)
	CtrLedgerBytes   // bytes appended to the ledger file

	// Shard force-evaluation counters (zero in monolithic runs): time a
	// shard sat blocked on a receive, and bytes per traffic class. Raw is
	// the in-memory payload size (12 B/position, 24 B/force triple), wire
	// the frame actually sent: equal for positions, varint packed for
	// forces.
	CtrStreamBlockedNs // ns blocked on a receive
	CtrPosRawBytes     // position payload bytes
	CtrPosWireBytes    // position frame bytes on the wire
	CtrForceRawBytes   // force payload bytes before varint packing
	CtrForceWireBytes  // force frame bytes on the wire

	// Of pairs-considered (what the modelled match units examine), the
	// candidates the software distance-tested; the bounding-box prefilter
	// rejected the rest a subbox at a time.
	CtrPairsTested

	// SHAKE + RATTLE sweeps over a constraint group, and groups that left
	// a sweep loop at its cap with the tolerance unmet (want 0).
	CtrConstraintSweeps
	CtrConstraintUnconverged
	NumCounters
)

var counterNames = [NumCounters]string{
	"pairs-considered", "pairs-matched", "pairs-computed",
	"batch-flushes", "batch-pairs", "mesh-interactions",
	"migrations", "residency-migrations", "long-range-evals",
	"shard-import-msgs", "shard-export-msgs", "shard-mesh-msgs",
	"shard-migration-msgs",
	"fault-drops", "fault-dups", "fault-delays", "fault-corrupts",
	"fault-stalls", "fault-crashes", "retransmits", "dup-discards",
	"crc-discards", "recoveries", "replay-steps", "recovery-ns",
	"ledger-records", "ledger-commits", "ledger-bytes",
	"stream-blocked-ns",
	"pos-raw-bytes", "pos-wire-bytes",
	"force-raw-bytes", "force-wire-bytes",
	"pairs-tested",
	"constraint-sweeps", "constraint-unconverged",
}

// String returns the counter's stable name.
func (c Counter) String() string {
	if c < 0 || c >= NumCounters {
		return fmt.Sprintf("counter(%d)", int(c))
	}
	return counterNames[c]
}

// OccupancyBuckets is the resolution of the batch occupancy histogram:
// flushed batch sizes are binned into this many equal-width buckets of the
// batch capacity (bucket i covers (i, i+1] capacity-fractions / buckets).
const OccupancyBuckets = 8

// PhaseStat accumulates one phase's wall time and call count.
type PhaseStat struct {
	Ns    int64
	Calls int64
}

// Recorder is the engine-attached observability registry. The zero value
// is not usable; call NewRecorder.
type Recorder struct {
	start int64 // Now at construction
	trc   *Tracer

	phases    [NumPhases]PhaseStat
	counters  [NumCounters]int64
	occupancy [OccupancyBuckets]int64
	steps     int64

	// Per-step allocation/GC tracking (opt-in: runtime.ReadMemStats has a
	// measurable cost on large heaps).
	trackMem   bool
	memBase    runtime.MemStats
	mallocs    int64
	allocBytes int64
	numGC      int64
	gcPauseNs  int64
}

// NewRecorder builds an empty registry.
func NewRecorder() *Recorder {
	return &Recorder{start: Now()}
}

// Trace attaches a step tracer (nil detaches): every phase call and lane
// span the recorder is handed from then on also lands in the tracer's
// ring, with the start and duration the engine measured. Attach between
// steps.
func (r *Recorder) Trace(t *Tracer) { r.trc = t }

// EnableMemStats turns on per-step allocation/GC delta tracking from the
// current heap state.
func (r *Recorder) EnableMemStats() {
	r.trackMem = true
	runtime.ReadMemStats(&r.memBase)
}

// AddPhase accumulates one timed call into a phase: it started at t0 on
// the Now clock and lasted ns. An attached tracer records it as a span.
func (r *Recorder) AddPhase(p Phase, t0, ns int64) {
	r.phases[p].Ns += ns
	r.phases[p].Calls++
	if r.trc != nil {
		r.trc.push(Span{Name: p.String(), Tid: TidPhases, TS: t0, Dur: ns, Calls: 1})
	}
}

// AddPhaseBatch accumulates pre-merged time from calls invocations (the
// per-worker PPIP partials merged after a parallel section).
func (r *Recorder) AddPhaseBatch(p Phase, ns, calls int64) {
	r.phases[p].Ns += ns
	r.phases[p].Calls += calls
}

// AddLane records a measured span named name on worker lane w (a force
// worker's pair blocks, a shard's stage body): it started at t0 and
// lasted ns over calls calls, ppipNs of it in the PPIP datapath (0 when
// not measured). Only an attached tracer keeps it; the aggregate time
// reaches the recorder through AddPhaseBatch.
func (r *Recorder) AddLane(kind, name string, w int, t0, ns, calls, ppipNs int64) {
	if r.trc != nil {
		r.trc.lane(kind, name, w, t0, ns, int32(calls), ppipNs)
	}
}

// Add accumulates n events into a counter.
func (r *Recorder) Add(c Counter, n int64) { r.counters[c] += n }

// AddOccupancy merges a batch-occupancy histogram (same bucket convention
// as OccupancyBuckets).
func (r *Recorder) AddOccupancy(h [OccupancyBuckets]int64) {
	for i, n := range h {
		r.occupancy[i] += n
	}
}

// StepDone marks the end of time step `step` (the engine's 1-based count),
// closing its step span in an attached tracer and capturing
// allocation/GC deltas when enabled.
func (r *Recorder) StepDone(step int64) {
	if r.trc != nil {
		r.trc.stepDone(step, Now())
	}
	r.steps++
	if !r.trackMem {
		return
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.mallocs += int64(m.Mallocs - r.memBase.Mallocs)
	r.allocBytes += int64(m.TotalAlloc - r.memBase.TotalAlloc)
	r.numGC += int64(m.NumGC - r.memBase.NumGC)
	r.gcPauseNs += int64(m.PauseTotalNs - r.memBase.PauseTotalNs)
	r.memBase = m
}

// Rewind marks a rollback to the end of step `step`: an attached tracer
// drops the spans of the open step and of every later step, so the
// replayed steps record theirs once. Phase times, counters and the step
// count keep the abandoned work: it was done and it took that time. (The
// engine folds its tallies into the counters before it rolls back and
// counts the replay after; its own Stats, restored with the state, count
// each trajectory step once.)
func (r *Recorder) Rewind(step int64) {
	if r.trc != nil {
		r.trc.rewind(step)
	}
}

// Steps returns the number of completed steps seen by the recorder.
func (r *Recorder) Steps() int64 { return r.steps }

// Counter returns the current value of one counter.
func (r *Recorder) Counter(c Counter) int64 { return r.counters[c] }

// PhaseSnapshot is one phase's rendered accounting.
type PhaseSnapshot struct {
	Name      string  `json:"name"`
	Ns        int64   `json:"ns"`
	Calls     int64   `json:"calls"`
	ShareWall float64 `json:"share_wall"` // fraction of summed wall phases (0 for nested phases)
}

// CounterSnapshot is one counter's rendered value.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// OccupancySnapshot is one batch-occupancy bucket.
type OccupancySnapshot struct {
	// Bucket covers flushed batches with occupancy in (Lo, Hi] as a
	// fraction of the batch capacity.
	Lo      float64 `json:"lo"`
	Hi      float64 `json:"hi"`
	Flushes int64   `json:"flushes"`
}

// MemSnapshot carries the accumulated allocation/GC deltas.
type MemSnapshot struct {
	Tracked        bool    `json:"tracked"`
	Mallocs        int64   `json:"mallocs"`
	AllocBytes     int64   `json:"alloc_bytes"`
	NumGC          int64   `json:"num_gc"`
	GCPauseNs      int64   `json:"gc_pause_ns"`
	MallocsPerStep float64 `json:"mallocs_per_step"`
}

// MeshPathSnapshot breaks the long-range mesh path into its three phases
// — charge spreading, FFT convolution, force interpolation — normalized
// per MTS refresh, so a reader can see where a long-range evaluation's
// time goes without dividing phase totals by the refresh cadence.
type MeshPathSnapshot struct {
	Refreshes       int64   `json:"refreshes"` // MTS long-range evaluations
	SpreadNs        int64   `json:"spread_ns"`
	FFTNs           int64   `json:"fft_ns"`
	InterpNs        int64   `json:"interp_ns"`
	SpreadMsPerEval float64 `json:"spread_ms_per_eval"`
	FFTMsPerEval    float64 `json:"fft_ms_per_eval"`
	InterpMsPerEval float64 `json:"interp_ms_per_eval"`
}

// Snapshot is the registry's full rendered state: JSON-marshallable,
// self-describing, and stable in field naming.
type Snapshot struct {
	Steps           int64               `json:"steps"`
	WallNs          int64               `json:"wall_ns"`       // recorder lifetime
	PhaseWallNs     int64               `json:"phase_wall_ns"` // sum of wall phases
	Phases          []PhaseSnapshot     `json:"phases"`
	Counters        []CounterSnapshot   `json:"counters"`
	MatchEfficiency float64             `json:"match_efficiency"`
	MeanOccupancy   float64             `json:"mean_batch_occupancy"` // mean flushed batch fill fraction
	Occupancy       []OccupancySnapshot `json:"batch_occupancy"`
	MeshPath        MeshPathSnapshot    `json:"mesh_path"`
	Mem             MemSnapshot         `json:"mem"`
}

// Snapshot renders the registry's current state. Every phase and counter
// appears, including zero-valued ones, so consumers can rely on the full
// schema being present.
func (r *Recorder) Snapshot() Snapshot {
	s := Snapshot{
		Steps:  r.steps,
		WallNs: Now() - r.start,
	}
	for p := Phase(0); p < NumPhases; p++ {
		if wallPhase(p) {
			s.PhaseWallNs += r.phases[p].Ns
		}
	}
	for p := Phase(0); p < NumPhases; p++ {
		ps := PhaseSnapshot{Name: p.String(), Ns: r.phases[p].Ns, Calls: r.phases[p].Calls}
		if wallPhase(p) && s.PhaseWallNs > 0 {
			ps.ShareWall = float64(ps.Ns) / float64(s.PhaseWallNs)
		}
		s.Phases = append(s.Phases, ps)
	}
	for c := Counter(0); c < NumCounters; c++ {
		s.Counters = append(s.Counters, CounterSnapshot{Name: c.String(), Value: r.counters[c]})
	}
	if considered := r.counters[CtrPairsConsidered]; considered > 0 {
		s.MatchEfficiency = float64(r.counters[CtrPairsComputed]) / float64(considered)
	}
	if flushes := r.counters[CtrBatchFlushes]; flushes > 0 {
		// Mean fill fraction needs the batch capacity; the histogram's
		// bucket midpoints give a capacity-free estimate consistent with
		// the occupancy rendering below.
		var weighted float64
		for i, n := range r.occupancy {
			mid := (float64(i) + 0.5) / OccupancyBuckets
			weighted += mid * float64(n)
		}
		s.MeanOccupancy = weighted / float64(flushes)
	}
	for i, n := range r.occupancy {
		s.Occupancy = append(s.Occupancy, OccupancySnapshot{
			Lo:      float64(i) / OccupancyBuckets,
			Hi:      float64(i+1) / OccupancyBuckets,
			Flushes: n,
		})
	}
	s.MeshPath = MeshPathSnapshot{
		Refreshes: r.counters[CtrLongRangeEvals],
		SpreadNs:  r.phases[PhaseMeshSpread].Ns,
		FFTNs:     r.phases[PhaseFFT].Ns,
		InterpNs:  r.phases[PhaseMeshInterp].Ns,
	}
	if n := s.MeshPath.Refreshes; n > 0 {
		s.MeshPath.SpreadMsPerEval = float64(s.MeshPath.SpreadNs) / 1e6 / float64(n)
		s.MeshPath.FFTMsPerEval = float64(s.MeshPath.FFTNs) / 1e6 / float64(n)
		s.MeshPath.InterpMsPerEval = float64(s.MeshPath.InterpNs) / 1e6 / float64(n)
	}
	s.Mem = MemSnapshot{
		Tracked:    r.trackMem,
		Mallocs:    r.mallocs,
		AllocBytes: r.allocBytes,
		NumGC:      r.numGC,
		GCPauseNs:  r.gcPauseNs,
	}
	if r.trackMem && r.steps > 0 {
		s.Mem.MallocsPerStep = float64(r.mallocs) / float64(r.steps)
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// String renders the snapshot as an aligned text report.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "observability over %d steps (%.1f ms wall, %.1f ms in timed phases):\n",
		s.Steps, float64(s.WallNs)/1e6, float64(s.PhaseWallNs)/1e6)
	fmt.Fprintf(&b, "  %-16s %12s %10s %7s\n", "phase", "ms", "calls", "share")
	for _, p := range s.Phases {
		share := "-"
		if p.Name == PhasePairPPIP.String() {
			share = "(nested)"
		} else if s.PhaseWallNs > 0 {
			share = fmt.Sprintf("%5.1f%%", p.ShareWall*100)
		}
		fmt.Fprintf(&b, "  %-16s %12.3f %10d %8s\n", p.Name, float64(p.Ns)/1e6, p.Calls, share)
	}
	fmt.Fprintf(&b, "  counters:\n")
	for _, c := range s.Counters {
		fmt.Fprintf(&b, "    %-22s %14d\n", c.Name, c.Value)
	}
	fmt.Fprintf(&b, "  match efficiency %.1f%%, mean batch occupancy %.1f%%\n",
		s.MatchEfficiency*100, s.MeanOccupancy*100)
	if s.MeshPath.Refreshes > 0 {
		fmt.Fprintf(&b, "  mesh path per refresh (%d refreshes): spread %.3f ms, fft %.3f ms, interp %.3f ms\n",
			s.MeshPath.Refreshes, s.MeshPath.SpreadMsPerEval, s.MeshPath.FFTMsPerEval, s.MeshPath.InterpMsPerEval)
	}
	if s.Mem.Tracked {
		fmt.Fprintf(&b, "  allocs/step %.1f (%d B total), GCs %d (%.2f ms paused)\n",
			s.Mem.MallocsPerStep, s.Mem.AllocBytes, s.Mem.NumGC, float64(s.Mem.GCPauseNs)/1e6)
	}
	return b.String()
}
