// Package faults is the deterministic fault-injection plane for the
// sharded engine's message transport. Every decision — drop this message,
// duplicate it, delay it, flip a bit in its payload, crash this shard,
// stall it — is a pure function of the seed and the event's identity
// (step, exchange id, message kind, source, destination, attempt), hashed
// through a splitmix64 chain. There is no mutable PRNG state, so the
// schedule is identical no matter how goroutines interleave: the same
// seed replays the same failure campaign bitwise, which is what lets the
// chaos tests assert that a faulted trajectory equals the fault-free one.
//
// Shard crashes are pre-scheduled at construction (a deterministic set of
// (step, shard, point) events derived from the seed) rather than drawn
// per-message, so a campaign injects an exact, reproducible number of
// crash-recovery cycles. A crash event fires at most once: the supervisor
// re-executes the crashed step after restoring from a checkpoint, and a
// consumed event must not kill the shard again on replay.
//
// The plane guarantees eventual delivery: attempts at or beyond
// SafeAttempt are never faulted, so the transport's retransmission loop
// always terminates.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Action is the plane's verdict on one message attempt.
type Action uint8

// Message verdicts. ActDeliver is the zero value: a nil or quiet plane
// always delivers.
const (
	ActDeliver Action = iota
	ActDrop           // never delivered; the sender's ack timeout drives a retransmit
	ActDup            // delivered twice; receive-side dedup discards the copy
	ActDelay          // delivered late (possibly after a retransmit, i.e. reordered)
	ActCorrupt        // one payload bit flipped in a copy; the CRC check discards it
)

// Verdict is the plane's decision for one message attempt.
type Verdict struct {
	Act     Action
	DelayNs int64  // ActDelay: how long to hold the message
	Raw     uint64 // ActCorrupt: entropy the transport uses to pick the flipped bit
}

// Crash points within the position-exchange stage of a step.
const (
	CrashBeforeSend uint8 = iota // shard dies before multicasting its positions
	CrashAfterSend               // shard dies with its messages sent but unreceived
)

// Spec is a fault campaign: per-attempt message fault probabilities, the
// stall odds, and the crash schedule parameters.
type Spec struct {
	Seed    int64   // hash seed; same seed = same campaign
	Drop    float64 // per-attempt message drop probability
	Dup     float64 // duplication probability
	Delay   float64 // delay/reorder probability
	Corrupt float64 // payload bit-flip probability
	Stall   float64 // per-(step,stage,shard) slow-shard stall probability

	MaxDelay time.Duration // delay upper bound (draws land in [1/4, 1] of it)
	MaxStall time.Duration // stall upper bound (draws land in [1/4, 1] of it)

	Crashes      int // shard crash events scheduled over the horizon
	CrashHorizon int // steps within which crashes are scheduled

	// SafeAttempt is the first retransmission attempt the plane leaves
	// alone, bounding how often one message can be refused.
	SafeAttempt int
}

// DefaultSpec returns a quiet spec (no faults) with sane bounds: 2 ms max
// delay, 20 ms max stall, a 100-step crash horizon, and attempt 3 safe.
func DefaultSpec() Spec {
	return Spec{
		Seed:         1,
		MaxDelay:     2 * time.Millisecond,
		MaxStall:     20 * time.Millisecond,
		CrashHorizon: 100,
		SafeAttempt:  3,
	}
}

// normalized fills zero bounds with the defaults and clamps probabilities
// into [0, 1].
func (sp Spec) normalized() Spec {
	def := DefaultSpec()
	if sp.MaxDelay <= 0 {
		sp.MaxDelay = def.MaxDelay
	}
	if sp.MaxStall <= 0 {
		sp.MaxStall = def.MaxStall
	}
	if sp.CrashHorizon <= 0 {
		sp.CrashHorizon = def.CrashHorizon
	}
	if sp.SafeAttempt <= 0 {
		sp.SafeAttempt = def.SafeAttempt
	}
	for _, p := range []*float64{&sp.Drop, &sp.Dup, &sp.Delay, &sp.Corrupt, &sp.Stall} {
		clampProb(p)
	}
	return sp
}

// clampProb forces a parsed probability into [0, 1]. NaN (ParseFloat
// accepts "nan") is no probability: every draw compares false against
// it, so it becomes the 0 it would behave as.
func clampProb(p *float64) {
	switch {
	case math.IsNaN(*p) || *p < 0:
		*p = 0
	case *p > 1:
		*p = 1
	}
}

// specKey is one key of a campaign grammar, bound to a field of the spec
// its table was built over: set parses a value into the field, show
// renders it ("" at the default, which String omits).
type specKey struct {
	name string
	set  func(v string) error
	show func() string
}

func seedKey(p *int64) specKey {
	return specKey{"seed",
		func(v string) (err error) { *p, err = strconv.ParseInt(v, 10, 64); return },
		func() string { return strconv.FormatInt(*p, 10) }}
}

func probKey(name string, p *float64) specKey {
	return specKey{name,
		func(v string) (err error) { *p, err = strconv.ParseFloat(v, 64); return },
		func() string {
			if *p == 0 {
				return ""
			}
			return strconv.FormatFloat(*p, 'g', -1, 64)
		}}
}

func intKey(name string, p *int, def int) specKey {
	return specKey{name,
		func(v string) (err error) { *p, err = strconv.Atoi(v); return },
		func() string {
			if *p == def {
				return ""
			}
			return strconv.Itoa(*p)
		}}
}

func durKey(name string, p *time.Duration, def time.Duration) specKey {
	return specKey{name,
		func(v string) (err error) { *p, err = time.ParseDuration(v); return },
		func() string {
			if *p == def {
				return ""
			}
			return p.String()
		}}
}

// parseKeys walks a comma-separated key=value list, setting each field
// through the key table. what names the grammar in error texts.
func parseKeys(what, s string, keys []specKey) error {
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return fmt.Errorf("faults: bad %s field %q (want key=value)", what, field)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		i := 0
		for i < len(keys) && keys[i].name != k {
			i++
		}
		if i == len(keys) {
			return fmt.Errorf("faults: unknown %s key %q", what, k)
		}
		if err := keys[i].set(v); err != nil {
			return fmt.Errorf("faults: bad value for %s: %v", k, err)
		}
	}
	return nil
}

// renderKeys is parseKeys' inverse: every key whose field is off its
// default, in table order.
func renderKeys(keys []specKey) string {
	var parts []string
	for _, k := range keys {
		if v := k.show(); v != "" {
			parts = append(parts, k.name+"="+v)
		}
	}
	return strings.Join(parts, ",")
}

// keys is the message-plane grammar over sp's fields.
func (sp *Spec) keys() []specKey {
	def := DefaultSpec()
	return []specKey{
		seedKey(&sp.Seed),
		probKey("drop", &sp.Drop),
		probKey("dup", &sp.Dup),
		probKey("delay", &sp.Delay),
		probKey("corrupt", &sp.Corrupt),
		probKey("stall", &sp.Stall),
		durKey("maxdelay", &sp.MaxDelay, def.MaxDelay),
		durKey("maxstall", &sp.MaxStall, def.MaxStall),
		intKey("crashes", &sp.Crashes, def.Crashes),
		intKey("horizon", &sp.CrashHorizon, def.CrashHorizon),
		intKey("safe", &sp.SafeAttempt, def.SafeAttempt),
	}
}

// ParseSpec parses a comma-separated key=value campaign description, e.g.
//
//	"seed=7,drop=0.02,dup=0.01,delay=0.02,corrupt=0.005,stall=0.01,crashes=2,horizon=120"
//
// Keys: seed, drop, dup, delay, corrupt, stall (probabilities), crashes,
// horizon, safe (ints), maxdelay, maxstall (Go durations). Unset keys
// keep the DefaultSpec values.
func ParseSpec(s string) (Spec, error) {
	sp := DefaultSpec()
	if err := parseKeys("spec", s, sp.keys()); err != nil {
		return sp, err
	}
	return sp.normalized(), nil
}

// String renders the spec in ParseSpec's format: the seed and every
// field off its default, so a parsed spec's rendering parses back to it.
func (sp Spec) String() string { return renderKeys(sp.keys()) }

// Counts are the plane's injected-fault tallies. Drops, dups, delays and
// corruptions count per faulted attempt; attempts beyond the first exist
// only when earlier ones were refused, so the totals depend on the
// schedule alone, not on goroutine timing, except where retransmission
// races add extra (always-delivered) attempts.
type Counts struct {
	Drops    int64 `json:"drops"`
	Dups     int64 `json:"dups"`
	Delays   int64 `json:"delays"`
	Corrupts int64 `json:"corrupts"`
	Stalls   int64 `json:"stalls"`

	CrashesScheduled int   `json:"crashes_scheduled"`
	CrashesFired     int64 `json:"crashes_fired"`
}

// CrashEvent is one scheduled shard crash.
type CrashEvent struct {
	Step  int64
	Shard int32
	Point uint8
}

type crashKey struct {
	step  int64
	shard int32
}

type crashEvent struct {
	point uint8
	fired atomic.Bool
}

// Plane evaluates a Spec. Safe for concurrent use: verdicts are pure
// hashes and the tallies are atomics.
type Plane struct {
	spec   Spec
	shards int
	sched  map[crashKey]*crashEvent

	drops, dups, delays, corrupts, stalls, crashes atomic.Int64
}

// New builds a plane for a machine of the given shard count. The crash
// schedule — Spec.Crashes events over Spec.CrashHorizon steps — is fixed
// here, derived from the seed alone.
func New(spec Spec, shards int) *Plane {
	spec = spec.normalized()
	if shards < 1 {
		shards = 1
	}
	p := &Plane{spec: spec, shards: shards, sched: make(map[crashKey]*crashEvent)}
	for i := 0; i < spec.Crashes; i++ {
		h := mix(uint64(spec.Seed), 0xc4a5_4c4a, uint64(i))
		step := 1 + int64(mix(h, 1)%uint64(spec.CrashHorizon))
		shard := int32(mix(h, 2) % uint64(shards))
		point := uint8(mix(h, 3) % 2)
		key := crashKey{step, shard}
		// Linear-probe the step on collisions so the campaign schedules
		// exactly Spec.Crashes distinct events (deterministically).
		for {
			if _, dup := p.sched[key]; !dup {
				break
			}
			key.step++
		}
		p.sched[key] = &crashEvent{point: point}
	}
	return p
}

// Spec returns the normalized campaign spec.
func (p *Plane) Spec() Spec { return p.spec }

// Schedule returns the crash schedule ordered by (step, shard) — for
// reports and replay-determinism assertions.
func (p *Plane) Schedule() []CrashEvent {
	out := make([]CrashEvent, 0, len(p.sched))
	for k, ev := range p.sched {
		out = append(out, CrashEvent{Step: k.step, Shard: k.shard, Point: ev.point})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Step != out[j].Step {
			return out[i].Step < out[j].Step
		}
		return out[i].Shard < out[j].Shard
	})
	return out
}

// Message returns the verdict for one transport attempt. kind
// distinguishes the message classes sharing an exchange (positions,
// short/long forces, acks); attempt starts at 1 and attempts at or past
// SafeAttempt always deliver.
func (p *Plane) Message(step int64, xid uint32, kind uint8, src, dst int32, attempt int) Verdict {
	if p == nil || attempt >= p.spec.SafeAttempt {
		return Verdict{}
	}
	h := mix(uint64(p.spec.Seed), 0x6d65_7373, uint64(step), uint64(xid),
		uint64(kind), uint64(uint32(src)), uint64(uint32(dst)), uint64(attempt))
	u := u01(h)
	sp := &p.spec
	switch {
	case u < sp.Drop:
		p.drops.Add(1)
		return Verdict{Act: ActDrop}
	case u < sp.Drop+sp.Corrupt:
		p.corrupts.Add(1)
		return Verdict{Act: ActCorrupt, Raw: mix(h, 0xb17)}
	case u < sp.Drop+sp.Corrupt+sp.Dup:
		p.dups.Add(1)
		return Verdict{Act: ActDup}
	case u < sp.Drop+sp.Corrupt+sp.Dup+sp.Delay:
		p.delays.Add(1)
		return Verdict{Act: ActDelay, DelayNs: spanNs(p.spec.MaxDelay, mix(h, 0xde1a))}
	}
	return Verdict{}
}

// StallNs returns how long the shard should stall at the given stage of
// the given step (0 = no stall). Stalls are bounded well below any sane
// supervisor heartbeat, so they exercise retransmission pressure without
// tripping crash detection.
func (p *Plane) StallNs(step int64, stage uint8, shard int32) int64 {
	if p == nil || p.spec.Stall <= 0 {
		return 0
	}
	h := mix(uint64(p.spec.Seed), 0x57a1_1575, uint64(step), uint64(stage), uint64(uint32(shard)))
	if u01(h) >= p.spec.Stall {
		return 0
	}
	p.stalls.Add(1)
	return spanNs(p.spec.MaxStall, mix(h, 0xd0))
}

// Crash reports whether the shard should die at the given point of the
// given step. A scheduled event fires exactly once: the restored replay
// of the same step finds it consumed.
func (p *Plane) Crash(step int64, shard int32, point uint8) bool {
	if p == nil || len(p.sched) == 0 {
		return false
	}
	ev, ok := p.sched[crashKey{step, shard}]
	if !ok || ev.point != point {
		return false
	}
	if !ev.fired.CompareAndSwap(false, true) {
		return false
	}
	p.crashes.Add(1)
	return true
}

// Counts snapshots the injected-fault tallies.
func (p *Plane) Counts() Counts {
	if p == nil {
		return Counts{}
	}
	return Counts{
		Drops:            p.drops.Load(),
		Dups:             p.dups.Load(),
		Delays:           p.delays.Load(),
		Corrupts:         p.corrupts.Load(),
		Stalls:           p.stalls.Load(),
		CrashesScheduled: len(p.sched),
		CrashesFired:     p.crashes.Load(),
	}
}

// spanNs maps 64 bits of entropy into [max/4, max] nanoseconds.
func spanNs(max time.Duration, h uint64) int64 {
	lo := int64(max) / 4
	if lo < 1 {
		lo = 1
	}
	span := int64(max) - lo
	if span <= 0 {
		return lo
	}
	return lo + int64(h%uint64(span+1))
}

// mix chains splitmix64 finalizers over the key words — a fast, well-
// mixed pure hash (no shared state, so verdicts are interleaving-free).
func mix(vs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		z := h
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		h = z
	}
	return h
}

// u01 maps a hash to a uniform float64 in [0, 1).
func u01(h uint64) float64 { return float64(h>>11) / float64(1<<53) }
