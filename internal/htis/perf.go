package htis

import (
	"math"

	"anton/internal/obs"
)

// HardwareConfig describes the HTIS resources of one Anton ASIC (paper
// section 2.2).
type HardwareConfig struct {
	PPIPs             int     // 32 pairwise point interaction pipelines
	MatchUnitsPerPPIP int     // 8 match units feed each PPIP
	BaseClockHz       float64 // 485 MHz for most of the ASIC
	PPIPClockMult     float64 // the PPIP array runs at 2x (970 MHz)
}

// DefaultHardware is the production Anton ASIC configuration.
var DefaultHardware = HardwareConfig{
	PPIPs:             32,
	MatchUnitsPerPPIP: 8,
	BaseClockHz:       485e6,
	PPIPClockMult:     2,
}

// PPIPClockHz returns the PPIP array clock.
func (h HardwareConfig) PPIPClockHz() float64 { return h.BaseClockHz * h.PPIPClockMult }

// PairThroughput summarizes one node's HTIS occupancy for a batch of
// range-limited work.
type PairThroughput struct {
	MatchCycles  float64 // base-clock cycles spent examining candidates
	PPIPCycles   float64 // PPIP-clock cycles spent computing interactions
	Seconds      float64 // wall time of the bottleneck stage
	Utilization  float64 // PPIP busy fraction
	MatchLimited bool    // true when the match units are the bottleneck
}

// Throughput models the HTIS processing pairsConsidered candidate pairs of
// which pairsNeeded are real interactions. Match units examine
// PPIPs*MatchUnitsPerPPIP candidates per base cycle; each PPIP completes
// one interaction per PPIP cycle. The PPIPs approach full utilization as
// long as the average number of passing pairs per cycle per PPIP is at
// least one (paper §3.2.1) — i.e. while matchEfficiency*MatchUnitsPerPPIP
// >= PPIPClockMult.
func (h HardwareConfig) Throughput(pairsConsidered, pairsNeeded float64) PairThroughput {
	matchPerCycle := float64(h.PPIPs * h.MatchUnitsPerPPIP)
	matchCycles := pairsConsidered / matchPerCycle
	ppipCycles := pairsNeeded / float64(h.PPIPs)

	matchTime := matchCycles / h.BaseClockHz
	ppipTime := ppipCycles / h.PPIPClockHz()
	t := math.Max(matchTime, ppipTime)
	util := 0.0
	if t > 0 {
		util = ppipTime / t
	}
	return PairThroughput{
		MatchCycles:  matchCycles,
		PPIPCycles:   ppipCycles,
		Seconds:      t,
		Utilization:  util,
		MatchLimited: matchTime > ppipTime,
	}
}

// MinMatchEfficiency returns the smallest match efficiency at which the
// PPIPs stay fully utilized: below this, the match units cannot deliver
// one passing pair per PPIP cycle and throughput becomes match-limited —
// the condition that motivates subbox division (Table 3).
func (h HardwareConfig) MinMatchEfficiency() float64 {
	return h.PPIPClockMult / float64(h.MatchUnitsPerPPIP)
}

// PairStats counts the HTIS pair path's observed work: candidates examined
// by the match units, the distance tests the software ran to decide them,
// pairs passing the low-precision check, pairs evaluated by the PPIPs, and
// the batching behaviour of the software PPIP input queue. One instance
// lives per worker (no synchronization on the hot path); partials merge
// after each parallel section. The counts are pure observation — they
// never feed back into the datapath.
type PairStats struct {
	Considered int64 // candidates the modelled match units examine
	Tested     int64 // of those, distance-tested in software (the rest fell to the bounding-box prefilter)
	Matched    int64 // passed the low-precision check
	Computed   int64 // inside the exact cutoff (PPIP work)

	BatchFlushes int64 // batched PPIP evaluations issued
	BatchPairs   int64 // pairs streamed through batches
	PPIPNs       int64 // time inside the batched PPIP datapath (0 unless timed)

	// Occupancy bins flushed batch sizes into obs.OccupancyBuckets
	// equal-width fractions of the batch capacity.
	Occupancy [obs.OccupancyBuckets]int64
}

// RecordFlush accounts one batch flush of n pairs against the queue
// capacity.
func (s *PairStats) RecordFlush(n, capacity int) {
	s.BatchFlushes++
	s.BatchPairs += int64(n)
	b := (n - 1) * obs.OccupancyBuckets / capacity
	if b < 0 {
		b = 0
	}
	if b >= obs.OccupancyBuckets {
		b = obs.OccupancyBuckets - 1
	}
	s.Occupancy[b]++
}

// Merge adds another worker's partial counts.
func (s *PairStats) Merge(o *PairStats) {
	s.Considered += o.Considered
	s.Tested += o.Tested
	s.Matched += o.Matched
	s.Computed += o.Computed
	s.BatchFlushes += o.BatchFlushes
	s.BatchPairs += o.BatchPairs
	s.PPIPNs += o.PPIPNs
	for i := range s.Occupancy {
		s.Occupancy[i] += o.Occupancy[i]
	}
}
