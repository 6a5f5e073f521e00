package htis

import "anton/internal/obs"

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
