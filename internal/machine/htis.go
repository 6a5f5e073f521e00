package machine

import (
	"math"
	"math/rand"
)

// The HTIS of one ASIC (paper §2.2, §3.2.1): NumPPIPs pipelines at
// PPIPClockHz, each fed by MatchPerPPIP match units at BaseClockHz. The
// match units examine candidate pairs; only the pairs inside the cutoff
// reach a PPIP.

// retirePerBaseCycle is how many interactions one PPIP completes per
// base-clock cycle (2: the PPIPs run at twice the base clock).
const retirePerBaseCycle = PPIPClockHz / BaseClockHz

// MinMatchEfficiency is the smallest match efficiency at which the PPIPs
// stay fully utilized (2/8): below it the match units cannot deliver one
// passing pair per PPIP cycle and throughput becomes match-limited — the
// condition that motivates subbox division (Table 3).
const MinMatchEfficiency = retirePerBaseCycle / MatchPerPPIP

// PairWork is one node's HTIS occupancy for a batch of range-limited
// work.
type PairWork struct {
	Seconds      float64 // wall time of the bottleneck stage
	Utilization  float64 // PPIP busy fraction
	MatchLimited bool    // true when the match units are the bottleneck
}

// PricePairs prices one node's range-limited work: considered candidate
// pairs examined by the match units, needed of them computed by the
// PPIPs. The match units examine NumPPIPs*MatchPerPPIP candidates per
// base cycle and each PPIP completes one interaction per PPIP cycle, so
// the PPIPs approach full utilization while needed/considered is at least
// MinMatchEfficiency (paper §3.2.1).
func PricePairs(considered, needed float64) PairWork {
	tMatch := considered / (NumPPIPs * MatchPerPPIP * BaseClockHz)
	tPpip := needed / (NumPPIPs * PPIPClockHz)
	w := PairWork{Seconds: math.Max(tMatch, tPpip), MatchLimited: tMatch > tPpip}
	if w.Seconds > 0 {
		w.Utilization = tPpip / w.Seconds
	}
	return w
}

// queueDepth is the PPIP input queue capacity of the cycle-level
// reference; the match stage stalls when a full cycle's passes would
// overflow it.
const queueDepth = 16

// QueueResult summarizes one simulated batch of SimulateQueue.
type QueueResult struct {
	Cycles      int     // base cycles to drain the batch
	Retired     int     // interactions computed
	Utilization float64 // retired / (retirePerBaseCycle * cycles)
	Stalls      int     // cycles the match stage stalled on a full queue
	MaxQueue    int     // high-water mark of the input queue
}

// SimulateQueue is the cycle-level reference PricePairs is tested
// against: one PPIP's match-unit -> concentrator -> input queue front end
// (paper §3.2.1). Each base cycle a plate atom is tested against
// MatchPerPPIP tower atoms; pairs that pass enter the PPIP input queue,
// and the PPIP retires up to retirePerBaseCycle of them. candidates pair
// candidates arrive, each a real interaction with probability matchEff
// (Bernoulli arrivals: the spatially random structure of liquid systems).
// Results are deterministic given the rng's seed. The paper's claim — "as
// long as the average number of such pairs per cycle per PPIP is at least
// one, the PPIPs will approach full utilization" — is the break-even at
// MinMatchEfficiency.
func SimulateQueue(candidates int, matchEff float64, rng *rand.Rand) QueueResult {
	var res QueueResult
	queue := 0
	examined := 0
	for examined < candidates || queue > 0 {
		// Match stage: examine up to MatchPerPPIP candidates unless the
		// queue could overflow.
		if examined < candidates {
			if queue+MatchPerPPIP <= queueDepth {
				for u := 0; u < MatchPerPPIP && examined < candidates; u++ {
					examined++
					if rng.Float64() < matchEff {
						queue++
					}
				}
			} else {
				res.Stalls++
			}
		}
		if queue > res.MaxQueue {
			res.MaxQueue = queue
		}
		// PPIP stage: retire.
		retire := min(retirePerBaseCycle, queue)
		queue -= retire
		res.Retired += retire
		res.Cycles++
	}
	if res.Cycles > 0 {
		res.Utilization = float64(res.Retired) / float64(retirePerBaseCycle*res.Cycles)
	}
	return res
}
