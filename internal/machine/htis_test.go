package machine

import (
	"math"
	"math/rand"
	"testing"
)

func TestThroughputModel(t *testing.T) {
	// High match efficiency: PPIP-limited, near-full utilization.
	tp := PricePairs(1e6, 0.4e6)
	if tp.MatchLimited {
		t.Error("40% ME should be PPIP-limited (8 match units deliver 3.2 pairs/cycle/PPIP)")
	}
	if tp.Utilization < 0.99 {
		t.Errorf("utilization %g, want ~1", tp.Utilization)
	}
	// Low match efficiency: match-limited, PPIPs starve.
	tp = PricePairs(1e6, 0.04e6)
	if !tp.MatchLimited {
		t.Error("4% ME should be match-limited")
	}
	if tp.Utilization > 0.5 {
		t.Errorf("starved utilization %g should be low", tp.Utilization)
	}
}

func TestMinMatchEfficiency(t *testing.T) {
	// 8 match units per PPIP at half the PPIP clock: ME must exceed 2/8.
	if got := MinMatchEfficiency; got != 0.25 {
		t.Errorf("min ME: got %g, want 0.25", got)
	}
	// Table 3's box sizes with one subbox at 512-node scale (16 Å boxes,
	// ME 12%) fall below this threshold — exactly why Anton subdivides.
	if 0.12 >= MinMatchEfficiency {
		t.Error("16-Å single-subbox ME should be below the full-utilization threshold")
	}
}

func TestThroughputScalesWithWork(t *testing.T) {
	t1 := PricePairs(1e6, 0.3e6)
	t2 := PricePairs(2e6, 0.6e6)
	if math.Abs(t2.Seconds-2*t1.Seconds) > 1e-12 {
		t.Errorf("throughput not linear in work: %g vs %g", t2.Seconds, 2*t1.Seconds)
	}
}

func TestQueueSimFullUtilizationAboveBreakEven(t *testing.T) {
	// Paper §3.2.1: with at least one passing pair per PPIP cycle (two
	// per base cycle here), the PPIP approaches full utilization.
	if MinMatchEfficiency != 0.25 {
		t.Fatalf("break-even: %g", MinMatchEfficiency)
	}
	rng := rand.New(rand.NewSource(11))
	res := SimulateQueue(200000, 0.40, rng) // Table 3's subboxed regime
	if res.Utilization < 0.97 {
		t.Errorf("utilization %.3f at ME=0.40, want ~1", res.Utilization)
	}
}

func TestQueueSimStarvesBelowBreakEven(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	res := SimulateQueue(200000, 0.12, rng) // the 16-Å one-subbox regime
	// Utilization approaches ME/break-even = 0.48.
	if res.Utilization > 0.55 || res.Utilization < 0.40 {
		t.Errorf("starved utilization %.3f, want ~0.48", res.Utilization)
	}
}

func TestQueueSimMatchesAnalyticThroughput(t *testing.T) {
	// The cycle-level queue reference and PricePairs must agree on
	// utilization across the match-efficiency range.
	rng := rand.New(rand.NewSource(17))
	for _, me := range []float64{0.05, 0.15, 0.25, 0.40, 0.60} {
		sim := SimulateQueue(300000, me, rng)
		tp := PricePairs(300000, me*300000)
		if math.Abs(sim.Utilization-tp.Utilization) > 0.08 {
			t.Errorf("ME=%.2f: simulated %.3f vs analytic %.3f", me, sim.Utilization, tp.Utilization)
		}
	}
}

func TestQueueSimConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	res := SimulateQueue(50000, 0.3, rng)
	// Everything enqueued is eventually retired.
	if res.Retired < int(0.25*50000) || res.Retired > int(0.36*50000) {
		t.Errorf("retired %d of 50000 at ME 0.3", res.Retired)
	}
	if res.MaxQueue > queueDepth {
		t.Errorf("queue exceeded capacity: %d > %d", res.MaxQueue, queueDepth)
	}
}
