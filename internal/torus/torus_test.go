package torus

import (
	"math/rand"
	"testing"
)

func TestRouteDimensionOrder(t *testing.T) {
	n, err := New([3]int{8, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	src := n.Index([3]int{0, 0, 0})
	dst := n.Index([3]int{2, 3, 1})
	path := n.Route(src, dst)
	if len(path) != 6 {
		t.Fatalf("hops: got %d, want 6", len(path))
	}
	// Dimension order: all x hops, then y, then z.
	wantDirs := []Direction{XPlus, XPlus, YPlus, YPlus, YPlus, ZPlus}
	for i, hop := range path {
		if hop.Dir != wantDirs[i] {
			t.Fatalf("hop %d: dir %v, want %v", i, hop.Dir, wantDirs[i])
		}
	}
}

func TestRouteTakesShortWayAround(t *testing.T) {
	n, _ := New([3]int{8, 1, 1})
	// 0 -> 6 is 2 hops backwards around the ring, not 6 forwards.
	if got := n.Hops(0, 6); got != 2 {
		t.Errorf("0->6 on an 8-ring: %d hops, want 2", got)
	}
	path := n.Route(0, 6)
	if path[0].Dir != XMinus {
		t.Errorf("0->6 should go x-, got %v", path[0].Dir)
	}
	// Exactly half the ring: tie canonically positive.
	if n.Route(0, 4)[0].Dir != XPlus {
		t.Error("half-ring tie should route x+")
	}
}

func TestHopsSymmetricAndBounded(t *testing.T) {
	n, _ := New([3]int{8, 4, 4})
	rng := rand.New(rand.NewSource(3))
	maxHops := 0
	for i := 0; i < 500; i++ {
		a := rng.Intn(n.Nodes())
		b := rng.Intn(n.Nodes())
		h1 := n.Hops(a, b)
		h2 := n.Hops(b, a)
		if h1 != h2 {
			t.Fatalf("hops not symmetric: %d vs %d", h1, h2)
		}
		if h1 > maxHops {
			maxHops = h1
		}
	}
	// Worst case on 8x4x4 is 4+2+2.
	if maxHops > 8 {
		t.Errorf("max hops %d exceeds torus diameter 8", maxHops)
	}
}

func TestSendAccountsChannels(t *testing.T) {
	n, _ := New([3]int{4, 4, 4})
	n.Send(n.Index([3]int{0, 0, 0}), n.Index([3]int{2, 0, 0}), 100)
	s := n.Collect()
	if s.Messages != 1 || s.PayloadBytes != 100 {
		t.Errorf("stats: %+v", s)
	}
	// Two hops, each carrying payload + overhead.
	if s.BusiestChannelBytes != 104 {
		t.Errorf("channel bytes: got %d, want 104", s.BusiestChannelBytes)
	}
	if s.MaxHops != 2 {
		t.Errorf("max hops: got %d", s.MaxHops)
	}
	// Self-send is a no-op.
	n.Reset()
	n.Send(5, 5, 100)
	if s := n.Collect(); s.Messages != 0 {
		t.Error("self-send counted")
	}
}

func TestPhaseTimeScalesWithLoad(t *testing.T) {
	n, _ := New([3]int{8, 8, 8})
	n.Send(0, 1, 1000)
	t1 := n.Collect().PhaseTimeNs
	n.Reset()
	for i := 0; i < 100; i++ {
		n.Send(0, 1, 1000)
	}
	t2 := n.Collect().PhaseTimeNs
	if t2 <= t1*50 {
		t.Errorf("phase time should grow ~linearly with serialized load: %g -> %g", t1, t2)
	}
}

func TestMulticastSharesFirstHop(t *testing.T) {
	n, _ := New([3]int{8, 1, 1})
	// Multicast to 3 destinations all in the +x direction: the first hop
	// channel carries the payload once, not three times.
	n.Multicast(0, []int{1, 2, 3}, 64)
	s := n.Collect()
	if s.Messages != 3 {
		t.Errorf("messages: %d", s.Messages)
	}
	first := n.channelBytes[0][XPlus]
	if first != 68 {
		t.Errorf("first hop bytes: got %d, want one copy (68)", first)
	}
	// Unicast comparison uses it three times.
	n.Reset()
	for _, d := range []int{1, 2, 3} {
		n.Send(0, d, 64)
	}
	if got := n.channelBytes[0][XPlus]; got != 3*68 {
		t.Errorf("unicast first hop: got %d, want %d", got, 3*68)
	}
}

func TestAllToAllRowMatchesFFTPhase(t *testing.T) {
	// The FFT row exchange on the paper's 512-node machine: each node
	// exchanges with the 7 other nodes of its x-row.
	n, _ := New([3]int{8, 8, 8})
	n.AllToAllRow(0, 16)
	s := n.Collect()
	wantMsgs := int64(512 * 7)
	if s.Messages != wantMsgs {
		t.Errorf("messages: got %d, want %d", s.Messages, wantMsgs)
	}
	// Row traffic never leaves the row: max hops <= 4 (half of 8).
	if s.MaxHops > 4 {
		t.Errorf("row exchange escaped the row: %d hops", s.MaxHops)
	}
	// Paper [36]: a full 3D FFT is three such phases each way and takes
	// ~4 us; one phase's estimate should be well under that.
	if s.PhaseTimeNs > 4000 {
		t.Errorf("one row phase %g ns implausibly long", s.PhaseTimeNs)
	}
	// Traffic is nearly symmetric across row channels; the half-ring
	// tie-break (distance-4 messages always route +) adds a mild skew.
	if im := s.Imbalance(); im > 1.3 {
		t.Errorf("row all-to-all imbalance %g, want <= 1.3", im)
	}
}

func TestIndexCoordRoundTrip(t *testing.T) {
	n, _ := New([3]int{8, 4, 2})
	for id := 0; id < n.Nodes(); id++ {
		if got := n.Index(n.Coord(id)); got != id {
			t.Fatalf("round trip failed at %d -> %v -> %d", id, n.Coord(id), got)
		}
	}
}

func TestNewRejectsBadDims(t *testing.T) {
	if _, err := New([3]int{0, 4, 4}); err == nil {
		t.Error("zero dimension accepted")
	}
}

func TestQuickHopsMatchPerAxisDistance(t *testing.T) {
	n, _ := New([3]int{8, 4, 2})
	ringDist := func(a, b, size int) int {
		d := ((b-a)%size + size) % size
		if size-d < d {
			d = size - d
		}
		return d
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 2000; i++ {
		a := rng.Intn(n.Nodes())
		b := rng.Intn(n.Nodes())
		ca, cb := n.Coord(a), n.Coord(b)
		want := ringDist(ca[0], cb[0], 8) + ringDist(ca[1], cb[1], 4) + ringDist(ca[2], cb[2], 2)
		if got := n.Hops(a, b); got != want {
			t.Fatalf("hops(%v,%v) = %d, want %d", ca, cb, got, want)
		}
	}
}

func TestRouteEndsAtDestination(t *testing.T) {
	n, _ := New([3]int{4, 4, 4})
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 500; i++ {
		src := rng.Intn(n.Nodes())
		dst := rng.Intn(n.Nodes())
		path := n.Route(src, dst)
		if src == dst {
			if len(path) != 0 {
				t.Fatal("self route not empty")
			}
			continue
		}
		// Replay the path and confirm it terminates at dst.
		cur := n.Coord(src)
		for _, hop := range path {
			if n.Index(cur) != hop.Node {
				t.Fatalf("path discontinuity at %v", cur)
			}
			switch hop.Dir {
			case XPlus:
				cur[0] = (cur[0] + 1) % n.Dims[0]
			case XMinus:
				cur[0] = (cur[0] - 1 + n.Dims[0]) % n.Dims[0]
			case YPlus:
				cur[1] = (cur[1] + 1) % n.Dims[1]
			case YMinus:
				cur[1] = (cur[1] - 1 + n.Dims[1]) % n.Dims[1]
			case ZPlus:
				cur[2] = (cur[2] + 1) % n.Dims[2]
			case ZMinus:
				cur[2] = (cur[2] - 1 + n.Dims[2]) % n.Dims[2]
			}
		}
		if n.Index(cur) != dst {
			t.Fatalf("route from %d ended at %d, want %d", src, n.Index(cur), dst)
		}
	}
}
