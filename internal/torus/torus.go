// Package torus simulates Anton's inter-node network: a 3D torus with
// six full-duplex 50.6 Gbit/s channels per node and tens-of-nanoseconds
// hop latency (paper §2.2). Messages are routed deterministically in
// dimension order (x, then y, then z, each along its shorter toroidal
// direction); the simulator tracks per-channel traffic, hop counts and a
// bandwidth/latency time estimate for a communication phase. It backs the
// communication accounting of the NT-method import/export and the
// distributed FFT (§3.2.1-2), where "a typical time step involves
// thousands of inter-node messages per ASIC".
package torus

import "fmt"

// Direction identifies one of a node's six channels.
type Direction int

// The six channel directions.
const (
	XPlus Direction = iota
	XMinus
	YPlus
	YMinus
	ZPlus
	ZMinus
	NumDirections
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	return [...]string{"x+", "x-", "y+", "y-", "z+", "z-"}[d]
}

// Network is a torus simulator with traffic accounting.
type Network struct {
	Dims [3]int

	// ChannelGbps is the per-direction bandwidth of one channel.
	ChannelGbps float64
	// HopLatencyNs is the per-hop propagation + switching latency.
	HopLatencyNs float64
	// MessageOverheadB models the per-message header cost on the wire
	// (Anton sends messages as small as 4 bytes efficiently, so this is
	// small).
	MessageOverheadB int

	// channelBytes[node][dir] accumulates bytes pushed onto each outgoing
	// channel.
	channelBytes [][NumDirections]int64
	messages     int64
	totalBytes   int64
	maxHops      int
}

// New builds a network over the given torus dimensions with Anton's
// production parameters.
func New(dims [3]int) (*Network, error) {
	n := dims[0] * dims[1] * dims[2]
	if n <= 0 {
		return nil, fmt.Errorf("torus: invalid dims %v", dims)
	}
	return &Network{
		Dims:             dims,
		ChannelGbps:      50.6,
		HopLatencyNs:     50,
		MessageOverheadB: 4,
		channelBytes:     make([][NumDirections]int64, n),
	}, nil
}

// Nodes returns the node count.
func (n *Network) Nodes() int { return n.Dims[0] * n.Dims[1] * n.Dims[2] }

// Coord converts a linear node id to torus coordinates.
func (n *Network) Coord(id int) [3]int {
	return [3]int{id % n.Dims[0], (id / n.Dims[0]) % n.Dims[1], id / (n.Dims[0] * n.Dims[1])}
}

// Index converts torus coordinates to a linear node id.
func (n *Network) Index(c [3]int) int {
	return (c[2]*n.Dims[1]+c[1])*n.Dims[0] + c[0]
}

// step returns the signed unit step along axis from a to b taking the
// shorter toroidal direction; ties (half the ring on an even dimension)
// canonically go positive, keeping routing deterministic.
func step(a, b, n int) int {
	if a == b {
		return 0
	}
	fwd := ((b-a)%n + n) % n
	if fwd <= n-fwd {
		return 1
	}
	return -1
}

// Route returns the dimension-ordered path from src to dst as a list of
// (node, direction) hops, excluding the destination.
func (n *Network) Route(src, dst int) []struct {
	Node int
	Dir  Direction
} {
	var path []struct {
		Node int
		Dir  Direction
	}
	cur := n.Coord(src)
	target := n.Coord(dst)
	dirOf := [3][2]Direction{{XPlus, XMinus}, {YPlus, YMinus}, {ZPlus, ZMinus}}
	for axis := 0; axis < 3; axis++ {
		for cur[axis] != target[axis] {
			s := step(cur[axis], target[axis], n.Dims[axis])
			d := dirOf[axis][0]
			if s < 0 {
				d = dirOf[axis][1]
			}
			path = append(path, struct {
				Node int
				Dir  Direction
			}{n.Index(cur), d})
			cur[axis] = ((cur[axis]+s)%n.Dims[axis] + n.Dims[axis]) % n.Dims[axis]
		}
	}
	return path
}

// Hops returns the dimension-order hop count between two nodes.
func (n *Network) Hops(src, dst int) int { return len(n.Route(src, dst)) }

// Send routes one message of the given payload from src to dst,
// accumulating traffic on every traversed channel.
func (n *Network) Send(src, dst, payloadBytes int) {
	if src == dst {
		return
	}
	wire := int64(payloadBytes + n.MessageOverheadB)
	path := n.Route(src, dst)
	for _, hop := range path {
		n.channelBytes[hop.Node][hop.Dir] += wire
	}
	n.messages++
	n.totalBytes += int64(payloadBytes)
	if len(path) > n.maxHops {
		n.maxHops = len(path)
	}
}

// SendN routes count identical messages of the given payload from src to
// dst, accumulating the aggregate traffic in one route computation. It is
// the batched entry point for measured traffic accounting: a sharded run
// folds its per-link message tallies through here instead of replaying
// every message individually.
func (n *Network) SendN(src, dst, payloadBytes, count int) {
	if src == dst || count <= 0 {
		return
	}
	wire := int64(payloadBytes+n.MessageOverheadB) * int64(count)
	path := n.Route(src, dst)
	for _, hop := range path {
		n.channelBytes[hop.Node][hop.Dir] += wire
	}
	n.messages += int64(count)
	n.totalBytes += int64(payloadBytes) * int64(count)
	if len(path) > n.maxHops {
		n.maxHops = len(path)
	}
}

// Multicast sends the payload from src to each destination. Anton's
// hardware multicast delivers one copy per link; this model approximates
// it by routing to each destination along its own path but counting the
// shared first hop only once per distinct direction.
func (n *Network) Multicast(src int, dsts []int, payloadBytes int) {
	seenFirst := map[Direction]bool{}
	wire := int64(payloadBytes + n.MessageOverheadB)
	for _, dst := range dsts {
		if dst == src {
			continue
		}
		path := n.Route(src, dst)
		for i, hop := range path {
			if i == 0 {
				if seenFirst[hop.Dir] {
					continue
				}
				seenFirst[hop.Dir] = true
			}
			n.channelBytes[hop.Node][hop.Dir] += wire
		}
		n.messages++
		n.totalBytes += int64(payloadBytes)
		if len(path) > n.maxHops {
			n.maxHops = len(path)
		}
	}
}

// Stats summarizes accumulated traffic.
type Stats struct {
	Messages     int64
	PayloadBytes int64
	MaxHops      int

	// BusiestChannelBytes is the largest per-channel byte count — the
	// bandwidth bottleneck of the phase.
	BusiestChannelBytes int64
	// MeanChannelBytes averages over all channels that carried traffic.
	MeanChannelBytes float64
	// PhaseTimeNs estimates the phase duration: the busiest channel's
	// serialization time plus the worst-case hop latency chain.
	PhaseTimeNs float64
}

// Collect computes the phase statistics.
func (n *Network) Collect() Stats {
	var s Stats
	s.Messages = n.messages
	s.PayloadBytes = n.totalBytes
	s.MaxHops = n.maxHops
	var used int64
	var sum int64
	for _, ch := range n.channelBytes {
		for d := 0; d < int(NumDirections); d++ {
			b := ch[d]
			if b == 0 {
				continue
			}
			used++
			sum += b
			if b > s.BusiestChannelBytes {
				s.BusiestChannelBytes = b
			}
		}
	}
	if used > 0 {
		s.MeanChannelBytes = float64(sum) / float64(used)
	}
	serialNs := float64(s.BusiestChannelBytes) * 8 / n.ChannelGbps // bits / (Gbit/s) = ns
	s.PhaseTimeNs = serialNs + float64(s.MaxHops)*n.HopLatencyNs
	return s
}

// Reset clears accumulated traffic (between phases).
func (n *Network) Reset() {
	for i := range n.channelBytes {
		n.channelBytes[i] = [NumDirections]int64{}
	}
	n.messages = 0
	n.totalBytes = 0
	n.maxHops = 0
}

// Imbalance returns busiest/mean channel load — 1.0 is perfectly
// balanced traffic.
func (s Stats) Imbalance() float64 {
	if s.MeanChannelBytes == 0 {
		return 0
	}
	return float64(s.BusiestChannelBytes) / s.MeanChannelBytes
}

// AllToAllRow simulates the row exchange of the distributed FFT: every
// node in a torus row sends each other row node a segment of
// segmentBytes. rows along the given axis (0=x,1=y,2=z).
func (n *Network) AllToAllRow(axis, segmentBytes int) {
	for id := 0; id < n.Nodes(); id++ {
		c := n.Coord(id)
		for k := 0; k < n.Dims[axis]; k++ {
			d := c
			d[axis] = k
			dst := n.Index(d)
			if dst != id {
				n.Send(id, dst, segmentBytes)
			}
		}
	}
}
