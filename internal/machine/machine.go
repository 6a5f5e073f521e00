// Package machine models the Anton machine (paper section 2.2): a set of
// nodes in a 3D toroidal topology — 512 nodes as 8x8x8 for the paper's
// main configuration, with any power of two from 1 to 32768 supported —
// each node an ASIC with the HTIS (32 PPIPs), the flexible subsystem
// (8 geometry cores, 4 control processors, correction pipeline, DMA
// engines) and 50.6 Gbit/s inter-node channels with tens-of-nanoseconds
// latency. It is the one home of the ASIC's numbers and of the HTIS
// throughput model (htis.go). On top of the topology it provides the
// analytic per-time-step performance model that reproduces the paper's
// Table 2 (Anton columns), Table 4 / Figure 5 simulation rates, and the
// section 5.1 partitioning behavior.
package machine

import (
	"fmt"

	"anton/internal/nt"
)

// Hardware constants of the production Anton ASIC (paper §2.2).
const (
	BaseClockHz  = 485e6
	PPIPClockHz  = 970e6
	NumPPIPs     = 32
	MatchPerPPIP = 8
	NumGCs       = 8
)

// Machine is an Anton configuration.
type Machine struct {
	Nodes int
	Dims  [3]int // torus dimensions, product == Nodes
}

// New builds a machine with the given power-of-two node count (1..32768;
// the current software only supports powers of two — paper footnote 3).
func New(nodes int) (*Machine, error) {
	if nodes < 1 || nodes > 32768 || nodes&(nodes-1) != 0 {
		return nil, fmt.Errorf("machine: node count %d must be a power of two in [1, 32768]", nodes)
	}
	return &Machine{Nodes: nodes, Dims: torusDims(nodes)}, nil
}

// torusDims splits 2^k into three factors as equal as possible, largest
// first: 512 -> 8x8x8, 128 -> 8x4x4, 2 -> 2x1x1.
func torusDims(nodes int) [3]int {
	d := [3]int{1, 1, 1}
	for nodes > 1 {
		// Double the smallest dimension.
		min := 0
		for i := 1; i < 3; i++ {
			if d[i] < d[min] {
				min = i
			}
		}
		d[min] *= 2
		nodes /= 2
	}
	// Sort descending for a canonical form.
	if d[0] < d[1] {
		d[0], d[1] = d[1], d[0]
	}
	if d[1] < d[2] {
		d[1], d[2] = d[2], d[1]
	}
	if d[0] < d[1] {
		d[0], d[1] = d[1], d[0]
	}
	return d
}

// Grid returns the nt.Grid for box-level assignment on this machine.
func (m *Machine) Grid() nt.Grid {
	return nt.Grid{Nx: m.Dims[0], Ny: m.Dims[1], Nz: m.Dims[2]}
}

// BoxSide returns the home-box edge lengths for a chemical system with the
// given cubic box side.
func (m *Machine) BoxSide(systemSide float64) [3]float64 {
	return [3]float64{
		systemSide / float64(m.Dims[0]),
		systemSide / float64(m.Dims[1]),
		systemSide / float64(m.Dims[2]),
	}
}

// Partition splits the machine into equal smaller machines (paper §5.1: a
// 512-node machine can be partitioned into four 128-node machines).
func (m *Machine) Partition(parts int) (*Machine, error) {
	if parts < 1 || m.Nodes%parts != 0 {
		return nil, fmt.Errorf("machine: cannot split %d nodes into %d parts", m.Nodes, parts)
	}
	return New(m.Nodes / parts)
}

// MaxHops returns the worst-case hop count between two nodes on the torus.
func (m *Machine) MaxHops() int {
	return m.Dims[0]/2 + m.Dims[1]/2 + m.Dims[2]/2
}
