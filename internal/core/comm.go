package core

import (
	"fmt"
	"sort"
	"strings"

	"anton/internal/fft"
	"anton/internal/nt"
	"anton/internal/torus"
)

// CommReport simulates one time step's inter-node communication on the
// torus network (paper §3.2, "a typical time step on Anton involves
// thousands of inter-node messages per ASIC"):
//
//   - NT-method position import: every box's atoms are multicast to the
//     nodes whose tower or plate contains the box (§3.2.1, Figure 3f);
//   - force export: the computed forces return to the home nodes;
//   - bond-destination position delivery for the geometry cores (§3.2.3);
//   - the distributed FFT's six exchange phases (§3.2.2).
type CommReport struct {
	Nodes int

	ImportMessages int64
	ImportStats    torus.Stats
	ExportStats    torus.Stats
	BondMessages   int
	BondStats      torus.Stats
	FFTMessages    int
	FFTStats       torus.Stats

	MessagesPerNode float64 // all phases combined
	GCLoad          LoadStats

	// Measured holds the transport traffic a sharded run actually carried
	// (nil for the purely analytic report of an engine built by
	// NewEngine, which sends nothing).
	Measured *MeasuredComm
}

// Comm builds the per-step communication picture for the engine's
// current decomposition, plus, for a sharded engine, the traffic its
// transport measured so far.
func (e *Engine) Comm() (*CommReport, error) {
	net, err := torus.New([3]int{e.grid.Nx, e.grid.Ny, e.grid.Nz})
	if err != nil {
		return nil, err
	}
	rep := &CommReport{Nodes: e.grid.NumBoxes()}
	const posBytes = 12 // three fixed-point coordinates
	const forceBytes = 12

	// 1. Determine, for every box, the set of nodes that import it: a
	// node imports box B if any of its interacting box pairs pairs one of
	// its own boxes with B under the NT assignment.
	importers := make(map[int32]map[int32]bool)
	reach := e.Sys.Cutoff + 2*e.subSlack
	nt.BoxPairsWithinCutoff(e.grid, e.boxSide, reach, func(a, b nt.BoxCoord) {
		node := nt.AssignPairNode(e.grid, a, b)
		ni := int32(e.grid.Index(node))
		for _, boxc := range []nt.BoxCoord{a, b} {
			bi := int32(e.grid.Index(boxc))
			if bi == ni {
				continue
			}
			if importers[bi] == nil {
				importers[bi] = make(map[int32]bool)
			}
			importers[bi][ni] = true
		}
	})

	// Canonical iteration order: map range order varies run to run, and
	// both torus.Multicast's first-hop direction dedup and the per-channel
	// accounting are order-sensitive, so boxes and destination lists are
	// sorted before any traffic is injected — two Comm() calls on the same
	// decomposition produce identical reports.
	boxes := make([]int32, 0, len(importers))
	for box := range importers {
		boxes = append(boxes, box)
	}
	sort.Slice(boxes, func(a, b int) bool { return boxes[a] < boxes[b] })
	dstsOf := make(map[int32][]int, len(importers))
	for box, nodes := range importers {
		dsts := make([]int, 0, len(nodes))
		for nd := range nodes {
			dsts = append(dsts, int(nd))
		}
		sort.Ints(dsts)
		dstsOf[box] = dsts
	}

	// Position import: each box multicasts its atoms to its importers.
	for _, box := range boxes {
		atoms := len(e.boxAtoms[box])
		for a := 0; a < atoms; a++ {
			net.Multicast(int(box), dstsOf[box], posBytes)
		}
	}
	rep.ImportStats = net.Collect()
	rep.ImportMessages = rep.ImportStats.Messages
	net.Reset()

	// Force export: the same volume flows back as unicast.
	for _, box := range boxes {
		atoms := len(e.boxAtoms[box])
		for _, nd := range dstsOf[box] {
			for a := 0; a < atoms; a++ {
				net.Send(nd, int(box), forceBytes)
			}
		}
	}
	rep.ExportStats = net.Collect()
	net.Reset()

	// Bond destinations.
	assign := AssignBondTerms(e.Sys.Top, e.boxOf, e.grid)
	rep.GCLoad = assign.Stats()
	for atom := range e.Pos {
		home := e.boxOf[atom]
		for _, d := range assign.BondDestinations(atom) {
			if d != home {
				net.Send(int(home), int(d), posBytes)
				rep.BondMessages++
			}
		}
	}
	rep.BondStats = net.Collect()
	net.Reset()

	// FFT: reuse the distributed plan's accounting.
	if d, err := fft.NewDist3(e.mesh.n, e.mesh.n, e.mesh.n, e.grid.Nx, e.grid.Ny, e.grid.Nz); err == nil {
		g := fft.NewGrid3(e.mesh.n, e.mesh.n, e.mesh.n)
		if err := d.Scatter(g); err == nil {
			d.Forward3()
			d.Inverse3()
			rep.FFTMessages = d.Stats.MessagesPerNode
			// Model the per-phase row exchange on the torus for channel
			// statistics.
			seg := d.PointsPerNode() / maxI(1, e.grid.Nx) * 8
			for axis := 0; axis < 3; axis++ {
				net.AllToAllRow(axis, maxI(seg, 4))
			}
			rep.FFTStats = net.Collect()
			net.Reset()
		}
	}

	total := float64(rep.ImportStats.Messages+rep.ExportStats.Messages) +
		float64(rep.BondMessages) +
		float64(rep.FFTMessages*rep.Nodes)
	rep.MessagesPerNode = total / float64(rep.Nodes)
	if e.net != nil {
		rep.Measured = e.net.comm.report(e.TransportStats())
	}
	return rep, nil
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// String formats the report.
func (r *CommReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "per-step communication on %d nodes:\n", r.Nodes)
	fmt.Fprintf(&b, "  position import: %6d msgs  busiest channel %6d B  est %6.2f us\n",
		r.ImportStats.Messages, r.ImportStats.BusiestChannelBytes, r.ImportStats.PhaseTimeNs/1e3)
	fmt.Fprintf(&b, "  force export:    %6d msgs  busiest channel %6d B  est %6.2f us\n",
		r.ExportStats.Messages, r.ExportStats.BusiestChannelBytes, r.ExportStats.PhaseTimeNs/1e3)
	fmt.Fprintf(&b, "  bond positions:  %6d msgs  (GC load imbalance %.2f)\n",
		r.BondMessages, r.GCLoad.Imbalance)
	fmt.Fprintf(&b, "  FFT exchanges:   %6d msgs/node\n", r.FFTMessages)
	fmt.Fprintf(&b, "  total: %.0f messages per node per step\n", r.MessagesPerNode)
	if r.Measured != nil {
		b.WriteString(r.Measured.String())
	}
	return b.String()
}
