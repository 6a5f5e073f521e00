package core

import (
	"sort"

	"anton/internal/ff"
	"anton/internal/nt"
)

// Anton assigns every bonded force term statically to one geometry core
// (GC), so that each atom has a fixed set of "bond destinations" to which
// its position is sent on every time step; the assignment is load-
// balanced so the worst-case GC load is minimized, and recomputed every
// ~100,000 steps as atoms migrate (paper §3.2.3). This file models that
// assignment and its quality metrics.

// termKind distinguishes the bonded term types for costing.
type termKind int

const (
	termBond termKind = iota
	termAngle
	termDihedral
	termImproper
)

// termCost is the relative GC evaluation cost of each term type.
var termCost = [...]int{termBond: 2, termAngle: 3, termDihedral: 5, termImproper: 5}

// GCAssignment is a complete static assignment of bonded terms to
// geometry cores.
type GCAssignment struct {
	NumGCs int

	// load[node][gc] is the summed term cost.
	load [][]int

	// destNodes[atom] lists the distinct nodes holding terms that
	// reference the atom — its bond destinations.
	destNodes [][]int32

	terms int
}

// AssignBondTerms distributes all bonded terms of the topology across the
// geometry cores of the machine: each term goes to the home node of its
// first atom (the node already receiving that atom's position), then to
// the least-loaded GC on that node (greedy longest-processing-time
// balancing: terms are placed in decreasing cost order).
func AssignBondTerms(top *ff.Topology, boxOf []int32, grid nt.Grid, numGCs int) *GCAssignment {
	a := &GCAssignment{NumGCs: numGCs}
	n := grid.NumBoxes()
	a.load = make([][]int, n)
	for i := range a.load {
		a.load[i] = make([]int, numGCs)
	}
	a.destNodes = make([][]int32, top.NAtoms())

	type term struct {
		kind  termKind
		atoms [4]int32
		n     int
	}
	var terms []term
	for _, b := range top.Bonds {
		terms = append(terms, term{termBond, [4]int32{int32(b.I), int32(b.J)}, 2})
	}
	for _, g := range top.Angles {
		terms = append(terms, term{termAngle, [4]int32{int32(g.I), int32(g.J), int32(g.K)}, 3})
	}
	for _, d := range top.Dihedrals {
		terms = append(terms, term{termDihedral, [4]int32{int32(d.I), int32(d.J), int32(d.K), int32(d.L)}, 4})
	}
	for _, im := range top.Impropers {
		terms = append(terms, term{termImproper, [4]int32{int32(im.I), int32(im.J), int32(im.K), int32(im.L)}, 4})
	}
	a.terms = len(terms)
	// Decreasing cost order gives the classic LPT bound on imbalance;
	// stable tie-break by original index keeps the result deterministic.
	sort.SliceStable(terms, func(i, j int) bool {
		return termCost[terms[i].kind] > termCost[terms[j].kind]
	})

	for _, t := range terms {
		node := boxOf[t.atoms[0]]
		// Least-loaded GC on the node.
		best := 0
		for gc := 1; gc < numGCs; gc++ {
			if a.load[node][gc] < a.load[node][best] {
				best = gc
			}
		}
		a.load[node][best] += termCost[t.kind]
		// Record the node as a bond destination of every involved atom.
		for _, atom := range t.atoms[:t.n] {
			a.addDest(atom, node)
		}
	}
	return a
}

func (a *GCAssignment) addDest(atom int32, node int32) {
	for _, d := range a.destNodes[atom] {
		if d == node {
			return
		}
	}
	a.destNodes[atom] = append(a.destNodes[atom], node)
}

// Terms returns the number of assigned bonded terms.
func (a *GCAssignment) Terms() int { return a.terms }

// BondDestinations returns the nodes that must receive the atom's
// position each step for bonded-force evaluation.
func (a *GCAssignment) BondDestinations(atom int) []int32 { return a.destNodes[atom] }

// LoadStats summarizes the GC load balance.
type LoadStats struct {
	WorstGC   int     // largest single-GC load (the §3.2.3 objective)
	MeanGC    float64 // average over GCs that hold work
	Imbalance float64 // WorstGC / MeanGC; 1.0 is perfect
}

// Stats computes the balance metrics across all nodes' GCs.
func (a *GCAssignment) Stats() LoadStats {
	var s LoadStats
	var used, sum int
	for _, node := range a.load {
		for _, l := range node {
			if l == 0 {
				continue
			}
			used++
			sum += l
			if l > s.WorstGC {
				s.WorstGC = l
			}
		}
	}
	if used > 0 {
		s.MeanGC = float64(sum) / float64(used)
		s.Imbalance = float64(s.WorstGC) / s.MeanGC
	}
	return s
}

// NodeLoad returns the summed GC load of one node.
func (a *GCAssignment) NodeLoad(node int) int {
	t := 0
	for _, l := range a.load[node] {
		t += l
	}
	return t
}
