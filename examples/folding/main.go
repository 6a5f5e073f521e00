// Folding: the Figure 7 workload. A gpW-sized structure-based model runs
// at its melting temperature, where the folded and unfolded states are
// equally favored, and the native-contact fraction Q(t) shows repeated
// folding and unfolding events — the phenomenon the paper's 236-µs
// all-atom gpW simulation made observable for the first time.
package main

import (
	"fmt"
	"log"

	"anton/internal/analysis"
	"anton/internal/gomodel"
	"anton/internal/system"
)

func main() {
	// Build a synthetic fold and take its CA trace as the native
	// structure. The fold is smaller than gpW's 62 residues so that
	// barrier crossings are frequent within a demo-scale run — the paper
	// needed 236 µs of all-atom time to see them at full size.
	const nRes = 28
	sys, err := system.Build(system.Spec{
		Name: "gpW-fold", TotalAtoms: nRes*system.AtomsPerResidue + 300, Side: 90,
		Cutoff: 10, Mesh: 32, ProteinAtoms: nRes * system.AtomsPerResidue, Seed: 21,
	})
	if err != nil {
		log.Fatal(err)
	}
	native, err := sys.CATrace()
	if err != nil {
		log.Fatal(err)
	}
	model, err := gomodel.New(native, 8.5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("synthetic fold: %d residues, %d native contacts\n", nRes, len(model.Contacts))

	sim := gomodel.NewSim(model, 560, 17) // near the melting temperature
	const steps = 250000
	q := sim.FoldingTrace(steps, steps/200)

	fmt.Println("Q(t): * folded (>0.72), . unfolded (<0.35), - transition region")
	var line []byte
	for _, v := range q {
		switch {
		case v > 0.72:
			line = append(line, '*')
		case v < 0.35:
			line = append(line, '.')
		default:
			line = append(line, '-')
		}
	}
	for i := 0; i < len(line); i += 80 {
		end := i + 80
		if end > len(line) {
			end = len(line)
		}
		fmt.Println(string(line[i:end]))
	}
	fmt.Printf("\n%d folding/unfolding transitions, mean Q = %.2f\n",
		analysis.TransitionCount(q, 0.72, 0.35), analysis.Mean(q))
}
