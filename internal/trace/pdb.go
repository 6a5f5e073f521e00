package trace

import (
	"bufio"
	"fmt"
	"io"

	"anton/internal/vec"
)

// AtomLabel carries the minimum metadata a PDB record needs.
type AtomLabel struct {
	Name    string
	Residue int
	ResName string // 3-char residue name; defaults applied if empty
}

// WritePDB emits one MODEL of a snapshot in Protein Data Bank format —
// the output behind renderings like the paper's Figure 1: the BPTI system
// with every protein atom a sphere and the surrounding water as lines.
// Any molecular viewer (PyMOL, VMD, Mol*) can open the result.
func WritePDB(w io.Writer, labels []AtomLabel, r []vec.V3, box vec.Box, model int) error {
	if len(labels) != len(r) {
		return fmt.Errorf("trace: %d labels for %d positions", len(labels), len(r))
	}
	bw := bufio.NewWriter(w)
	if model == 1 {
		fmt.Fprintf(bw, "CRYST1%9.3f%9.3f%9.3f  90.00  90.00  90.00 P 1           1\n",
			box.L.X, box.L.Y, box.L.Z)
	}
	fmt.Fprintf(bw, "MODEL     %4d\n", model)
	for i, l := range labels {
		resName := l.ResName
		if resName == "" {
			if len(l.Name) >= 2 && (l.Name[:2] == "OW" || l.Name[:2] == "HW" || l.Name[:2] == "MW") {
				resName = "HOH"
			} else {
				resName = "ALA"
			}
		}
		name := l.Name
		if len(name) > 4 {
			name = name[:4]
		}
		element := " C"
		if len(name) > 0 {
			element = fmt.Sprintf(" %c", name[0])
		}
		// Standard ATOM record layout (columns matter).
		fmt.Fprintf(bw, "ATOM  %5d %-4s %3s A%4d    %8.3f%8.3f%8.3f  1.00  0.00          %2s\n",
			(i+1)%100000, name, resName, (l.Residue+1)%10000,
			r[i].X, r[i].Y, r[i].Z, element)
	}
	fmt.Fprintf(bw, "ENDMDL\n")
	return bw.Flush()
}
