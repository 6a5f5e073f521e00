// Command antonprep performs the off-line "system preparation" stage the
// paper describes: it builds a chemical system, fits the PPIP interaction
// tables for its parameters ("polynomial coefficients, associated
// exponents, and the parameters of the tiered indexing scheme are
// computed off-line as part of system preparation" — §4), and writes the
// artifacts: the tables in their binary format, a PDB snapshot of the
// initial structure, and a preparation summary. The tables are the ones
// an engine of the system holds — the four of its PPIP pipeline and the
// mesh solver's spreading kernel — so antonprep never restates a kernel.
//
// Usage:
//
//	antonprep -system DHFR -out ./prep-dhfr
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"anton/internal/core"
	"anton/internal/obs"
	"anton/internal/ppip"
	"anton/internal/system"
	"anton/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its process state passed in: the exit code is 2 for a
// flag error, 1 for a failed preparation, else 0.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("antonprep", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		name      = fl.String("system", "gpW", "named system or 'small'")
		out       = fl.String("out", "prep", "output directory")
		logFormat = fl.String("log", "text", "log format: text or json")
	)
	if err := fl.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	logger := obs.NewLogger(stderr, *logFormat, false)
	if err := prepare(*name, *out, stdout); err != nil {
		logger.Error("prep failed", "err", err)
		return 1
	}
	return 0
}

// preparedTable is one PPIP table and the file antonprep writes it to.
type preparedTable struct {
	file string
	tab  *ppip.Table
}

// engineTables lists the five PPIP tables an engine holds, in the order
// antonprep writes them.
func engineTables(e *core.Engine) []preparedTable {
	return []preparedTable{
		{"elec-force.ppip", e.Pipe.Elec},
		{"elec-energy.ppip", e.Pipe.ElecE},
		{"lj12.ppip", e.Pipe.LJ12},
		{"lj6.ppip", e.Pipe.LJ6},
		{"spread.ppip", e.SpreadTable()},
	}
}

// prepare builds the named system and an engine of it, and writes the
// engine's tables, the initial structure and the summary into dir.
func prepare(name, dir string, stdout io.Writer) error {
	s, err := system.ByName(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// The tables depend on the system alone, not on the node count.
	e, err := core.NewEngine(s, core.DefaultConfig(1))
	if err != nil {
		return err
	}
	for _, t := range engineTables(e) {
		if err := writeFile(filepath.Join(dir, t.file), t.tab.Write); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d segments, %d-bit mantissas)\n", t.file, len(t.tab.Segments), t.tab.MantissaBits)
	}

	labels := make([]trace.AtomLabel, s.NAtoms())
	for i, a := range s.Top.Atoms {
		labels[i] = trace.AtomLabel{Name: a.Name, Residue: a.Residue}
	}
	err = writeFile(filepath.Join(dir, "initial.pdb"), func(w io.Writer) error {
		return trace.WritePDB(w, labels, s.R, s.Box, 1)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote initial.pdb (%d particles)\n", s.NAtoms())

	err = writeFile(filepath.Join(dir, "summary.txt"), func(w io.Writer) error {
		fmt.Fprintf(w, "system: %s\n", s.Name)
		fmt.Fprintf(w, "particles: %d (protein %d, ions %d, waters %d x %s)\n",
			s.NAtoms(), s.ProteinAtoms, s.Ions, s.Waters, s.Model)
		fmt.Fprintf(w, "box: %.2f Å cube\n", s.Box.L.X)
		fmt.Fprintf(w, "cutoff: %.2f Å   mesh: %d^3   spreading radius: %.2f Å\n",
			s.Cutoff, s.Mesh, s.RSpread)
		// The tolerance is a power of ten, printed as 1e-N.
		fmt.Fprintf(w, "ewald sigma: %.4f Å (erfc tolerance 1e%d at the cutoff)\n",
			e.Split.Sigma, int(math.Round(math.Log10(core.EwaldTol))))
		fmt.Fprintf(w, "topology: %d bonds, %d angles, %d dihedrals, %d impropers,\n",
			len(s.Top.Bonds), len(s.Top.Angles), len(s.Top.Dihedrals), len(s.Top.Impropers))
		fmt.Fprintf(w, "          %d constraints, %d exclusions, %d scaled 1-4 pairs\n",
			len(s.Top.Constraints), len(s.Top.Exclusions), len(s.Top.Pairs14))
		_, err := fmt.Fprintf(w, "degrees of freedom: %d\n", s.Top.DegreesOfFreedom())
		return err
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote summary.txt\n")
	return nil
}

// writeFile creates path, lets write fill it, and closes it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
