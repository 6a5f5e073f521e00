// Command antonprep performs the off-line "system preparation" stage the
// paper describes: it builds a chemical system, fits the PPIP interaction
// tables for its parameters ("polynomial coefficients, associated
// exponents, and the parameters of the tiered indexing scheme are
// computed off-line as part of system preparation" — §4), and writes the
// artifacts: the tables in their binary format, a PDB snapshot of the
// initial structure, and a preparation summary.
//
// Usage:
//
//	antonprep -system DHFR -out ./prep-dhfr
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"

	"anton/internal/ewald"
	"anton/internal/obs"
	"anton/internal/ppip"
	"anton/internal/system"
	"anton/internal/trace"
)

var logger *slog.Logger

func main() {
	var (
		name      = flag.String("system", "gpW", "named system or 'small'")
		out       = flag.String("out", "prep", "output directory")
		logFormat = flag.String("log", "text", "log format: text or json")
	)
	flag.Parse()
	logger = obs.NewLogger(os.Stderr, *logFormat, false)

	var s *system.System
	var err error
	if *name == "small" {
		s, err = system.Small(true, 1)
	} else {
		s, err = system.ByName(*name)
	}
	if err != nil {
		fail(err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(err)
	}

	split := ewald.Split{
		Sigma:  ewald.SigmaForCutoff(s.Cutoff, 1e-5),
		Cutoff: s.Cutoff,
	}

	// Fit and write the interaction tables.
	tables := map[string]func(float64) float64{
		"elec-force.ppip":  ppip.ErfcForceFunc(split.Sigma, split.Cutoff, 0.9),
		"elec-energy.ppip": ppip.ErfcEnergyFunc(split.Sigma, split.Cutoff, 0.9),
		"lj12.ppip":        ppip.LJ12ForceFunc(split.Cutoff, 1.1),
		"lj6.ppip":         ppip.LJ6ForceFunc(split.Cutoff, 1.1),
		"spread.ppip":      ppip.GaussianSpreadFunc(split.Sigma/1.4142135623730951, s.RSpread),
	}
	for fname, fn := range tables {
		tab, err := ppip.Build(fn, ppip.PaperScheme, 22)
		if err != nil {
			fail(err)
		}
		f, err := os.Create(filepath.Join(*out, fname))
		if err != nil {
			fail(err)
		}
		if err := tab.Write(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s (%d segments, 22-bit mantissas)\n", fname, len(tab.Segments))
	}

	// Initial-structure PDB.
	pdb, err := os.Create(filepath.Join(*out, "initial.pdb"))
	if err != nil {
		fail(err)
	}
	labels := make([]trace.AtomLabel, s.NAtoms())
	for i, a := range s.Top.Atoms {
		labels[i] = trace.AtomLabel{Name: a.Name, Residue: a.Residue}
	}
	if err := trace.WritePDB(pdb, labels, s.R, s.Box, 1); err != nil {
		fail(err)
	}
	if err := pdb.Close(); err != nil {
		fail(err)
	}
	fmt.Printf("wrote initial.pdb (%d particles)\n", s.NAtoms())

	// Preparation summary.
	sum, err := os.Create(filepath.Join(*out, "summary.txt"))
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(sum, "system: %s\n", s.Name)
	fmt.Fprintf(sum, "particles: %d (protein %d, ions %d, waters %d x %s)\n",
		s.NAtoms(), s.ProteinAtoms, s.Ions, s.Waters, s.Model)
	fmt.Fprintf(sum, "box: %.2f Å cube\n", s.Box.L.X)
	fmt.Fprintf(sum, "cutoff: %.2f Å   mesh: %d^3   spreading radius: %.2f Å\n",
		s.Cutoff, s.Mesh, s.RSpread)
	fmt.Fprintf(sum, "ewald sigma: %.4f Å (erfc tolerance 1e-5 at the cutoff)\n", split.Sigma)
	fmt.Fprintf(sum, "topology: %d bonds, %d angles, %d dihedrals, %d impropers,\n",
		len(s.Top.Bonds), len(s.Top.Angles), len(s.Top.Dihedrals), len(s.Top.Impropers))
	fmt.Fprintf(sum, "          %d constraints, %d exclusions, %d scaled 1-4 pairs\n",
		len(s.Top.Constraints), len(s.Top.Exclusions), len(s.Top.Pairs14))
	fmt.Fprintf(sum, "degrees of freedom: %d\n", s.Top.DegreesOfFreedom())
	if err := sum.Close(); err != nil {
		fail(err)
	}
	fmt.Printf("wrote summary.txt\n")
}

func fail(err error) {
	logger.Error("prep failed", "err", err)
	os.Exit(1)
}
