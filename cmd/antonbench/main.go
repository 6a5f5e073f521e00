// Command antonbench regenerates the paper's tables and figures (see
// EXPERIMENTS.md for the index). Each experiment prints a plain-text
// report comparing this reproduction's measurements and model projections
// against the paper's published values.
//
// Usage:
//
//	antonbench                       # run the cheap experiments
//	antonbench -experiment table2
//	antonbench -experiment all -full # include the expensive dynamics runs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"anton/internal/experiments"
)

type experiment struct {
	name      string
	expensive bool
	run       func(full bool) (string, error)
}

var registry = []experiment{
	{"table1", false, func(bool) (string, error) { return experiments.Table1() }},
	{"table2", false, func(bool) (string, error) { return experiments.Table2() }},
	{"table3", false, func(full bool) (string, error) {
		samples := 200000
		if full {
			samples = 2000000
		}
		return experiments.Table3(samples)
	}},
	{"table4", true, func(full bool) (string, error) {
		steps := 16
		if full {
			steps = 200
		}
		out, _, err := experiments.Table4(!full, steps)
		return out, err
	}},
	{"fig3", false, func(bool) (string, error) { return experiments.Fig3() }},
	{"fig5", false, func(bool) (string, error) { return experiments.Fig5() }},
	{"fig5-curve", false, func(bool) (string, error) { return experiments.Fig5Curve() }},
	{"fig6", true, func(full bool) (string, error) {
		steps, every := 60, 4
		if full {
			steps, every = 600, 10
		}
		return experiments.Fig6(steps, every)
	}},
	{"fig7", true, func(full bool) (string, error) {
		steps := 250000
		if full {
			steps = 1000000
		}
		return experiments.Fig7(steps)
	}},
	{"properties", true, func(full bool) (string, error) {
		steps := 12
		if full {
			steps = 60
		}
		return experiments.Properties(steps)
	}},
	{"partition", false, func(bool) (string, error) { return experiments.Partition() }},
	{"ablation-mantissa", false, func(bool) (string, error) { return experiments.AblationMantissa() }},
	{"ablation-subbox", false, func(bool) (string, error) { return experiments.AblationSubbox() }},
	{"ablation-mts", true, func(full bool) (string, error) {
		steps := 200
		if full {
			steps = 1500
		}
		return experiments.AblationMTS(steps)
	}},
	{"ablation-mesh", false, func(bool) (string, error) { return experiments.AblationGSEvsSPME() }},
	{"ablation-nt", false, func(bool) (string, error) { return experiments.AblationNTvsHalfShell() }},
	{"profile", true, func(full bool) (string, error) {
		steps := 40
		if full {
			steps = 400
		}
		return experiments.ProfileMeasured(steps)
	}},
	{"bpti", true, func(full bool) (string, error) {
		steps := 6
		if full {
			steps = 40
		}
		return experiments.BPTI(steps)
	}},
	{"water", true, func(full bool) (string, error) {
		steps, every := 160, 8
		if full {
			steps, every = 1200, 10
		}
		return experiments.WaterStructure(steps, every)
	}},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its process state passed in: the exit code is 2 for a
// flag error, 1 for an unknown or failed experiment, else 0.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("antonbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	which := fl.String("experiment", "cheap", "experiment name, 'all', or 'cheap' (skip dynamics runs)")
	full := fl.Bool("full", false, "use full-length runs for the expensive experiments")
	if err := fl.Parse(args); err != nil {
		return 2
	}

	var selected []experiment
	switch *which {
	case "all":
		selected = registry
	case "cheap":
		for _, e := range registry {
			if !e.expensive {
				selected = append(selected, e)
			}
		}
	default:
		for _, want := range strings.Split(*which, ",") {
			e, ok := lookup(want)
			if !ok {
				fmt.Fprintf(stderr, "unknown experiment %q; available:\n", want)
				for _, e := range registry {
					fmt.Fprintf(stderr, "  %s\n", e.name)
				}
				return 1
			}
			selected = append(selected, e)
		}
	}

	failed := false
	for _, e := range selected {
		fmt.Fprintf(stdout, "==================== %s ====================\n", e.name)
		out, err := e.run(*full)
		fmt.Fprint(stdout, out)
		if err != nil {
			fmt.Fprintf(stderr, "experiment %s: %v\n", e.name, err)
			failed = true
		}
		fmt.Fprintln(stdout)
	}
	if failed {
		return 1
	}
	return 0
}

// lookup finds a registry entry by name.
func lookup(name string) (experiment, bool) {
	for _, e := range registry {
		if e.name == name {
			return e, true
		}
	}
	return experiment{}, false
}
