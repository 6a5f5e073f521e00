package anton_test

import (
	"fmt"
	"math/rand"

	"anton"
)

// Example runs a minimal simulation on the public API: build a system,
// create an engine on a simulated 8-node Anton, thermalize and step.
func Example() {
	sys, err := anton.SmallSystem(true, 1)
	if err != nil {
		panic(err)
	}
	eng, err := anton.NewEngine(sys, 8)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(7))
	eng.SetVelocities(anton.MaxwellVelocities(sys, 300, rng))
	eng.Step(4)
	fmt.Println("steps:", eng.StepCount())
	fmt.Println("particles:", sys.NAtoms())
	// Output:
	// steps: 4
	// particles: 645
}

// ExampleProjectRate projects the paper's headline metric — simulated
// microseconds per wall-clock day — for the DHFR benchmark on the
// 512-node machine.
func ExampleProjectRate() {
	sys, err := anton.SystemByName("DHFR")
	if err != nil {
		panic(err)
	}
	m, err := anton.NewMachine(512)
	if err != nil {
		panic(err)
	}
	rate := anton.ProjectRate(m, sys)
	fmt.Printf("within the paper's band: %v\n", rate > 10 && rate < 25)
	// Output:
	// within the paper's band: true
}

// ExampleEngine_NegateVelocities demonstrates exact time reversibility:
// run forward, negate velocities, run back, and recover the start bit for
// bit — the positions, and the velocities negated (paper section 4;
// requires no constraints and no thermostat).
func ExampleEngine_NegateVelocities() {
	// Reversibility needs an unconstrained, unthermostatted system.
	ionic, err := anton.IonicFluid(40, 14, 6, 16, 5)
	if err != nil {
		panic(err)
	}
	cfg := anton.DefaultEngineConfig(8)
	cfg.TauT = 0 // NVE
	eng, err := anton.NewEngineWithConfig(ionic, cfg)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(3))
	eng.SetVelocities(anton.MaxwellVelocities(ionic, 300, rng))
	p0, v0 := eng.Snapshot()
	eng.Step(20)
	eng.NegateVelocities()
	eng.Step(20)
	p1, v1 := eng.Snapshot()
	samePos, negVel := true, true
	for i := range p0 {
		if p0[i] != p1[i] {
			samePos = false
		}
		if v1[i] != v0[i].Neg() {
			negVel = false
		}
	}
	fmt.Println("positions recovered bit-for-bit:", samePos)
	fmt.Println("velocities recovered negated:", negVel)
	// Output:
	// positions recovered bit-for-bit: true
	// velocities recovered negated: true
}
