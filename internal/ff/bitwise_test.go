package ff_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"anton/internal/ff"
	"anton/internal/system"
	"anton/internal/vec"
)

// TestBondedForcesBitwise pins what BondedForces, the reference engine's
// bonded evaluation, returns on DHFR's built state and on that state
// displaced by a seeded jiggle (the built geometry sits near the bonds'
// and angles' minima, so its forces are tiny): the bits of the energy,
// then of every atom's force. A kernel change that moves one bit, in the
// terms or in the order their forces are summed, fails here. Recorded on
// amd64.
func TestBondedForcesBitwise(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bonded forces recorded on amd64")
	}
	s, err := system.ByName("DHFR")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	jiggled := slices.Clone(s.R)
	for i := range jiggled {
		jiggled[i] = jiggled[i].Add(vec.V3{X: 0.05 * rng.NormFloat64(), Y: 0.05 * rng.NormFloat64(), Z: 0.05 * rng.NormFloat64()})
	}
	for _, c := range []struct {
		name string
		r    []vec.V3
		want string
	}{
		{"built", s.R, "82290cffe9b6c313"},
		{"jiggled", jiggled, "b18fcd734274440f"},
	} {
		f := make([]vec.V3, s.NAtoms())
		energy := ff.BondedForces(s.Top, s.Box, c.r, f)
		h := fnv.New64a()
		var b8 [8]byte
		put := func(x float64) {
			binary.LittleEndian.PutUint64(b8[:], math.Float64bits(x))
			h.Write(b8[:])
		}
		put(energy)
		for _, v := range f {
			put(v.X)
			put(v.Y)
			put(v.Z)
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != c.want {
			t.Errorf("%s: bonded forces hash %s, want %s (energy %v)", c.name, got, c.want, energy)
		}
	}
}
