package system_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"anton/internal/core"
	"anton/internal/system"
)

// TestBuildBitwise pins what the builder outputs for the paper systems:
// (a) every atom's position bits, (b) the engine's configuration
// fingerprint, which hashes every topology term in order (Pairs14
// included), and (c) the exclusion table, the per-atom skip lists and
// the constraint groups. A builder change that moves one bit, or that
// depends on map iteration order, fails here. Recorded on amd64.
func TestBuildBitwise(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("builder output recorded on amd64")
	}
	for _, c := range []struct {
		name                string
		atoms               int
		pos, fp, exclusions string
	}{
		{"small", 645, "7d4783db2492ee19", "7d705a5034c11b64", "875f0704dd592e8f"},
		{"gpW", 9865, "ad531ca18600e871", "aecab0719222ae2e", "a1411ecda36d779d"},
		{"DHFR", 23558, "31acdf8ff8c055e3", "57b0ad5c4d976f53", "6161d74bf7aabc8f"},
		{"BPTI", 17758, "f029e5bb3781d5d2", "8502eaa4f478f4af", "ec498fcc610aeaf3"},
		{"GB3", 4999, "9217cf864a7b4e06", "faddaf1e483386a1", "d7ba46fe6671f330"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := system.ByName(c.name)
			if err != nil {
				t.Fatal(err)
			}
			if s.NAtoms() != c.atoms {
				t.Fatalf("built %d atoms, want %d", s.NAtoms(), c.atoms)
			}

			h := fnv.New64a()
			var b8 [8]byte
			for _, r := range s.R {
				for _, x := range [3]float64{r.X, r.Y, r.Z} {
					binary.LittleEndian.PutUint64(b8[:], math.Float64bits(x))
					h.Write(b8[:])
				}
			}
			if got := fmt.Sprintf("%016x", h.Sum64()); got != c.pos {
				t.Errorf("positions hash %s, want %s", got, c.pos)
			}

			e, err := core.NewEngine(s, core.DefaultConfig(8))
			if err != nil {
				t.Fatal(err)
			}
			if got := e.FingerprintHex(); got != c.fp {
				t.Errorf("fingerprint %s, want %s", got, c.fp)
			}

			h = fnv.New64a()
			var b4 [4]byte
			put := func(v int32) {
				binary.LittleEndian.PutUint32(b4[:], uint32(v))
				h.Write(b4[:])
			}
			for _, p := range s.Top.Exclusions {
				put(p[0])
				put(p[1])
			}
			put(-1)
			for _, l := range s.Top.Skip {
				for _, j := range l {
					put(j)
				}
				put(-1)
			}
			for _, g := range s.Top.ConstraintGroups() {
				for _, a := range g {
					put(int32(a))
				}
				put(-1)
			}
			if got := fmt.Sprintf("%016x", h.Sum64()); got != c.exclusions {
				t.Errorf("exclusions/skip/groups hash %s, want %s", got, c.exclusions)
			}
		})
	}
}
