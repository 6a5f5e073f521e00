package refmd

import (
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"anton/internal/system"
)

// TestProfileMeshRows: on `small`, both mesh methods book their charge
// spreading and force gathering under Mesh interpolation and only the
// transforms under FFT, so both rows fill.
func TestProfileMeshRows(t *testing.T) {
	for _, m := range []LongRangeMethod{UseSPME, UseGSE} {
		e := smallEngine(t, true, func(c *Config) { c.Method = m })
		e.Step(4)
		if e.Profile[TaskFFT] <= 0 || e.Profile[TaskMeshInterp] <= 0 {
			t.Errorf("method %d: FFT %v, mesh interpolation %v: both rows must be booked",
				m, e.Profile[TaskFFT], e.Profile[TaskMeshInterp])
		}
	}
}

// TestProfileSplitKeepsTrajectory: timing the mesh stages apart leaves
// the trajectory bit for bit where one LongRange call per evaluation
// left it. The digests were recorded from that engine. The system is an
// ionic fluid because it has no excluded pairs: the correction loop
// walks the topology's exclusion map, whose order (and so the float sum)
// changes from run to run on any system that has them.
func TestProfileSplitKeepsTrajectory(t *testing.T) {
	// Compilers that fuse multiply-adds (arm64, ppc64, s390x) round
	// differently, so the recorded bits hold on amd64 only.
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64")
	}
	for _, tc := range []struct {
		method LongRangeMethod
		digest uint64
	}{
		{UseSPME, 0x3eb129be2fecc98d},
		{UseGSE, 0x26c6a909a9b1b9e3},
	} {
		s, err := system.IonicFluid(60, 16.0, 6.5, 16, 91)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(s)
		cfg.Method = tc.method
		cfg.Workers = 1
		e, err := NewEngine(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.SetVelocities(system.InitVelocities(s.Top, 300, rand.New(rand.NewSource(35))))
		e.Step(20)
		if got := trajectoryDigest(e); got != tc.digest {
			t.Errorf("method %d: trajectory digest %#x, want %#x", tc.method, got, tc.digest)
		}
	}
}

// trajectoryDigest hashes the bits of every position and velocity.
func trajectoryDigest(e *Engine) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := range e.R {
		for _, x := range [6]float64{e.R[i].X, e.R[i].Y, e.R[i].Z, e.V[i].X, e.V[i].Y, e.V[i].Z} {
			b := math.Float64bits(x)
			for k := range buf {
				buf[k] = byte(b >> (8 * k))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}
