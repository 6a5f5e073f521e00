package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randSignal(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxDiff(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestForwardMatchesDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := randSignal(n, int64(n))
		want := DFT(x)
		got := append([]complex128(nil), x...)
		Forward(got)
		if d := maxDiff(got, want); d > 1e-9*float64(n) {
			t.Errorf("n=%d: max diff vs DFT %g", n, d)
		}
	}
}

func TestForwardInverseRoundTrip(t *testing.T) {
	for _, n := range []int{2, 32, 1024} {
		x := randSignal(n, 42)
		y := append([]complex128(nil), x...)
		Forward(y)
		Inverse(y)
		if d := maxDiff(x, y); d > 1e-10*float64(n) {
			t.Errorf("n=%d: round trip max diff %g", n, d)
		}
	}
}

func TestForwardImpulse(t *testing.T) {
	// The transform of a unit impulse is all ones.
	n := 16
	x := make([]complex128, n)
	x[0] = 1
	Forward(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("impulse[%d] = %v, want 1", i, v)
		}
	}
}

func TestForwardPanicsNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for n=6")
		}
	}()
	Forward(make([]complex128, 6))
}

func TestParseval(t *testing.T) {
	n := 128
	x := randSignal(n, 9)
	var inPower float64
	for _, v := range x {
		inPower += real(v)*real(v) + imag(v)*imag(v)
	}
	Forward(x)
	var outPower float64
	for _, v := range x {
		outPower += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(outPower/float64(n)-inPower) > 1e-9*inPower {
		t.Errorf("Parseval violated: in %g, out/N %g", inPower, outPower/float64(n))
	}
}

func TestQuickLinearity(t *testing.T) {
	n := 64
	f := func(seedA, seedB int64, ar, ai float64) bool {
		if math.IsNaN(ar) || math.IsInf(ar, 0) || math.IsNaN(ai) || math.IsInf(ai, 0) {
			return true
		}
		alpha := complex(math.Mod(ar, 100), math.Mod(ai, 100))
		a := randSignal(n, seedA)
		b := randSignal(n, seedB)
		// FFT(alpha*a + b)
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = alpha*a[i] + b[i]
		}
		Forward(sum)
		Forward(a)
		Forward(b)
		for i := range sum {
			want := alpha*a[i] + b[i]
			if cmplx.Abs(sum[i]-want) > 1e-7*(1+cmplx.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestGrid3RoundTrip(t *testing.T) {
	g := NewGrid3(8, 4, 16)
	rng := rand.New(rand.NewSource(5))
	for i := range g.Data {
		g.Data[i] = complex(rng.NormFloat64(), 0)
	}
	orig := g.Clone()
	g.Forward3()
	g.Inverse3()
	if d := maxDiff(g.Data, orig.Data); d > 1e-10 {
		t.Errorf("3D round trip max diff %g", d)
	}
}

func TestGrid3PlaneWave(t *testing.T) {
	// The forward transform of exp(+2*pi*i*(kx*i/Nx)) concentrates all
	// weight at mode kx (with the e^{-i} kernel convention).
	g := NewGrid3(8, 8, 8)
	kx := 3
	for k := 0; k < 8; k++ {
		for j := 0; j < 8; j++ {
			for i := 0; i < 8; i++ {
				ang := 2 * math.Pi * float64(kx*i) / 8
				g.Set(i, j, k, cmplx.Exp(complex(0, ang)))
			}
		}
	}
	g.Forward3()
	for k := 0; k < 8; k++ {
		for j := 0; j < 8; j++ {
			for i := 0; i < 8; i++ {
				want := complex(0, 0)
				if i == kx && j == 0 && k == 0 {
					want = complex(512, 0)
				}
				if cmplx.Abs(g.At(i, j, k)-want) > 1e-9 {
					t.Fatalf("mode (%d,%d,%d) = %v, want %v", i, j, k, g.At(i, j, k), want)
				}
			}
		}
	}
}

func TestDist3MatchesSerialBitwise(t *testing.T) {
	// The distributed transform performs the identical line transforms, so
	// results must be bitwise equal to the serial path — the analogue of
	// Anton's parallel invariance property.
	cases := [][6]int{
		{32, 32, 32, 8, 8, 8}, // the paper's 512-node configuration
		{32, 32, 32, 4, 4, 4},
		{32, 32, 32, 1, 1, 1},
		{16, 32, 8, 2, 4, 2},
		{64, 64, 64, 8, 8, 8},
	}
	for _, c := range cases {
		serial := NewGrid3(c[0], c[1], c[2])
		rng := rand.New(rand.NewSource(11))
		for i := range serial.Data {
			serial.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		d, err := NewDist3(c[0], c[1], c[2], c[3], c[4], c[5])
		if err != nil {
			t.Fatalf("NewDist3(%v): %v", c, err)
		}
		if err := d.Scatter(serial); err != nil {
			t.Fatalf("Scatter: %v", err)
		}
		serial.Forward3()
		d.Forward3()
		got := d.Gather()
		for i := range serial.Data {
			if got.Data[i] != serial.Data[i] {
				t.Fatalf("config %v: distributed differs from serial at %d: %v vs %v",
					c, i, got.Data[i], serial.Data[i])
			}
		}
		serial.Inverse3()
		d.Inverse3()
		got = d.Gather()
		for i := range serial.Data {
			if got.Data[i] != serial.Data[i] {
				t.Fatalf("config %v: inverse distributed differs at %d", c, i)
			}
		}
	}
}

func TestDist3ParallelInvariance(t *testing.T) {
	// The same mesh transformed on different node counts gives bitwise
	// identical results.
	mesh := NewGrid3(32, 32, 32)
	rng := rand.New(rand.NewSource(13))
	for i := range mesh.Data {
		mesh.Data[i] = complex(rng.NormFloat64(), 0)
	}
	var ref []complex128
	for _, g := range []int{1, 2, 4, 8} {
		d, err := NewDist3(32, 32, 32, g, g, g)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Scatter(mesh); err != nil {
			t.Fatal(err)
		}
		d.Forward3()
		out := d.Gather().Data
		if ref == nil {
			ref = out
			continue
		}
		for i := range ref {
			if out[i] != ref[i] {
				t.Fatalf("node count %d^3 differs from reference at %d", g, i)
			}
		}
	}
}

func TestDist3CommStats(t *testing.T) {
	// Paper: hundreds of messages per node for the 32^3 FFT on 512 nodes,
	// with only 64 mesh points stored per node.
	d, err := NewDist3(32, 32, 32, 8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.PointsPerNode(); got != 64 {
		t.Errorf("points per node: got %d, want 64", got)
	}
	g := NewGrid3(32, 32, 32)
	if err := d.Scatter(g); err != nil {
		t.Fatal(err)
	}
	d.Forward3()
	fwd := d.Stats
	d.Inverse3()
	total := d.Stats
	if fwd.MessagesPerNode < 50 || fwd.MessagesPerNode > 500 {
		t.Errorf("forward messages per node = %d, want O(hundreds)", fwd.MessagesPerNode)
	}
	if total.MessagesPerNode != 2*fwd.MessagesPerNode {
		t.Errorf("inverse should add the same message count: %d vs %d", total.MessagesPerNode, fwd.MessagesPerNode)
	}
	if fwd.Phases != 6 {
		t.Errorf("forward phases = %d, want 6 (2 exchanges x 3 axes)", fwd.Phases)
	}
}

// TestRoundTripStatsMatchesDist3: the message-count function gives what
// a forward and an inverse transform add to Dist3.Stats, on the 32^3 and
// 64^3 meshes for node grids from one node to a 32^3 grid (one point per
// node on the 32^3 mesh), cubic or not, and it refuses what NewDist3
// refuses.
func TestRoundTripStatsMatchesDist3(t *testing.T) {
	for _, n := range []int{32, 64} {
		for _, g := range [][3]int{{1, 1, 1}, {2, 1, 1}, {2, 2, 2}, {4, 2, 1}, {4, 4, 4}, {8, 8, 8}, {8, 4, 2}, {16, 8, 8}, {32, 32, 32}} {
			d, err := NewDist3(n, n, n, g[0], g[1], g[2])
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Scatter(NewGrid3(n, n, n)); err != nil {
				t.Fatal(err)
			}
			d.Forward3()
			d.Inverse3()
			got, err := RoundTripStats(n, n, n, g[0], g[1], g[2])
			if err != nil || got != d.Stats {
				t.Errorf("%d^3 mesh on %v nodes: RoundTripStats = %+v, %v; Dist3.Stats = %+v", n, g, got, err, d.Stats)
			}
		}
	}
	if _, err := RoundTripStats(32, 32, 32, 64, 1, 1); err == nil {
		t.Error("expected error: node grid exceeds mesh")
	}
	if _, err := RoundTripStats(24, 32, 32, 2, 2, 2); err == nil {
		t.Error("expected error: non-power-of-two mesh")
	}
}

func TestNewDist3Errors(t *testing.T) {
	if _, err := NewDist3(32, 32, 32, 64, 1, 1); err == nil {
		t.Error("expected error: node grid exceeds mesh")
	}
	if _, err := NewDist3(24, 32, 32, 2, 2, 2); err == nil {
		t.Error("expected error: non-power-of-two mesh")
	}
	d, err := NewDist3(16, 16, 16, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Scatter(NewGrid3(8, 8, 8)); err == nil {
		t.Error("expected error: scatter size mismatch")
	}
}

func BenchmarkForward1K(b *testing.B) {
	x := randSignal(1024, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Forward(x)
	}
}

func BenchmarkGrid3Forward32(b *testing.B) {
	g := NewGrid3(32, 32, 32)
	rng := rand.New(rand.NewSource(1))
	for i := range g.Data {
		g.Data[i] = complex(rng.NormFloat64(), 0)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Forward3()
	}
}

func TestParallelMatchesSerialBitwise(t *testing.T) {
	// The parallel transform runs the identical line kernels, so results
	// must be bitwise equal to the serial path for any worker count.
	for _, workers := range []int{1, 2, 4, 7} {
		serial := NewGrid3(32, 16, 8)
		rng := rand.New(rand.NewSource(21))
		for i := range serial.Data {
			serial.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		par := serial.Clone()
		serial.Forward3()
		par.ForwardP(workers)
		for i := range serial.Data {
			if par.Data[i] != serial.Data[i] {
				t.Fatalf("workers=%d: forward differs at %d", workers, i)
			}
		}
		serial.Inverse3()
		par.InverseP(workers)
		for i := range serial.Data {
			if par.Data[i] != serial.Data[i] {
				t.Fatalf("workers=%d: inverse differs at %d", workers, i)
			}
		}
	}
}

func BenchmarkGrid3ForwardP32(b *testing.B) {
	g := NewGrid3(32, 32, 32)
	rng := rand.New(rand.NewSource(1))
	for i := range g.Data {
		g.Data[i] = complex(rng.NormFloat64(), 0)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.ForwardP(0)
	}
}
