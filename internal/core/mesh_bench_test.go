package core

import "testing"

// BenchmarkMeshForces measures one full long-range mesh evaluation
// (spread -> merge -> FFT convolution -> interpolation) at DHFR scale.
// Plans, tiles, worker buffers and per-atom axis tables are all
// preallocated or stack-resident (TestForcePathsAllocationFree).
func BenchmarkMeshForces(b *testing.B) {
	e := dhfrBenchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range e.fLong {
			e.fLong[j] = Force3{}
		}
		meshSections(e)
	}
}
