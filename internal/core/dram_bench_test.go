package core

import (
	"math/rand"
	"testing"
)

// BenchmarkUpdateGroupTrackers256kCellsP6 is the trackers-on fold at a
// DRAM-resident shape: 256k cells × 35 record slots ≈ 73 MB of state, well
// past any LLC. This is where interleaving the tracker slots into the
// records pays — the seed's separate per-tracker UpdatePair passes re-stream
// the group fields and tracker arrays from memory, while the fused record
// sweep touches every byte once. The 10k-cell variant in core_bench_test.go
// stays cache-resident and measures pure per-cell op cost instead; keep
// both, they bound the two regimes.
func BenchmarkUpdateGroupTrackers256kCellsP6(b *testing.B) {
	const cells, p = 262144, 6
	rng := rand.New(rand.NewSource(1))
	field := func() []float64 {
		f := make([]float64, cells)
		for i := range f {
			f[i] = rng.NormFloat64()
		}
		return f
	}
	th := 0.5
	a := NewAccumulator(cells, 1, p, Options{
		MinMax:        true,
		Threshold:     &th,
		HigherMoments: true,
	})
	yA, yB := field(), field()
	yC := make([][]float64, p)
	for k := range yC {
		yC[k] = field()
	}
	b.SetBytes(8 * cells * (p + 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.UpdateGroup(0, yA, yB, yC)
	}
}
