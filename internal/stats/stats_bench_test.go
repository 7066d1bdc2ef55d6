package stats

import (
	"math/rand"
	"testing"
)

// The per-cell update cost is Melissa Server's inner loop: one field per
// simulation per timestep, folded cell by cell.

func benchField(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	f := make([]float64, n)
	for i := range f {
		f[i] = rng.NormFloat64()
	}
	return f
}

func BenchmarkMomentsUpdate(b *testing.B) {
	var m Moments
	for i := 0; i < b.N; i++ {
		m.Update(float64(i))
	}
	_ = m.Variance()
}

func BenchmarkCovarianceUpdate(b *testing.B) {
	var c Covariance
	for i := 0; i < b.N; i++ {
		c.Update(float64(i), float64(i%7))
	}
	_ = c.Correlation()
}

func BenchmarkFieldMomentsUpdate10k(b *testing.B) {
	const cells = 10000
	fm := NewFieldMoments(cells)
	field := benchField(cells)
	b.SetBytes(8 * cells)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fm.Update(field)
	}
}

func BenchmarkFieldMomentsMerge10k(b *testing.B) {
	const cells = 10000
	a := NewFieldMoments(cells)
	c := NewFieldMoments(cells)
	field := benchField(cells)
	for i := 0; i < 10; i++ {
		a.Update(field)
		c.Update(field)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Merge(c)
	}
}
