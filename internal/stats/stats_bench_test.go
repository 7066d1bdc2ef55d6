package stats

import "testing"

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
