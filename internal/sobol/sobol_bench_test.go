package sobol

import "testing"

// BenchmarkMartinezUpdate measures folding one group into the scalar
// estimator at the paper's p = 6: the O(p) cost that makes the server
// update independent of the sample count.
func BenchmarkMartinezUpdateP6(b *testing.B) {
	m := NewMartinez(6)
	yC := []float64{1, 2, 3, 4, 5, 6}
	for i := 0; i < b.N; i++ {
		m.Update(float64(i), float64(i)*0.5, yC)
	}
}

func BenchmarkMartinezFullStudyIshigami1k(b *testing.B) {
	fn := Ishigami()
	for i := 0; i < b.N; i++ {
		Estimate(fn, 1000, uint64(i), NewMartinez(fn.P()))
	}
	b.ReportMetric(1000*float64(fn.P()+2), "model-evals/op")
}

// BenchmarkClassicalVsIterative compares the O(1)-memory iterative path
// with the O(n)-memory classical two-pass computation on the same samples.
func BenchmarkClassicalVsIterative(b *testing.B) {
	fn := Ishigami()
	const n = 4096
	yA, yB, yC := Materialize(fn, n, 1)

	b.Run("iterative", func(b *testing.B) {
		yCi := make([]float64, fn.P())
		for i := 0; i < b.N; i++ {
			m := NewMartinez(fn.P())
			for g := 0; g < n; g++ {
				for k := range yCi {
					yCi[k] = yC[k][g]
				}
				m.Update(yA[g], yB[g], yCi)
			}
		}
	})
	b.Run("classical-two-pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Classical(yA, yB, yC)
		}
	})
}

func BenchmarkConfidenceInterval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		FirstOrderCI(0.42, int64(i%10000+10), 0.95)
	}
}
