package stats

import (
	"math"
	"math/rand"
	"testing"
)

// twoPassMoments computes mean/variance/skewness/kurtosis with textbook
// two-pass formulas, the ground truth the iterative accumulators must match.
func twoPassMoments(xs []float64) (mean, variance, skew, kurt float64) {
	n := float64(len(xs))
	for _, x := range xs {
		mean += x
	}
	mean /= n
	var m2, m3, m4 float64
	for _, x := range xs {
		d := x - mean
		m2 += d * d
		m3 += d * d * d
		m4 += d * d * d * d
	}
	if len(xs) >= 2 {
		variance = m2 / (n - 1)
	}
	if m2 > 0 {
		skew = math.Sqrt(n) * m3 / math.Pow(m2, 1.5)
		kurt = n*m4/(m2*m2) - 3
	}
	return
}

func almostEqual(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	scale := math.Max(1, math.Max(math.Abs(got), math.Abs(want)))
	if math.IsNaN(got) || math.Abs(got-want) > tol*scale {
		t.Errorf("%s: got %v, want %v (tol %v)", name, got, want, tol)
	}
}

func TestMomentsEmpty(t *testing.T) {
	var m Moments
	if m.N() != 0 || m.Mean() != 0 || m.Variance() != 0 {
		t.Fatalf("empty accumulator not zero: n=%d mean=%v var=%v", m.N(), m.Mean(), m.Variance())
	}
	if m.Skewness() != 0 || m.Kurtosis() != 0 {
		t.Fatalf("empty accumulator skew/kurt not zero")
	}
}

func TestMomentsSingleSample(t *testing.T) {
	var m Moments
	m.Update(42.5)
	if m.N() != 1 {
		t.Fatalf("n = %d, want 1", m.N())
	}
	if m.Mean() != 42.5 {
		t.Fatalf("mean = %v, want 42.5", m.Mean())
	}
	if m.Variance() != 0 {
		t.Fatalf("variance of one sample = %v, want 0", m.Variance())
	}
}

func TestMomentsMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 3, 10, 100, 10000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()*3.7 + 11
		}
		var m Moments
		for _, x := range xs {
			m.Update(x)
		}
		mean, variance, skew, kurt := twoPassMoments(xs)
		almostEqual(t, "mean", m.Mean(), mean, 1e-12)
		almostEqual(t, "variance", m.Variance(), variance, 1e-10)
		almostEqual(t, "skewness", m.Skewness(), skew, 1e-8)
		almostEqual(t, "kurtosis", m.Kurtosis(), kurt, 1e-8)
	}
}

func TestMomentsOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	var forward, backward Moments
	for i := range xs {
		forward.Update(xs[i])
		backward.Update(xs[len(xs)-1-i])
	}
	almostEqual(t, "mean", forward.Mean(), backward.Mean(), 1e-12)
	almostEqual(t, "variance", forward.Variance(), backward.Variance(), 1e-10)
	almostEqual(t, "kurtosis", forward.Kurtosis(), backward.Kurtosis(), 1e-8)
}

func TestMomentsNumericalStabilityLargeOffset(t *testing.T) {
	// Classic catastrophic-cancellation scenario for naive sum-of-squares:
	// small variance on a huge mean. The one-pass form must survive it.
	var m Moments
	const offset = 1e9
	vals := []float64{offset + 4, offset + 7, offset + 13, offset + 16}
	for _, v := range vals {
		m.Update(v)
	}
	almostEqual(t, "mean", m.Mean(), offset+10, 1e-12)
	almostEqual(t, "variance", m.Variance(), 30, 1e-9)
}

func TestMomentsKnownDistributions(t *testing.T) {
	// Uniform(0,1): skewness 0, excess kurtosis -1.2.
	rng := rand.New(rand.NewSource(5))
	var m Moments
	for i := 0; i < 200000; i++ {
		m.Update(rng.Float64())
	}
	almostEqual(t, "uniform mean", m.Mean(), 0.5, 5e-3)
	almostEqual(t, "uniform variance", m.Variance(), 1.0/12, 2e-2)
	if math.Abs(m.Skewness()) > 0.03 {
		t.Errorf("uniform skewness = %v, want ~0", m.Skewness())
	}
	almostEqual(t, "uniform kurtosis", m.Kurtosis(), -1.2, 5e-2)
}

func TestMomentsReset(t *testing.T) {
	var m Moments
	m.Update(1)
	m.Update(2)
	m.Reset()
	if m.N() != 0 || m.Mean() != 0 || m.Variance() != 0 {
		t.Fatalf("reset did not clear accumulator: %+v", m)
	}
}
