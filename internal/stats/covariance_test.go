package stats

import (
	"math"
	"math/rand"
	"testing"
)

// twoPassCov computes the unbiased covariance and Pearson correlation with
// textbook two-pass formulas.
func twoPassCov(xs, ys []float64) (cov, corr float64) {
	n := float64(len(xs))
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var cxy, cxx, cyy float64
	for i := range xs {
		cxy += (xs[i] - mx) * (ys[i] - my)
		cxx += (xs[i] - mx) * (xs[i] - mx)
		cyy += (ys[i] - my) * (ys[i] - my)
	}
	cov = cxy / (n - 1)
	if cxx > 0 && cyy > 0 {
		corr = cxy / (math.Sqrt(cxx) * math.Sqrt(cyy))
	}
	return
}

func TestCovarianceMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{2, 5, 100, 5000} {
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = 0.6*xs[i] + 0.4*rng.NormFloat64() // correlated
		}
		var c Covariance
		for i := range xs {
			c.Update(xs[i], ys[i])
		}
		cov, corr := twoPassCov(xs, ys)
		almostEqual(t, "cov", c.Cov(), cov, 1e-10)
		almostEqual(t, "corr", c.Correlation(), corr, 1e-10)
	}
}

func TestCovariancePerfectCorrelation(t *testing.T) {
	var c Covariance
	for i := 0; i < 100; i++ {
		x := float64(i)
		c.Update(x, 3*x+7)
	}
	almostEqual(t, "corr(+)", c.Correlation(), 1, 1e-12)

	c.Reset()
	for i := 0; i < 100; i++ {
		x := float64(i)
		c.Update(x, -2*x)
	}
	almostEqual(t, "corr(-)", c.Correlation(), -1, 1e-12)
}

func TestCovarianceIndependentNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var c Covariance
	for i := 0; i < 100000; i++ {
		c.Update(rng.NormFloat64(), rng.NormFloat64())
	}
	if math.Abs(c.Correlation()) > 0.02 {
		t.Errorf("correlation of independent streams = %v, want ~0", c.Correlation())
	}
}

func TestCovarianceConstantStream(t *testing.T) {
	var c Covariance
	for i := 0; i < 10; i++ {
		c.Update(5, 5)
	}
	if c.Correlation() != 0 {
		t.Errorf("correlation of constant stream = %v, want 0 (guarded)", c.Correlation())
	}
	if c.Cov() != 0 {
		t.Errorf("covariance of constant stream = %v, want 0", c.Cov())
	}
}

func TestCovarianceVariancesMatchMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var c Covariance
	var mx, my Moments
	for i := 0; i < 1000; i++ {
		x, y := rng.NormFloat64(), rng.ExpFloat64()
		c.Update(x, y)
		mx.Update(x)
		my.Update(y)
	}
	almostEqual(t, "varX", c.VarX(), mx.Variance(), 1e-12)
	almostEqual(t, "varY", c.VarY(), my.Variance(), 1e-12)
	almostEqual(t, "meanX", c.MeanX(), mx.Mean(), 1e-12)
	almostEqual(t, "meanY", c.MeanY(), my.Mean(), 1e-12)
}
