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

func TestCovarianceMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n = 777
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 10
		ys[i] = xs[i]*xs[i] + rng.NormFloat64()
	}
	for _, split := range []int{0, 1, 300, n - 1, n} {
		var a, b, all Covariance
		for i := range xs {
			if i < split {
				a.Update(xs[i], ys[i])
			} else {
				b.Update(xs[i], ys[i])
			}
			all.Update(xs[i], ys[i])
		}
		a.Merge(b)
		almostEqual(t, "merged cov", a.Cov(), all.Cov(), 1e-10)
		almostEqual(t, "merged corr", a.Correlation(), all.Correlation(), 1e-10)
		almostEqual(t, "merged varX", a.VarX(), all.VarX(), 1e-10)
		almostEqual(t, "merged varY", a.VarY(), all.VarY(), 1e-10)
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

// One-cell FieldMinMax/FieldExceedance contracts: ±Inf identity when empty,
// merge with an empty side, strictly-greater exceedance, threshold agreement
// on merge.

func TestMinMax(t *testing.T) {
	m := NewFieldMinMax(1)
	if !math.IsInf(m.Min(0), 1) || !math.IsInf(m.Max(0), -1) {
		t.Fatalf("empty FieldMinMax not ±Inf")
	}
	for _, v := range []float64{3, -1, 7, 2} {
		m.Update([]float64{v})
	}
	if m.Min(0) != -1 || m.Max(0) != 7 || m.N() != 4 {
		t.Fatalf("got min=%v max=%v n=%d", m.Min(0), m.Max(0), m.N())
	}
	other := NewFieldMinMax(1)
	other.Update([]float64{-9})
	other.Update([]float64{100})
	m.Merge(other)
	if m.Min(0) != -9 || m.Max(0) != 100 || m.N() != 6 {
		t.Fatalf("after merge: min=%v max=%v n=%d", m.Min(0), m.Max(0), m.N())
	}
	m.Merge(NewFieldMinMax(1))
	if m.Min(0) != -9 || m.Max(0) != 100 || m.N() != 6 {
		t.Fatalf("merge with empty changed state")
	}
}

func TestExceedance(t *testing.T) {
	e := NewFieldExceedance(1, 0.5)
	for _, v := range []float64{0.1, 0.6, 0.5, 0.9, 0.2} {
		e.Update([]float64{v})
	}
	// Strictly greater: 0.5 itself does not exceed.
	almostEqual(t, "probability", e.Probability(0), 0.4, 1e-15)

	other := NewFieldExceedance(1, 0.5)
	other.Update([]float64{0.7})
	e.Merge(other)
	if e.N() != 6 || e.Probability(0) != ExceedanceProbability(3, 6) {
		t.Fatalf("after merge: n=%d probability=%v", e.N(), e.Probability(0))
	}
	if ExceedanceProbability(0, 0) != 0 {
		t.Fatalf("empty stream probability not 0")
	}
}

func TestExceedanceMergeThresholdMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on threshold mismatch")
		}
	}()
	a := NewFieldExceedance(1, 0.5)
	a.Update([]float64{1})
	b := NewFieldExceedance(1, 0.7)
	b.Update([]float64{1})
	a.Merge(b)
}
