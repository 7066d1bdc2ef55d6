package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// boundedSample maps an arbitrary float64 from testing/quick into a
// well-behaved sample (finite, moderate magnitude) so that property
// comparisons are not dominated by overflow artifacts.
func boundedSample(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}

// Property: iterative moments equal two-pass moments for arbitrary inputs.
func TestQuickMomentsMatchTwoPass(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = boundedSample(v)
		}
		var m Moments
		for _, x := range xs {
			m.Update(x)
		}
		mean, variance, _, _ := twoPassMoments(xs)
		scale := math.Max(1, math.Abs(mean))
		if math.Abs(m.Mean()-mean) > 1e-8*scale {
			return false
		}
		vscale := math.Max(1, variance)
		return math.Abs(m.Variance()-variance) <= 1e-6*vscale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: shuffling the sample order never changes the result beyond
// round-off. This is the "data can be consumed in any order" claim of
// Sec. 3.1 that lets Melissa loosen synchronization between simulations.
func TestQuickOrderInvariance(t *testing.T) {
	f := func(raw []float64, seed int64) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = boundedSample(v)
		}
		shuffled := append([]float64(nil), xs...)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		var a, b Moments
		for i := range xs {
			a.Update(xs[i])
			b.Update(shuffled[i])
		}
		mscale := math.Max(1, math.Abs(a.Mean()))
		vscale := math.Max(1, a.Variance())
		return math.Abs(a.Mean()-b.Mean()) <= 1e-8*mscale &&
			math.Abs(a.Variance()-b.Variance()) <= 1e-6*vscale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: covariance merge is equivalent to streaming the concatenation,
// and Cov(x, x) equals Var(x).
func TestQuickCovarianceProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = boundedSample(v)
		}
		var c Covariance
		var m Moments
		for _, x := range xs {
			c.Update(x, x)
			m.Update(x)
		}
		vscale := math.Max(1, m.Variance())
		if math.Abs(c.Cov()-m.Variance()) > 1e-6*vscale {
			return false
		}
		// Correlation of x with itself is 1 unless variance is zero.
		if m.Variance() > 1e-12 && math.Abs(c.Correlation()-1) > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
