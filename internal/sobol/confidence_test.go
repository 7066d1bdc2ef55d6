package sobol

import (
	"math"
	"testing"
)

func TestZQuantileKnownValues(t *testing.T) {
	cases := []struct{ level, want float64 }{
		{0.95, 1.959964},
		{0.90, 1.644854},
		{0.99, 2.575829},
		{0.6827, 1.0}, // one sigma
	}
	for _, c := range cases {
		if got := zQuantile(c.level); math.Abs(got-c.want) > 2e-4 {
			t.Errorf("zQuantile(%v) = %v, want %v", c.level, got, c.want)
		}
	}
}

func TestInvNormCDFSymmetryAndTails(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999} {
		lo, hi := invNormCDF(p), invNormCDF(1-p)
		if math.Abs(lo+hi) > 1e-8 {
			t.Errorf("inverse CDF not symmetric at %v: %v vs %v", p, lo, hi)
		}
	}
	if invNormCDF(0.5) != 0 {
		t.Errorf("median quantile = %v, want 0", invNormCDF(0.5))
	}
	if v := invNormCDF(0.9999997); v < 4.9 || v > 5.1 {
		t.Errorf("5-sigma quantile = %v", v)
	}
}

func TestZQuantilePanicsOutOfRange(t *testing.T) {
	for _, lvl := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("zQuantile(%v) should panic", lvl)
				}
			}()
			zQuantile(lvl)
		}()
	}
}

func TestIntervalBasics(t *testing.T) {
	iv := Interval{Low: 0.2, High: 0.5}
	if iv.Width() != 0.3 {
		t.Errorf("width = %v", iv.Width())
	}
	if !iv.Contains(0.2) || !iv.Contains(0.5) || iv.Contains(0.51) || iv.Contains(0.19) {
		t.Errorf("Contains boundaries wrong")
	}
}

func TestConfidenceIntervalDegenerateSampleSizes(t *testing.T) {
	// i <= 3 must return the whole admissible range, not NaN.
	iv := FirstOrderCI(0.5, 3, 0.95)
	if iv.Low != -1 || iv.High != 1 {
		t.Errorf("first CI at i=3: %+v", iv)
	}
	iv = TotalOrderCI(0.5, 2, 0.95)
	if iv.Low != 0 || iv.High != 2 {
		t.Errorf("total CI at i=2: %+v", iv)
	}
}

func TestConfidenceIntervalBoundaryEstimates(t *testing.T) {
	// Estimates at the correlation boundary must yield finite intervals.
	for _, s := range []float64{1, -1, 1.0000001, -1.0000001} {
		iv := FirstOrderCI(s, 100, 0.95)
		if math.IsNaN(iv.Low) || math.IsNaN(iv.High) || math.IsInf(iv.Low, 0) || math.IsInf(iv.High, 0) {
			t.Errorf("first CI at s=%v not finite: %+v", s, iv)
		}
	}
	iv := TotalOrderCI(0, 100, 0.95) // 1−ST = 1 boundary
	if math.IsNaN(iv.Low) || math.IsNaN(iv.High) {
		t.Errorf("total CI at st=0 not finite: %+v", iv)
	}
}

func TestConfidenceIntervalShrinksAsSqrtN(t *testing.T) {
	// Eq. 8: the Fisher half-width is z/sqrt(i-3), so quadrupling i-3
	// halves the width.
	w100 := FirstOrderCI(0.4, 103, 0.95).Width()
	w400 := FirstOrderCI(0.4, 403, 0.95).Width()
	ratio := w100 / w400
	if math.Abs(ratio-2) > 0.05 {
		t.Errorf("width ratio for 4x samples = %v, want ~2", ratio)
	}
}

func TestConfidenceIntervalContainsEstimate(t *testing.T) {
	for _, s := range []float64{-0.9, -0.3, 0, 0.2, 0.7, 0.99} {
		iv := FirstOrderCI(s, 50, 0.95)
		if !iv.Contains(s) {
			t.Errorf("first CI %+v does not contain its own estimate %v", iv, s)
		}
	}
	for _, st := range []float64{0.01, 0.3, 0.9, 1.2} {
		iv := TotalOrderCI(st, 50, 0.95)
		if !iv.Contains(st) {
			t.Errorf("total CI %+v does not contain its own estimate %v", iv, st)
		}
	}
}

// Empirical coverage of the 95% CI. The Fisher interval (Eq. 8-9) is exact
// only for Gaussian outputs — the paper states this caveat explicitly — so
// the strict coverage check uses the linear-Gaussian model, and Ishigami
// (non-Gaussian) is held to the paper's weaker "good overview" standard.
func TestConfidenceIntervalCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("coverage study skipped in -short")
	}
	const trials = 120
	const n = 400
	coverage := func(fn *Function, k int) (first, total float64) {
		cf, ct := 0, 0
		for trial := 0; trial < trials; trial++ {
			m := NewMartinez(fn.P())
			Estimate(fn, n, uint64(1000+trial), m)
			if m.FirstCI(k, 0.95).Contains(fn.ExactFirst[k]) {
				cf++
			}
			if m.TotalCI(k, 0.95).Contains(fn.ExactTotal[k]) {
				ct++
			}
		}
		return float64(cf) / trials, float64(ct) / trials
	}

	// Gaussian outputs: coverage should be close to nominal.
	gauss := LinearNormal([]float64{1, 2, 0.5}, []float64{1, 1, 1})
	fc, tc := coverage(gauss, 1)
	if fc < 0.88 {
		t.Errorf("gaussian first-order CI coverage %.2f < 0.88", fc)
	}
	if tc < 0.88 {
		t.Errorf("gaussian total-order CI coverage %.2f < 0.88", tc)
	}

	// Non-Gaussian outputs: the interval remains a usable accuracy gauge.
	ish := Ishigami()
	fc, tc = coverage(ish, 0)
	if fc < 0.60 {
		t.Errorf("ishigami first-order CI coverage %.2f < 0.60", fc)
	}
	if tc < 0.60 {
		t.Errorf("ishigami total-order CI coverage %.2f < 0.60", tc)
	}
}

func TestMartinezConvergedStoppingRule(t *testing.T) {
	fn := Ishigami()
	m := NewMartinez(fn.P())
	if m.Converged(0.95, 0.5) {
		t.Fatal("empty estimator cannot be converged")
	}
	Estimate(fn, 50, 5, m)
	wide := m.MaxCIWidth(0.95)
	Estimate(fn, 5000, 6, m) // keep folding more groups
	narrow := m.MaxCIWidth(0.95)
	if narrow >= wide {
		t.Errorf("CI width did not shrink: %v -> %v", wide, narrow)
	}
	if !m.Converged(0.95, wide) {
		t.Errorf("estimator should be converged at the earlier width %v (now %v)", wide, narrow)
	}
	if m.Converged(0.95, narrow/10) {
		t.Errorf("estimator cannot be converged at width %v", narrow/10)
	}
}
