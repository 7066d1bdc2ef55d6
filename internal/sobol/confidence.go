package sobol

import "math"

// Interval is a closed confidence interval [Low, High].
type Interval struct {
	Low, High float64
}

// Width returns High − Low.
func (iv Interval) Width() float64 { return iv.High - iv.Low }

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v float64) bool { return v >= iv.Low && v <= iv.High }

// zQuantile returns the two-sided standard normal quantile for the given
// confidence level: 1.96 for 0.95, 1.645 for 0.90, 2.576 for 0.99.
// Implemented with the Acklam rational approximation of the inverse normal
// CDF (relative error < 1.15e-9), evaluated at (1+level)/2.
func zQuantile(level float64) float64 {
	if level <= 0 || level >= 1 {
		panic("sobol: confidence level must be in (0,1)")
	}
	return invNormCDF((1 + level) / 2)
}

// invNormCDF computes the inverse of the standard normal CDF.
func invNormCDF(p float64) float64 {
	// Coefficients of Acklam's approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}

	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// CI evaluates Eq. 8/9 confidence intervals at one sample count and one
// confidence level. Everything the intervals share there — the normal quantile
// z_α and the Fisher half-width h = z_α/√(i−3) — is computed once by NewCI, so
// a scan over many estimates of the same (i, level) pays per estimate only for
// atanh and two tanh. FirstOrderCI and TotalOrderCI are NewCI(...).First and
// .Total: one expression sequence, so a hoisted CI returns bitwise the floats
// the per-call API returns.
type CI struct {
	h float64
	// wide marks i ≤ 3, where the interval is the whole admissible range.
	wide bool
}

// NewCI prepares the intervals of estimates computed from i groups.
func NewCI(i int64, level float64) CI {
	if i <= 3 {
		return CI{wide: true}
	}
	z := zQuantile(level)
	return CI{h: z / math.Sqrt(float64(i-3))}
}

// First implements Eq. 8: the Fisher z-transform interval for a first-order
// index S_k, which under Martinez is a correlation coefficient:
//
//	[ tanh(atanh(S) − z/√(i−3)), tanh(atanh(S) + z/√(i−3)) ]
//
// For i ≤ 3 the interval is the whole admissible range [−1, 1].
func (c CI) First(s float64) Interval {
	if c.wide {
		return Interval{-1, 1}
	}
	zs := atanhClamped(s)
	return Interval{Low: math.Tanh(zs - c.h), High: math.Tanh(zs + c.h)}
}

// Total implements Eq. 9. With ρ = 1 − ST the correlation of Eq. 6,
// ½·log((2−ST)/ST) = atanh(1−ST), giving
//
//	[ 1 − tanh(atanh(1−ST) + z/√(i−3)), 1 − tanh(atanh(1−ST) − z/√(i−3)) ]
func (c CI) Total(st float64) Interval {
	if c.wide {
		return Interval{0, 2}
	}
	zr := atanhClamped(1 - st)
	return Interval{Low: 1 - math.Tanh(zr+c.h), High: 1 - math.Tanh(zr-c.h)}
}

// widthErr bounds the absolute rounding error of a computed interval width:
// two tanh (< 2.3 ulp of a value ≤ 1 each), atanh and the z±h sums carried
// through tanh' ≤ 1, the two 1−tanh of the total-order form and the final
// subtraction come to under 1.5e-15; the bound leaves a factor of six.
const widthErr = 1e-14

// Guard turns the smallest ρ̂² of a set of estimates at this (i, level) into
// the bound on ρ̂² above which an estimate's computed width cannot be the
// widest of the set (ρ̂ is S_k for First and 1 − ST_k for Total, capped at
// ClampMax like the intervals clamp it). The exact width is
//
//	w(ρ) = tanh(atanh ρ + h) − tanh(atanh ρ − h) = 2τ(1−ρ²)/(1−ρ²τ²), τ = tanh h,
//
// decreasing in ρ² with slope at least 2τ(1−τ²) everywhere, so an estimate
// with ρ² > minSq + widthErr/(τ(1−τ²)) is narrower than the minimum's by more
// than twice the rounding error and loses the maximum of the computed widths.
// Stating the band in ρ² is what keeps it sound at ρ = 0, where w is flat in
// ρ. For i ≤ 3 every width is the same and the bound is +Inf.
func (c CI) Guard(minSq float64) float64 {
	if c.wide {
		return math.Inf(1)
	}
	tau := math.Tanh(c.h)
	return minSq + widthErr/(tau*(1-tau*tau))
}

// ClampMax is the largest |ρ̂| the intervals evaluate: estimates at or beyond
// ±1 (possible early in a stream) are moved to ±ClampMax so the transform
// stays finite.
const ClampMax = 1 - 1e-12

// FirstOrderCI returns the Eq. 8 confidence interval for a first-order
// index estimate s computed from i groups. Exported for the ubiquitous
// (field) accumulator, which stores raw moments rather than Martinez values.
func FirstOrderCI(s float64, i int64, level float64) Interval {
	return NewCI(i, level).First(s)
}

// TotalOrderCI returns the Eq. 9 confidence interval for a total-order index
// estimate st computed from i groups.
func TotalOrderCI(st float64, i int64, level float64) Interval {
	return NewCI(i, level).Total(st)
}

// atanhClamped evaluates atanh with the argument clamped into (−1, 1) so
// that boundary estimates (|ρ| = 1, possible early in a stream) yield a
// large-but-finite transform instead of ±Inf.
func atanhClamped(x float64) float64 {
	if x >= 1 {
		x = ClampMax
	}
	if x <= -1 {
		x = -ClampMax
	}
	return math.Atanh(x)
}
