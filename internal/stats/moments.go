package stats

import "math"

// Moments is a one-pass accumulator for the first four central moments of a
// stream of float64 samples. The zero value is an empty accumulator ready
// for use.
//
// It yields the sample mean, unbiased variance, standard deviation,
// skewness and excess kurtosis at any point of the stream.
type Moments struct {
	n    int64
	mean float64
	m2   float64 // sum of squared deviations
	m3   float64 // third central co-moment sum
	m4   float64 // fourth central co-moment sum
}

// Update folds one sample into the accumulator (Pébay 2008, Eq. 1.2-1.6).
func (m *Moments) Update(x float64) {
	n1 := float64(m.n)
	m.n++
	n := float64(m.n)
	delta := x - m.mean
	deltaN := delta / n
	deltaN2 := deltaN * deltaN
	term1 := delta * deltaN * n1
	m.mean += deltaN
	m.m4 += term1*deltaN2*(n*n-3*n+3) + 6*deltaN2*m.m2 - 4*deltaN*m.m3
	m.m3 += term1*deltaN*(n-2) - 3*deltaN*m.m2
	m.m2 += term1
}

// N returns the number of samples seen.
func (m *Moments) N() int64 { return m.n }

// Mean returns the sample mean, or 0 for an empty accumulator.
func (m *Moments) Mean() float64 { return m.mean }

// Variance returns the unbiased sample variance (divide by n-1), the
// estimator V(x) used throughout the paper. It returns 0 for n < 2.
func (m *Moments) Variance() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// Skewness returns the sample skewness (see the Skewness function).
func (m *Moments) Skewness() float64 { return Skewness(m.n, m.m2, m.m3) }

// Kurtosis returns the sample excess kurtosis (see the Kurtosis function).
func (m *Moments) Kurtosis() float64 { return Kurtosis(m.n, m.m2, m.m4) }

// Skewness is the sample skewness g1 = sqrt(n) * m3 / m2^(3/2) of n samples
// with central-moment sums m2 and m3, 0 when undefined (n < 2 or zero
// variance). Moments, internal/core's per-cell tracker slots and the
// reference tracker core's equivalence tests fold beside them all read
// through this one form, so they agree bitwise.
func Skewness(n int64, m2, m3 float64) float64 {
	if n < 2 || m2 == 0 {
		return 0
	}
	return math.Sqrt(float64(n)) * m3 / math.Pow(m2, 1.5)
}

// Kurtosis is the sample excess kurtosis g2 = n*m4/m2^2 - 3, 0 when
// undefined; shared like Skewness.
func Kurtosis(n int64, m2, m4 float64) float64 {
	if n < 2 || m2 == 0 {
		return 0
	}
	return float64(n)*m4/(m2*m2) - 3
}

// ExceedanceProbability is the fraction count/n of n samples that exceeded
// the threshold (0 for an empty stream). The count is a float64 because
// internal/core keeps it in a float64 record slot (integral, exact below
// 2^53); core's ExceedanceField and the reference tracker its equivalence
// tests fold beside it both read through this, so they agree bitwise.
func ExceedanceProbability(count float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return count / float64(n)
}

// Reset returns the accumulator to its empty state.
func (m *Moments) Reset() { *m = Moments{} }
