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

// Merge folds the samples summarized by other into m, leaving other
// untouched. Merging is associative and commutative and matches sequential
// updates up to round-off (Chan et al. 1982; Pébay 2008 Sec. 3).
func (m *Moments) Merge(other Moments) {
	if other.n == 0 {
		return
	}
	if m.n == 0 {
		*m = other
		return
	}
	na := float64(m.n)
	nb := float64(other.n)
	nx := na + nb
	delta := other.mean - m.mean
	delta2 := delta * delta

	m4 := m.m4 + other.m4 +
		delta2*delta2*na*nb*(na*na-na*nb+nb*nb)/(nx*nx*nx) +
		6*delta2*(na*na*other.m2+nb*nb*m.m2)/(nx*nx) +
		4*delta*(na*other.m3-nb*m.m3)/nx
	m3 := m.m3 + other.m3 +
		delta*delta2*na*nb*(na-nb)/(nx*nx) +
		3*delta*(na*other.m2-nb*m.m2)/nx
	m2 := m.m2 + other.m2 + delta2*na*nb/nx

	m.mean += delta * nb / nx
	m.m2 = m2
	m.m3 = m3
	m.m4 = m4
	m.n += other.n
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

// PopulationVariance returns the biased (divide by n) variance.
func (m *Moments) PopulationVariance() float64 {
	if m.n < 1 {
		return 0
	}
	return m.m2 / float64(m.n)
}

// StdDev returns the square root of the unbiased variance.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// Skewness returns the sample skewness (see the Skewness function).
func (m *Moments) Skewness() float64 { return Skewness(m.n, m.m2, m.m3) }

// Kurtosis returns the sample excess kurtosis (see the Kurtosis function).
func (m *Moments) Kurtosis() float64 { return Kurtosis(m.n, m.m2, m.m4) }

// Skewness is the sample skewness g1 = sqrt(n) * m3 / m2^(3/2) of n samples
// with central-moment sums m2 and m3, 0 when undefined (n < 2 or zero
// variance). Moments, FieldMoments and internal/core's per-cell tracker
// slots all read through this one form, so they agree bitwise.
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

// SumSquaredDeviations exposes the raw M2 term; the Sobol' estimators use it
// to form variance ratios without the (n-1) factors cancelling incorrectly.
func (m *Moments) SumSquaredDeviations() float64 { return m.m2 }

// Reset returns the accumulator to its empty state.
func (m *Moments) Reset() { *m = Moments{} }
