package stats

import "math"

// Covariance is a one-pass accumulator for the covariance of a stream of
// paired samples (x, y). The zero value is ready for use.
//
// The Martinez Sobol' estimator (Eq. 5-6 of the paper) is a ratio of one
// covariance and two standard deviations, all of which this accumulator
// tracks, so a single Covariance per (cell, input-parameter) pair is the
// entire server-side state needed for one Sobol' index.
type Covariance struct {
	n     int64
	meanX float64
	meanY float64
	c2    float64 // sum of co-deviations
	m2x   float64 // sum of squared deviations of x
	m2y   float64 // sum of squared deviations of y
}

// Update folds one (x, y) pair into the accumulator using the numerically
// stable single-pass form (Pébay 2008, Eq. 3.4).
func (c *Covariance) Update(x, y float64) {
	c.n++
	n := float64(c.n)
	dx := x - c.meanX
	dy := y - c.meanY
	c.meanX += dx / n
	c.meanY += dy / n
	// dx is the deviation from the *old* meanX; (y - c.meanY) uses the
	// *new* meanY. Their product increments the co-moment exactly.
	c.c2 += dx * (y - c.meanY)
	c.m2x += dx * (x - c.meanX)
	c.m2y += dy * (y - c.meanY)
}

// Merge folds the pairs summarized by other into c.
func (c *Covariance) Merge(other Covariance) {
	if other.n == 0 {
		return
	}
	if c.n == 0 {
		*c = other
		return
	}
	na := float64(c.n)
	nb := float64(other.n)
	nx := na + nb
	dx := other.meanX - c.meanX
	dy := other.meanY - c.meanY

	c.c2 += other.c2 + dx*dy*na*nb/nx
	c.m2x += other.m2x + dx*dx*na*nb/nx
	c.m2y += other.m2y + dy*dy*na*nb/nx
	c.meanX += dx * nb / nx
	c.meanY += dy * nb / nx
	c.n += other.n
}

// N returns the number of pairs seen.
func (c *Covariance) N() int64 { return c.n }

// MeanX returns the sample mean of the first component.
func (c *Covariance) MeanX() float64 { return c.meanX }

// MeanY returns the sample mean of the second component.
func (c *Covariance) MeanY() float64 { return c.meanY }

// Cov returns the unbiased sample covariance (divide by n-1), the estimator
// Cov(x, y) referenced by the paper. It returns 0 for n < 2.
func (c *Covariance) Cov() float64 {
	if c.n < 2 {
		return 0
	}
	return c.c2 / float64(c.n-1)
}

// VarX returns the unbiased variance of the first component.
func (c *Covariance) VarX() float64 {
	if c.n < 2 {
		return 0
	}
	return c.m2x / float64(c.n-1)
}

// VarY returns the unbiased variance of the second component.
func (c *Covariance) VarY() float64 {
	if c.n < 2 {
		return 0
	}
	return c.m2y / float64(c.n-1)
}

// Correlation returns the Pearson correlation coefficient, or 0 when either
// variance vanishes. The Martinez first-order Sobol' estimate of Eq. 5 *is*
// the correlation between Y^B and Y^Ck.
func (c *Covariance) Correlation() float64 {
	if c.n < 2 || c.m2x == 0 || c.m2y == 0 {
		return 0
	}
	// sqrt(a*b) would overflow sooner than the two-factor form.
	return c.c2 / (math.Sqrt(c.m2x) * math.Sqrt(c.m2y))
}

// Reset returns the accumulator to its empty state.
func (c *Covariance) Reset() { *c = Covariance{} }
