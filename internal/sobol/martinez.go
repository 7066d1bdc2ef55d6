package sobol

import (
	"fmt"

	"melissa/internal/stats"
)

// Estimator is the common interface of all iterative Sobol' estimators for a
// scalar output. One Update call consumes the p+2 outputs of one simulation
// group (Sec. 3.3): yA = f(A_i), yB = f(B_i), yC[k] = f(C^k_i).
type Estimator interface {
	// Update folds the outputs of one simulation group. len(yC) must be p.
	Update(yA, yB float64, yC []float64)
	// First returns the current first-order index estimate for parameter k.
	First(k int) float64
	// Total returns the current total-order index estimate for parameter k.
	Total(k int) float64
	// P returns the number of input parameters.
	P() int
	// N returns the number of groups folded in so far.
	N() int64
	// Name identifies the estimator ("martinez", "jansen", "saltelli").
	Name() string
}

// Martinez is the iterative Martinez estimator (Eq. 5-7 of the paper) with
// asymptotic confidence intervals (Eq. 8-9). The zero value is unusable;
// construct with NewMartinez.
type Martinez struct {
	// covBC[k] tracks Cov(Y^B, Y^Ck) plus both variances → S_k.
	covBC []stats.Covariance
	// covAC[k] tracks Cov(Y^A, Y^Ck) plus both variances → ST_k.
	covAC []stats.Covariance
	n     int64
}

var _ Estimator = (*Martinez)(nil)

// NewMartinez returns a Martinez estimator for p input parameters.
func NewMartinez(p int) *Martinez {
	if p < 1 {
		panic("sobol: need at least one parameter")
	}
	return &Martinez{
		covBC: make([]stats.Covariance, p),
		covAC: make([]stats.Covariance, p),
	}
}

// Name implements Estimator.
func (m *Martinez) Name() string { return "martinez" }

// P implements Estimator.
func (m *Martinez) P() int { return len(m.covBC) }

// N implements Estimator.
func (m *Martinez) N() int64 { return m.n }

// Update implements Estimator.
func (m *Martinez) Update(yA, yB float64, yC []float64) {
	if len(yC) != len(m.covBC) {
		panic(fmt.Sprintf("sobol: update with %d C-outputs, want %d", len(yC), len(m.covBC)))
	}
	for k, y := range yC {
		m.covBC[k].Update(yB, y)
		m.covAC[k].Update(yA, y)
	}
	m.n++
}

// First implements Estimator: S_k = Corr(Y^B, Y^Ck) (Eq. 5).
func (m *Martinez) First(k int) float64 { return m.covBC[k].Correlation() }

// Total implements Estimator: ST_k = 1 − Corr(Y^A, Y^Ck) (Eq. 6).
// It reports 0 until at least two groups have arrived (no estimate yet).
func (m *Martinez) Total(k int) float64 {
	if m.n < 2 {
		return 0
	}
	return 1 - m.covAC[k].Correlation()
}

// FirstCI returns the asymptotic confidence interval for S_k at the given
// confidence level (Eq. 8; level 0.95 gives the paper's 1.96 bound).
func (m *Martinez) FirstCI(k int, level float64) Interval {
	return FirstOrderCI(m.First(k), m.n, level)
}

// TotalCI returns the asymptotic confidence interval for ST_k (Eq. 9).
func (m *Martinez) TotalCI(k int, level float64) Interval {
	return TotalOrderCI(m.Total(k), m.n, level)
}
