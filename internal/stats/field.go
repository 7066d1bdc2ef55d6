package stats

import (
	"fmt"
	"math"
)

// FieldMoments accumulates the first four central moments independently for
// every cell of a field, with a single shared sample count. This is the
// layout used by Melissa Server for ubiquitous statistics: one sample is a
// whole spatial field produced by one simulation at one timestep.
//
// Memory is 4 float64 per cell regardless of the number of samples — the
// O(1)-in-n property that lets the server discard simulation outputs
// immediately after the update (Sec. 3.1).
type FieldMoments struct {
	n     int64
	means []float64
	m2    []float64
	m3    []float64
	m4    []float64
}

// NewFieldMoments returns an accumulator for fields of the given cell count.
func NewFieldMoments(cells int) *FieldMoments {
	return &FieldMoments{
		means: make([]float64, cells),
		m2:    make([]float64, cells),
		m3:    make([]float64, cells),
		m4:    make([]float64, cells),
	}
}

// Cells returns the number of cells per sample field.
func (f *FieldMoments) Cells() int { return len(f.means) }

// N returns the number of sample fields folded in.
func (f *FieldMoments) N() int64 { return f.n }

// Update folds one sample field. len(values) must equal Cells().
func (f *FieldMoments) Update(values []float64) {
	if len(values) != len(f.means) {
		panic(fmt.Sprintf("stats: field of %d cells updated with %d values", len(f.means), len(values)))
	}
	n1 := float64(f.n)
	f.n++
	n := float64(f.n)
	nn3n3 := n*n - 3*n + 3
	for i, x := range values {
		delta := x - f.means[i]
		deltaN := delta / n
		deltaN2 := deltaN * deltaN
		term1 := delta * deltaN * n1
		f.means[i] += deltaN
		f.m4[i] += term1*deltaN2*nn3n3 + 6*deltaN2*f.m2[i] - 4*deltaN*f.m3[i]
		f.m3[i] += term1*deltaN*(n-2) - 3*deltaN*f.m2[i]
		f.m2[i] += term1
	}
}

// Mean returns the running mean of cell i.
func (f *FieldMoments) Mean(i int) float64 { return f.means[i] }

// Variance returns the unbiased variance of cell i (0 for n < 2).
func (f *FieldMoments) Variance(i int) float64 {
	if f.n < 2 {
		return 0
	}
	return f.m2[i] / float64(f.n-1)
}

// Skewness returns the sample skewness of cell i (0 when undefined).
func (f *FieldMoments) Skewness(i int) float64 { return Skewness(f.n, f.m2[i], f.m3[i]) }

// Kurtosis returns the sample excess kurtosis of cell i (0 when undefined).
func (f *FieldMoments) Kurtosis(i int) float64 { return Kurtosis(f.n, f.m2[i], f.m4[i]) }

// MeanField appends the per-cell means to dst (allocating if dst is nil).
func (f *FieldMoments) MeanField(dst []float64) []float64 {
	dst = ensureLen(dst, len(f.means))
	copy(dst, f.means)
	return dst
}

// VarianceField writes the per-cell unbiased variances into dst.
func (f *FieldMoments) VarianceField(dst []float64) []float64 {
	dst = ensureLen(dst, len(f.m2))
	if f.n < 2 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	div := float64(f.n - 1)
	for i, v := range f.m2 {
		dst[i] = v / div
	}
	return dst
}

// FieldMinMax tracks per-cell running min and max.
type FieldMinMax struct {
	n   int64
	min []float64
	max []float64
}

// NewFieldMinMax returns a per-cell min/max tracker.
func NewFieldMinMax(cells int) *FieldMinMax {
	f := &FieldMinMax{
		min: make([]float64, cells),
		max: make([]float64, cells),
	}
	for i := range f.min {
		f.min[i] = math.Inf(1)
		f.max[i] = math.Inf(-1)
	}
	return f
}

// N returns the number of sample fields folded in.
func (f *FieldMinMax) N() int64 { return f.n }

// Update folds one sample field.
func (f *FieldMinMax) Update(values []float64) {
	if len(values) != len(f.min) {
		panic("stats: FieldMinMax dimension mismatch")
	}
	f.n++
	for i, x := range values {
		if x < f.min[i] {
			f.min[i] = x
		}
		if x > f.max[i] {
			f.max[i] = x
		}
	}
}

// Min returns the running minimum of cell i.
func (f *FieldMinMax) Min(i int) float64 { return f.min[i] }

// Max returns the running maximum of cell i.
func (f *FieldMinMax) Max(i int) float64 { return f.max[i] }

// FieldExceedance counts, per cell, how many sample fields exceeded a
// threshold.
type FieldExceedance struct {
	Threshold float64
	n         int64
	counts    []int64
}

// NewFieldExceedance returns a per-cell exceedance counter.
func NewFieldExceedance(cells int, threshold float64) *FieldExceedance {
	return &FieldExceedance{Threshold: threshold, counts: make([]int64, cells)}
}

// N returns the number of sample fields folded in.
func (f *FieldExceedance) N() int64 { return f.n }

// Update folds one sample field.
func (f *FieldExceedance) Update(values []float64) {
	if len(values) != len(f.counts) {
		panic("stats: FieldExceedance dimension mismatch")
	}
	f.n++
	for i, x := range values {
		if x > f.Threshold {
			f.counts[i]++
		}
	}
}

// Probability returns the exceedance fraction at cell i.
func (f *FieldExceedance) Probability(i int) float64 {
	return ExceedanceProbability(float64(f.counts[i]), f.n)
}

// ExceedanceProbability is the fraction count/n of n samples that exceeded
// the threshold (0 for an empty stream). The count is a float64 because
// internal/core keeps it in a float64 record slot (integral, exact below
// 2^53); FieldExceedance and core's ExceedanceField both read through this,
// so they agree bitwise.
func ExceedanceProbability(count float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return count / float64(n)
}

func ensureLen(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}
