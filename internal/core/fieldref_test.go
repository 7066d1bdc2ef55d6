package core_test

// The plain, one-array-per-statistic trackers: the reference the equivalence
// tests fold beside core's interleaved records. core keeps the same per-cell
// state as record slots and updates it inside its one fused sweep; these
// hold it in separate arrays and read out through the same internal/stats
// functions, so the two sides must agree bitwise.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"melissa/internal/stats"
)

// fieldMoments accumulates the first four central moments independently for
// every cell of a field, with a single shared sample count. This is the
// layout used by Melissa Server for ubiquitous statistics: one sample is a
// whole spatial field produced by one simulation at one timestep.
//
// Memory is 4 float64 per cell regardless of the number of samples — the
// O(1)-in-n property that lets the server discard simulation outputs
// immediately after the update (Sec. 3.1).
type fieldMoments struct {
	n     int64
	means []float64
	m2    []float64
	m3    []float64
	m4    []float64
}

// newFieldMoments returns an accumulator for fields of the given cell count.
func newFieldMoments(cells int) *fieldMoments {
	return &fieldMoments{
		means: make([]float64, cells),
		m2:    make([]float64, cells),
		m3:    make([]float64, cells),
		m4:    make([]float64, cells),
	}
}

// Cells returns the number of cells per sample field.
func (f *fieldMoments) Cells() int { return len(f.means) }

// N returns the number of sample fields folded in.
func (f *fieldMoments) N() int64 { return f.n }

// Update folds one sample field. len(values) must equal Cells().
func (f *fieldMoments) Update(values []float64) {
	if len(values) != len(f.means) {
		panic(fmt.Sprintf("field of %d cells updated with %d values", len(f.means), len(values)))
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
func (f *fieldMoments) Mean(i int) float64 { return f.means[i] }

// Variance returns the unbiased variance of cell i (0 for n < 2).
func (f *fieldMoments) Variance(i int) float64 {
	if f.n < 2 {
		return 0
	}
	return f.m2[i] / float64(f.n-1)
}

// Skewness returns the sample skewness of cell i (0 when undefined).
func (f *fieldMoments) Skewness(i int) float64 { return stats.Skewness(f.n, f.m2[i], f.m3[i]) }

// Kurtosis returns the sample excess kurtosis of cell i (0 when undefined).
func (f *fieldMoments) Kurtosis(i int) float64 { return stats.Kurtosis(f.n, f.m2[i], f.m4[i]) }

// MeanField appends the per-cell means to dst (allocating if dst is nil).
func (f *fieldMoments) MeanField(dst []float64) []float64 {
	dst = ensureLen(dst, len(f.means))
	copy(dst, f.means)
	return dst
}

// VarianceField writes the per-cell unbiased variances into dst.
func (f *fieldMoments) VarianceField(dst []float64) []float64 {
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

// fieldMinMax tracks per-cell running min and max.
type fieldMinMax struct {
	n   int64
	min []float64
	max []float64
}

// newFieldMinMax returns a per-cell min/max tracker.
func newFieldMinMax(cells int) *fieldMinMax {
	f := &fieldMinMax{
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
func (f *fieldMinMax) N() int64 { return f.n }

// Update folds one sample field.
func (f *fieldMinMax) Update(values []float64) {
	if len(values) != len(f.min) {
		panic("fieldMinMax dimension mismatch")
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
func (f *fieldMinMax) Min(i int) float64 { return f.min[i] }

// Max returns the running maximum of cell i.
func (f *fieldMinMax) Max(i int) float64 { return f.max[i] }

// fieldExceedance counts, per cell, how many sample fields exceeded a
// threshold.
type fieldExceedance struct {
	Threshold float64
	n         int64
	counts    []int64
}

// newFieldExceedance returns a per-cell exceedance counter.
func newFieldExceedance(cells int, threshold float64) *fieldExceedance {
	return &fieldExceedance{Threshold: threshold, counts: make([]int64, cells)}
}

// N returns the number of sample fields folded in.
func (f *fieldExceedance) N() int64 { return f.n }

// Update folds one sample field.
func (f *fieldExceedance) Update(values []float64) {
	if len(values) != len(f.counts) {
		panic("fieldExceedance dimension mismatch")
	}
	f.n++
	for i, x := range values {
		if x > f.Threshold {
			f.counts[i]++
		}
	}
}

// Probability returns the exceedance fraction at cell i.
func (f *fieldExceedance) Probability(i int) float64 {
	return stats.ExceedanceProbability(float64(f.counts[i]), f.n)
}

func ensureLen(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

func randomFields(rng *rand.Rand, samples, cells int) [][]float64 {
	out := make([][]float64, samples)
	for s := range out {
		f := make([]float64, cells)
		for i := range f {
			f[i] = rng.NormFloat64()*float64(i+1) + float64(i)
		}
		out[s] = f
	}
	return out
}

func almostEqual(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	scale := math.Max(1, math.Max(math.Abs(got), math.Abs(want)))
	if math.IsNaN(got) || math.Abs(got-want) > tol*scale {
		t.Errorf("%s: got %v, want %v (tol %v)", name, got, want, tol)
	}
}

func TestFieldMomentsMatchesScalarPerCell(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	const cells = 13
	fields := randomFields(rng, 200, cells)

	fm := newFieldMoments(cells)
	scalar := make([]stats.Moments, cells)
	for _, f := range fields {
		fm.Update(f)
		for i, v := range f {
			scalar[i].Update(v)
		}
	}
	if fm.N() != 200 || fm.Cells() != cells {
		t.Fatalf("n=%d cells=%d", fm.N(), fm.Cells())
	}
	for i := 0; i < cells; i++ {
		almostEqual(t, "mean", fm.Mean(i), scalar[i].Mean(), 1e-12)
		almostEqual(t, "variance", fm.Variance(i), scalar[i].Variance(), 1e-10)
		almostEqual(t, "skewness", fm.Skewness(i), scalar[i].Skewness(), 1e-8)
		almostEqual(t, "kurtosis", fm.Kurtosis(i), scalar[i].Kurtosis(), 1e-8)
	}
}

// Property: field moments agree with independent scalar accumulators for
// each cell, for arbitrary field streams.
func TestQuickFieldMatchesScalar(t *testing.T) {
	type sample struct{ A, B, C float64 }
	bounded := func(x float64) float64 { // finite, moderate magnitude
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		return math.Mod(x, 1e6)
	}
	f := func(samples []sample) bool {
		fm := newFieldMoments(3)
		var sc [3]stats.Moments
		for _, s := range samples {
			vals := []float64{bounded(s.A), bounded(s.B), bounded(s.C)}
			fm.Update(vals)
			for i, v := range vals {
				sc[i].Update(v)
			}
		}
		for i := 0; i < 3; i++ {
			mscale := math.Max(1, math.Abs(sc[i].Mean()))
			if math.Abs(fm.Mean(i)-sc[i].Mean()) > 1e-9*mscale {
				return false
			}
			vscale := math.Max(1, sc[i].Variance())
			if math.Abs(fm.Variance(i)-sc[i].Variance()) > 1e-7*vscale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFieldMomentsDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on dimension mismatch")
		}
	}()
	fm := newFieldMoments(4)
	fm.Update([]float64{1, 2, 3})
}

func TestFieldMomentsBulkExports(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const cells = 9
	fm := newFieldMoments(cells)
	for _, f := range randomFields(rng, 50, cells) {
		fm.Update(f)
	}
	means := fm.MeanField(nil)
	vars := fm.VarianceField(nil)
	if len(means) != cells || len(vars) != cells {
		t.Fatalf("export lengths %d/%d", len(means), len(vars))
	}
	for i := 0; i < cells; i++ {
		if means[i] != fm.Mean(i) || vars[i] != fm.Variance(i) {
			t.Fatalf("bulk export disagrees with per-cell accessors at %d", i)
		}
	}
	// Reuse of a destination slice must not allocate a new one.
	same := fm.VarianceField(vars)
	if &same[0] != &vars[0] {
		t.Fatalf("VarianceField reallocated despite sufficient capacity")
	}
}

func TestFieldMinMaxAndExceedance(t *testing.T) {
	mm := newFieldMinMax(3)
	ex := newFieldExceedance(3, 1.0)
	fields := [][]float64{
		{0.5, 2.0, -1.0},
		{1.5, 0.1, 3.0},
		{0.9, 1.1, 0.0},
	}
	for _, f := range fields {
		mm.Update(f)
		ex.Update(f)
	}
	if mm.Min(0) != 0.5 || mm.Max(0) != 1.5 {
		t.Errorf("cell 0 min/max = %v/%v", mm.Min(0), mm.Max(0))
	}
	if mm.Min(2) != -1 || mm.Max(2) != 3 {
		t.Errorf("cell 2 min/max = %v/%v", mm.Min(2), mm.Max(2))
	}
	wantProb := []float64{1.0 / 3, 2.0 / 3, 1.0 / 3}
	for i, w := range wantProb {
		if math.Abs(ex.Probability(i)-w) > 1e-15 {
			t.Errorf("cell %d exceedance = %v, want %v", i, ex.Probability(i), w)
		}
	}
}

// One-cell contracts: ±Inf identity when empty, strictly-greater
// exceedance.

func TestMinMax(t *testing.T) {
	m := newFieldMinMax(1)
	if !math.IsInf(m.Min(0), 1) || !math.IsInf(m.Max(0), -1) {
		t.Fatalf("empty fieldMinMax not ±Inf")
	}
	for _, v := range []float64{3, -1, 7, 2} {
		m.Update([]float64{v})
	}
	if m.Min(0) != -1 || m.Max(0) != 7 || m.N() != 4 {
		t.Fatalf("got min=%v max=%v n=%d", m.Min(0), m.Max(0), m.N())
	}
}

func TestExceedance(t *testing.T) {
	e := newFieldExceedance(1, 0.5)
	for _, v := range []float64{0.1, 0.6, 0.5, 0.9, 0.2} {
		e.Update([]float64{v})
	}
	// Strictly greater: 0.5 itself does not exceed.
	almostEqual(t, "probability", e.Probability(0), 0.4, 1e-15)
	if e.N() != 5 || e.Probability(0) != stats.ExceedanceProbability(2, 5) {
		t.Fatalf("n=%d probability=%v", e.N(), e.Probability(0))
	}
	if stats.ExceedanceProbability(0, 0) != 0 {
		t.Fatalf("empty stream probability not 0")
	}
}
