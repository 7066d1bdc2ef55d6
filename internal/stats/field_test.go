package stats

import (
	"math"
	"math/rand"
	"testing"
)

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

func TestFieldMomentsMatchesScalarPerCell(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	const cells = 13
	fields := randomFields(rng, 200, cells)

	fm := NewFieldMoments(cells)
	scalar := make([]Moments, cells)
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

func TestFieldMomentsMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const cells = 7
	fields := randomFields(rng, 101, cells)

	a := NewFieldMoments(cells)
	b := NewFieldMoments(cells)
	all := NewFieldMoments(cells)
	for s, f := range fields {
		if s%3 == 0 {
			a.Update(f)
		} else {
			b.Update(f)
		}
	}
	// Interleave in original order for the reference.
	for _, f := range fields {
		all.Update(f)
	}
	a.Merge(b)
	if a.N() != all.N() {
		t.Fatalf("merged n=%d want %d", a.N(), all.N())
	}
	for i := 0; i < cells; i++ {
		almostEqual(t, "merged mean", a.Mean(i), all.Mean(i), 1e-12)
		almostEqual(t, "merged variance", a.Variance(i), all.Variance(i), 1e-9)
		almostEqual(t, "merged kurtosis", a.Kurtosis(i), all.Kurtosis(i), 1e-7)
	}
}

func TestFieldMomentsMergeIntoEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const cells = 5
	src := NewFieldMoments(cells)
	for _, f := range randomFields(rng, 10, cells) {
		src.Update(f)
	}
	dst := NewFieldMoments(cells)
	dst.Merge(src)
	for i := 0; i < cells; i++ {
		almostEqual(t, "copy mean", dst.Mean(i), src.Mean(i), 0)
		almostEqual(t, "copy var", dst.Variance(i), src.Variance(i), 0)
	}
	// Merging an empty accumulator is the identity.
	before := dst.Mean(0)
	dst.Merge(NewFieldMoments(cells))
	if dst.Mean(0) != before || dst.N() != src.N() {
		t.Fatalf("merge of empty changed state")
	}
}

func TestFieldMomentsDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on dimension mismatch")
		}
	}()
	fm := NewFieldMoments(4)
	fm.Update([]float64{1, 2, 3})
}

func TestFieldMomentsBulkExports(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const cells = 9
	fm := NewFieldMoments(cells)
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
	mm := NewFieldMinMax(3)
	ex := NewFieldExceedance(3, 1.0)
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

	mm2 := NewFieldMinMax(3)
	mm2.Update([]float64{-5, 10, 0})
	mm.Merge(mm2)
	if mm.Min(0) != -5 || mm.Max(1) != 10 {
		t.Errorf("after merge: min0=%v max1=%v", mm.Min(0), mm.Max(1))
	}

	ex2 := NewFieldExceedance(3, 1.0)
	ex2.Update([]float64{2, 2, 2})
	ex.Merge(ex2)
	if ex.N() != 4 {
		t.Fatalf("merged n = %d", ex.N())
	}
	if math.Abs(ex.Probability(0)-0.5) > 1e-15 {
		t.Errorf("merged exceedance cell0 = %v, want 0.5", ex.Probability(0))
	}
}
