package core

import (
	"math"
	"math/rand"
	"testing"

	"melissa/internal/enc"
	"melissa/internal/sobol"
)

// groupSample is the p+2 output fields of one group at one timestep.
type groupSample struct {
	yA, yB []float64
	yC     [][]float64
}

func randomGroups(rng *rand.Rand, n, cells, p int) []groupSample {
	out := make([]groupSample, n)
	field := func() []float64 {
		f := make([]float64, cells)
		for i := range f {
			f[i] = rng.NormFloat64()*2 + float64(i)*0.1
		}
		return f
	}
	for g := range out {
		s := groupSample{yA: field(), yB: field(), yC: make([][]float64, p)}
		for k := range s.yC {
			s.yC[k] = field()
		}
		out[g] = s
	}
	return out
}

func feedAll(a *Accumulator, t int, groups []groupSample) {
	for _, g := range groups {
		a.UpdateGroup(t, g.yA, g.yB, g.yC)
	}
}

func TestAccumulatorShape(t *testing.T) {
	a := NewAccumulator(10, 3, 4, Options{})
	if a.Cells() != 10 || a.Timesteps() != 3 || a.P() != 4 {
		t.Fatalf("shape %d/%d/%d", a.Cells(), a.Timesteps(), a.P())
	}
	if a.N(0) != 0 {
		t.Fatalf("fresh accumulator n = %d", a.N(0))
	}
	for _, bad := range []func(){
		func() { NewAccumulator(-1, 1, 1, Options{}) },
		func() { NewAccumulator(1, 0, 1, Options{}) },
		func() { NewAccumulator(1, 1, 0, Options{}) },
		func() { a.UpdateGroup(3, nil, nil, nil) },
		func() { a.UpdateGroup(0, make([]float64, 9), make([]float64, 10), make([][]float64, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			bad()
		}()
	}
}

// The accumulator must agree, cell by cell, with an independent scalar
// Martinez estimator — the ubiquitous computation is just p+2 streams per
// cell (Sec. 3.3).
func TestAccumulatorMatchesScalarMartinez(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	const cells, p, n = 7, 3, 64
	groups := randomGroups(rng, n, cells, p)

	a := NewAccumulator(cells, 1, p, Options{})
	feedAll(a, 0, groups)

	for i := 0; i < cells; i++ {
		ref := sobol.NewMartinez(p)
		yCk := make([]float64, p)
		for _, g := range groups {
			for k := 0; k < p; k++ {
				yCk[k] = g.yC[k][i]
			}
			ref.Update(g.yA[i], g.yB[i], yCk)
		}
		for k := 0; k < p; k++ {
			if d := math.Abs(a.FirstAt(0, k, i) - ref.First(k)); d > 1e-12 {
				t.Errorf("cell %d S%d differs from scalar by %v", i, k, d)
			}
			if d := math.Abs(a.TotalAt(0, k, i) - ref.Total(k)); d > 1e-12 {
				t.Errorf("cell %d ST%d differs from scalar by %v", i, k, d)
			}
		}
	}
}

func TestAccumulatorFieldsMatchPointQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const cells, p, n = 11, 2, 40
	a := NewAccumulator(cells, 2, p, Options{})
	feedAll(a, 0, randomGroups(rng, n, cells, p))
	feedAll(a, 1, randomGroups(rng, n, cells, p))

	for step := 0; step < 2; step++ {
		for k := 0; k < p; k++ {
			first := a.FirstField(step, k, nil)
			total := a.TotalField(step, k, nil)
			for i := 0; i < cells; i++ {
				if first[i] != a.FirstAt(step, k, i) {
					t.Fatalf("FirstField disagrees at (%d,%d,%d)", step, k, i)
				}
				if total[i] != a.TotalAt(step, k, i) {
					t.Fatalf("TotalField disagrees at (%d,%d,%d)", step, k, i)
				}
			}
		}
		variance := a.VarianceField(step, nil)
		interaction := a.InteractionField(step, nil)
		if len(variance) != cells || len(interaction) != cells {
			t.Fatal("field lengths wrong")
		}
	}
}

// Timesteps are independent: updating one step never touches another.
func TestAccumulatorTimestepIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const cells, p = 5, 2
	a := NewAccumulator(cells, 3, p, Options{})
	feedAll(a, 1, randomGroups(rng, 10, cells, p))
	if a.N(0) != 0 || a.N(2) != 0 || a.N(1) != 10 {
		t.Fatalf("n per step: %d %d %d", a.N(0), a.N(1), a.N(2))
	}
	for i := 0; i < cells; i++ {
		if a.FirstAt(0, 0, i) != 0 || a.TotalAt(2, 1, i) != 0 {
			t.Fatal("untouched timestep has non-zero indices")
		}
	}
}

func TestAccumulatorGroupOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const cells, p, n = 4, 2, 30
	groups := randomGroups(rng, n, cells, p)

	inOrder := NewAccumulator(cells, 1, p, Options{})
	shuffledAcc := NewAccumulator(cells, 1, p, Options{})
	feedAll(inOrder, 0, groups)
	perm := rand.New(rand.NewSource(7)).Perm(n)
	for _, gi := range perm {
		g := groups[gi]
		shuffledAcc.UpdateGroup(0, g.yA, g.yB, g.yC)
	}
	for k := 0; k < p; k++ {
		for i := 0; i < cells; i++ {
			if d := math.Abs(inOrder.FirstAt(0, k, i) - shuffledAcc.FirstAt(0, k, i)); d > 1e-9 {
				t.Errorf("order dependence at S%d cell %d: %v", k, i, d)
			}
		}
	}
}

func TestAccumulatorOptionalStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	th := 0.5
	a := NewAccumulator(3, 1, 2, Options{MinMax: true, Threshold: &th, HigherMoments: true})
	groups := randomGroups(rng, 20, 3, 2)
	feedAll(a, 0, groups)

	lo, hi := a.MinField(0, nil), a.MaxField(0, nil)
	ex := a.ExceedanceField(0, nil)
	if lo == nil || hi == nil || ex == nil || a.SkewnessField(0, nil) == nil || a.KurtosisField(0, nil) == nil {
		t.Fatal("optional statistics missing")
	}
	// Min/max and exceedance see 2 samples per group (A and B).
	if mmN, exN, hmN := a.TrackerSamples(0); mmN != 40 || exN != 40 || hmN != 40 {
		t.Fatalf("optional stat n = %d/%d/%d, want 40", mmN, exN, hmN)
	}
	for i := 0; i < 3; i++ {
		if lo[i] > hi[i] {
			t.Fatal("min > max")
		}
		if p := ex[i]; p < 0 || p > 1 {
			t.Fatalf("exceedance %v", p)
		}
	}
	// Disabled by default.
	b := NewAccumulator(3, 1, 2, Options{})
	if b.MinField(0, nil) != nil || b.MaxField(0, nil) != nil || b.ExceedanceField(0, nil) != nil ||
		b.SkewnessField(0, nil) != nil || b.KurtosisField(0, nil) != nil {
		t.Fatal("optional statistics enabled by default")
	}
}

func TestAccumulatorInteractionAdditiveModel(t *testing.T) {
	// For a purely additive per-cell model the interaction share 1 − ΣS_k
	// must approach 0 and total ≈ first.
	rng := rand.New(rand.NewSource(46))
	const cells, p, n = 3, 2, 6000
	a := NewAccumulator(cells, 1, p, Options{})
	eval := func(x1, x2 float64, cell int) float64 {
		return float64(cell+1)*x1 + 2*x2
	}
	yA := make([]float64, cells)
	yB := make([]float64, cells)
	yC := [][]float64{make([]float64, cells), make([]float64, cells)}
	for g := 0; g < n; g++ {
		a1, a2 := rng.NormFloat64(), rng.NormFloat64()
		b1, b2 := rng.NormFloat64(), rng.NormFloat64()
		for i := 0; i < cells; i++ {
			yA[i] = eval(a1, a2, i)
			yB[i] = eval(b1, b2, i)
			yC[0][i] = eval(b1, a2, i) // column 1 frozen from B
			yC[1][i] = eval(a1, b2, i) // column 2 frozen from B
		}
		a.UpdateGroup(0, yA, yB, yC)
	}
	inter := a.InteractionField(0, nil)
	for i := 0; i < cells; i++ {
		if math.Abs(inter[i]) > 0.06 {
			t.Errorf("cell %d: interaction share %v, want ~0", i, inter[i])
		}
		for k := 0; k < p; k++ {
			if d := math.Abs(a.FirstAt(0, k, i) - a.TotalAt(0, k, i)); d > 0.06 {
				t.Errorf("cell %d: S%d and ST%d differ by %v on additive model", i, k, k, d)
			}
		}
	}
	// Cell-dependent sensitivities: cell 2 weights x1 more than cell 0.
	if a.FirstAt(0, 0, 2) <= a.FirstAt(0, 0, 0) {
		t.Error("ubiquitous indices should vary across cells")
	}
}

func TestAccumulatorConfidenceIntervals(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const cells, p = 2, 2
	a := NewAccumulator(cells, 1, p, Options{})
	if w := a.MaxCIWidth(0.95); !math.IsInf(w, 1) {
		t.Fatalf("CI width before n=4 should be +Inf, got %v", w)
	}
	feedAll(a, 0, randomGroups(rng, 20, cells, p))
	w20 := a.MaxCIWidth(0.95)
	iv := a.FirstCI(0, 0, 0, 0.95)
	if !iv.Contains(a.FirstAt(0, 0, 0)) {
		t.Fatal("CI does not contain estimate")
	}
	feedAll(a, 0, randomGroups(rng, 200, cells, p))
	if w220 := a.MaxCIWidth(0.95); w220 >= w20 {
		t.Fatalf("CI width did not shrink: %v -> %v", w20, w220)
	}
	tv := a.TotalCI(0, 1, 1, 0.95)
	if !tv.Contains(a.TotalAt(0, 1, 1)) {
		t.Fatal("total CI does not contain estimate")
	}
}

func TestAccumulatorEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	th := 1.25
	const cells, p, steps = 5, 3, 2
	a := NewAccumulator(cells, steps, p, Options{
		MinMax: true, Threshold: &th, HigherMoments: true,
		Quantiles: []float64{0.1, 0.5, 0.9}, QuantileEps: 0.02,
	})
	for s := 0; s < steps; s++ {
		feedAll(a, s, randomGroups(rng, 9, cells, p))
	}

	w := enc.NewWriter(4096)
	a.Encode(w)
	b, err := DecodeShardedVersion(enc.NewReader(w.Bytes()), LayoutCurrent, 1)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for s := 0; s < steps; s++ {
		if b.N(s) != a.N(s) {
			t.Fatalf("step %d: n %d vs %d", s, b.N(s), a.N(s))
		}
		for k := 0; k < p; k++ {
			for i := 0; i < cells; i++ {
				if b.FirstAt(s, k, i) != a.FirstAt(s, k, i) || b.TotalAt(s, k, i) != a.TotalAt(s, k, i) {
					t.Fatalf("indices not bit-identical at (%d,%d,%d)", s, k, i)
				}
			}
		}
		if b.MinField(s, nil)[0] != a.MinField(s, nil)[0] || b.ExceedanceField(s, nil)[1] != a.ExceedanceField(s, nil)[1] {
			t.Fatal("optional stats not restored")
		}
		for _, q := range a.QuantileProbes() {
			bq := b.QuantileField(s, q, nil)
			aq := a.QuantileField(s, q, nil)
			for i := range aq {
				if bq[i] != aq[i] {
					t.Fatalf("quantile %v not bit-identical at (%d,%d)", q, s, i)
				}
			}
		}
	}
	// The restored accumulator keeps accepting updates (server restart).
	more := randomGroups(rng, 3, cells, p)
	feedAll(b, 0, more)
	if b.N(0) != a.N(0)+3 {
		t.Fatal("restored accumulator cannot continue")
	}
	// Truncated checkpoints are rejected.
	if _, err := DecodeShardedVersion(enc.NewReader(w.Bytes()[:w.Len()/2]), LayoutCurrent, 1); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}

func TestAccumulatorMemoryModel(t *testing.T) {
	// Sec. 4.1.1: memory ≈ timesteps × cells × statistics. The Sobol' state
	// is 4 + 4p floats per (cell, timestep).
	const cells, steps, p = 1000, 100, 6
	a := NewAccumulator(cells, steps, p, Options{})
	want := int64(8 * (4 + 4*p) * cells * steps)
	if got := a.MemoryBytes(); got != want {
		t.Fatalf("memory model: got %d, want %d", got, want)
	}
	// Crucially, memory does not grow with the number of groups folded.
	rng := rand.New(rand.NewSource(49))
	small := NewAccumulator(4, 1, 2, Options{})
	before := small.MemoryBytes()
	feedAll(small, 0, randomGroups(rng, 100, 4, 2))
	if small.MemoryBytes() != before {
		t.Fatal("memory grew with sample count: not O(1) in n")
	}
}
