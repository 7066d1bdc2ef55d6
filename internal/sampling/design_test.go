package sampling

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func testParams() []Distribution {
	return []Distribution{
		Uniform{0, 1},
		Normal{5, 2},
		LogUniform{0.1, 10},
	}
}

func TestDesignDimensions(t *testing.T) {
	d := NewDesign(testParams(), 100, 42)
	if d.P() != 3 || d.N() != 100 || d.GroupSize() != 5 {
		t.Fatalf("p=%d n=%d groupSize=%d", d.P(), d.N(), d.GroupSize())
	}
	if len(d.RowA(0)) != 3 || len(d.RowB(99)) != 3 {
		t.Fatalf("row lengths wrong")
	}
}

func TestDesignDeterministicRegeneration(t *testing.T) {
	d1 := NewDesign(testParams(), 50, 7)
	d2 := NewDesign(testParams(), 50, 7)
	for i := 0; i < 50; i++ {
		a1, a2 := d1.RowA(i), d2.RowA(i)
		b1, b2 := d1.RowB(i), d2.RowB(i)
		for k := range a1 {
			if a1[k] != a2[k] || b1[k] != b2[k] {
				t.Fatalf("row %d not reproducible", i)
			}
		}
	}
	// Regenerating the same row twice from one design is also identical
	// (restart of a failed group must rerun identical parameters).
	r1, r2 := d1.RowA(13), d1.RowA(13)
	for k := range r1 {
		if r1[k] != r2[k] {
			t.Fatal("RowA not idempotent")
		}
	}
}

func TestDesignSeedsDiffer(t *testing.T) {
	d1 := NewDesign(testParams(), 10, 1)
	d2 := NewDesign(testParams(), 10, 2)
	same := 0
	for i := 0; i < 10; i++ {
		a1, a2 := d1.RowA(i), d2.RowA(i)
		if a1[0] == a2[0] {
			same++
		}
	}
	if same == 10 {
		t.Fatal("different seeds produced identical designs")
	}
}

func TestDesignABIndependent(t *testing.T) {
	// A and B must be distinct samples (they share the seed but not the
	// stream); identical A/B would make every Sobol' index degenerate.
	d := NewDesign(testParams(), 200, 3)
	identical := 0
	for i := 0; i < 200; i++ {
		a, b := d.RowA(i), d.RowB(i)
		if a[0] == b[0] && a[1] == b[1] && a[2] == b[2] {
			identical++
		}
	}
	if identical > 0 {
		t.Fatalf("%d rows have A_i == B_i", identical)
	}
}

func TestDesignRowsIndependentAcrossIndex(t *testing.T) {
	// Consecutive rows must not be correlated; check the first parameter's
	// empirical lag-1 autocorrelation over many rows.
	d := NewDesign([]Distribution{Uniform{0, 1}}, 5000, 9)
	var prev float64
	var sum, sumSq, sumLag float64
	n := 0
	for i := 0; i < 5000; i++ {
		v := d.RowA(i)[0]
		if i > 0 {
			sumLag += v * prev
			n++
		}
		sum += v
		sumSq += v * v
		prev = v
	}
	mean := sum / 5000
	variance := sumSq/5000 - mean*mean
	lagCov := sumLag/float64(n) - mean*mean
	if math.Abs(lagCov/variance) > 0.05 {
		t.Fatalf("lag-1 autocorrelation too high: %v", lagCov/variance)
	}
}

func TestDesignPickFreezeStructure(t *testing.T) {
	d := NewDesign(testParams(), 20, 11)
	for i := 0; i < 20; i++ {
		a := d.RowA(i)
		b := d.RowB(i)
		for k := 0; k < d.P(); k++ {
			c := d.RowC(i, k)
			for j := range c {
				if j == k {
					if c[j] != b[j] {
						t.Fatalf("C^%d row %d: frozen column should equal B", k, i)
					}
				} else if c[j] != a[j] {
					t.Fatalf("C^%d row %d: column %d should equal A", k, i, j)
				}
			}
		}
	}
}

func TestDesignGroupRows(t *testing.T) {
	d := NewDesign(testParams(), 5, 1)
	rows := d.GroupRows(2)
	if len(rows) != 5 {
		t.Fatalf("group size %d, want 5", len(rows))
	}
	a, b := d.RowA(2), d.RowB(2)
	for j := range a {
		if rows[0][j] != a[j] || rows[1][j] != b[j] {
			t.Fatal("rows 0/1 must be A/B")
		}
	}
	for k := 0; k < 3; k++ {
		c := d.RowC(2, k)
		for j := range c {
			if rows[k+2][j] != c[j] {
				t.Fatalf("row %d must be C^%d", k+2, k)
			}
		}
	}
}

func TestDesignExtend(t *testing.T) {
	d := NewDesign(testParams(), 10, 5)
	before := d.RowA(3)
	ids := d.Extend(5)
	if d.N() != 15 || len(ids) != 5 || ids[0] != 10 || ids[4] != 14 {
		t.Fatalf("extend: n=%d ids=%v", d.N(), ids)
	}
	after := d.RowA(3)
	for j := range before {
		if before[j] != after[j] {
			t.Fatal("extension perturbed existing rows")
		}
	}
	// New rows are usable.
	if len(d.RowA(14)) != 3 {
		t.Fatal("new row not generated")
	}
}

func TestDesignOutOfRangePanics(t *testing.T) {
	d := NewDesign(testParams(), 5, 1)
	for _, fn := range []func(){
		func() { d.RowA(5) },
		func() { d.RowA(-1) },
		func() { d.RowC(0, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestDistributionRanges(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	u := Uniform{-2, 3}
	lu := LogUniform{0.01, 100}
	tn := TruncatedNormal{Mean: 0, Std: 5, Low: -1, High: 1}
	for i := 0; i < 10000; i++ {
		if v := u.Sample(rng); v < -2 || v > 3 {
			t.Fatalf("uniform out of range: %v", v)
		}
		if v := lu.Sample(rng); v < 0.01 || v > 100 {
			t.Fatalf("log-uniform out of range: %v", v)
		}
		if v := tn.Sample(rng); v < -1 || v > 1 {
			t.Fatalf("truncated normal out of range: %v", v)
		}
	}
}

func TestDistributionMoments(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	n := Normal{Mean: 10, Std: 0.5}
	var sum, sumSq float64
	const count = 200000
	for i := 0; i < count; i++ {
		v := n.Sample(rng)
		sum += v
		sumSq += v * v
	}
	mean := sum / count
	variance := sumSq/count - mean*mean
	if math.Abs(mean-10) > 0.01 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(variance-0.25) > 0.01 {
		t.Fatalf("normal variance = %v", variance)
	}
}

func TestDistributionStrings(t *testing.T) {
	cases := map[string]Distribution{
		"Uniform[0,1]":           Uniform{0, 1},
		"Normal(5,2)":            Normal{5, 2},
		"LogUniform[0.1,10]":     LogUniform{0.1, 10},
		"TruncNormal(0,1)[-2,2]": TruncatedNormal{0, 1, -2, 2},
	}
	for want, dist := range cases {
		if got := dist.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

// Property: the pick-freeze invariant holds for arbitrary seeds and indices.
func TestQuickPickFreezeInvariant(t *testing.T) {
	d := NewDesign(testParams(), 1000, 99)
	f := func(rawRow uint16, rawCol uint8) bool {
		i := int(rawRow) % d.N()
		k := int(rawCol) % d.P()
		a, b, c := d.RowA(i), d.RowB(i), d.RowC(i, k)
		for j := range c {
			if j == k && c[j] != b[j] {
				return false
			}
			if j != k && c[j] != a[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
