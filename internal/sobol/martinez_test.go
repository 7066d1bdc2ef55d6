package sobol

import (
	"math"
	"math/rand"
	"testing"
)

func maxAbsErr(got func(int) float64, want []float64) float64 {
	var worst float64
	for k, w := range want {
		if e := math.Abs(got(k) - w); e > worst {
			worst = e
		}
	}
	return worst
}

func TestMartinezIshigamiConvergence(t *testing.T) {
	fn := Ishigami()
	m := NewMartinez(fn.P())
	Estimate(fn, 20000, 1, m)

	if err := maxAbsErr(m.First, fn.ExactFirst); err > 0.02 {
		t.Errorf("first-order max error %v > 0.02 (got S=[%v %v %v], want %v)",
			err, m.First(0), m.First(1), m.First(2), fn.ExactFirst)
	}
	if err := maxAbsErr(m.Total, fn.ExactTotal); err > 0.02 {
		t.Errorf("total-order max error %v > 0.02 (got ST=[%v %v %v], want %v)",
			err, m.Total(0), m.Total(1), m.Total(2), fn.ExactTotal)
	}
	// The signature structure of Ishigami: S3 ≈ 0 but ST3 clearly > 0
	// (pure-interaction parameter), and ST1 > S1.
	if math.Abs(m.First(2)) > 0.03 {
		t.Errorf("S3 = %v, want ~0", m.First(2))
	}
	if m.Total(2) < 0.15 {
		t.Errorf("ST3 = %v, want ~0.24", m.Total(2))
	}
	if m.Total(0) <= m.First(0) {
		t.Errorf("ST1 (%v) should exceed S1 (%v)", m.Total(0), m.First(0))
	}
}

func TestMartinezGFunctionConvergence(t *testing.T) {
	fn := GFunction([]float64{0, 1, 4.5, 9, 99, 99})
	m := NewMartinez(fn.P())
	Estimate(fn, 30000, 2, m)
	if err := maxAbsErr(m.First, fn.ExactFirst); err > 0.03 {
		t.Errorf("g-function first-order max error %v", err)
	}
	if err := maxAbsErr(m.Total, fn.ExactTotal); err > 0.05 {
		t.Errorf("g-function total-order max error %v", err)
	}
	// Influence ordering must match the coefficient ordering.
	for k := 0; k+1 < fn.P(); k++ {
		if m.First(k) < m.First(k+1)-0.02 {
			t.Errorf("influence ordering violated at %d: %v < %v", k, m.First(k), m.First(k+1))
		}
	}
}

func TestMartinezLinearAdditive(t *testing.T) {
	fn := LinearNormal([]float64{1, 2, 3}, []float64{1, 1, 1})
	m := NewMartinez(fn.P())
	Estimate(fn, 20000, 3, m)
	for k := 0; k < 3; k++ {
		if math.Abs(m.First(k)-m.Total(k)) > 0.03 {
			t.Errorf("additive model: S%d=%v should equal ST%d=%v", k, m.First(k), k, m.Total(k))
		}
	}
	if err := maxAbsErr(m.First, fn.ExactFirst); err > 0.02 {
		t.Errorf("linear first-order max error %v", err)
	}
}

// The central exactness claim of Sec. 3.3: the iterative estimator equals
// the classical two-pass computation on the same sample, to round-off.
func TestIterativeMatchesClassicalMartinez(t *testing.T) {
	for _, n := range []int{2, 3, 10, 257, 4096} {
		fn := Ishigami()
		yA, yB, yC := Materialize(fn, n, uint64(n))
		first, total := Classical(yA, yB, yC)

		m := NewMartinez(fn.P())
		yCi := make([]float64, fn.P())
		for i := 0; i < n; i++ {
			for k := range yCi {
				yCi[k] = yC[k][i]
			}
			m.Update(yA[i], yB[i], yCi)
		}
		for k := 0; k < fn.P(); k++ {
			if math.Abs(m.First(k)-first[k]) > 1e-10 {
				t.Errorf("n=%d: iterative S%d=%v classical=%v", n, k, m.First(k), first[k])
			}
			if math.Abs(m.Total(k)-total[k]) > 1e-10 {
				t.Errorf("n=%d: iterative ST%d=%v classical=%v", n, k, m.Total(k), total[k])
			}
		}
	}
}

// Groups can arrive in any order (Sec. 3.1): a shuffled stream must produce
// the same indices.
func TestMartinezOrderInvariance(t *testing.T) {
	fn := Ishigami()
	const n = 512
	yA, yB, yC := Materialize(fn, n, 7)

	inOrder := NewMartinez(fn.P())
	shuffled := NewMartinez(fn.P())
	perm := rand.New(rand.NewSource(1)).Perm(n)
	yCi := make([]float64, fn.P())
	feed := func(m *Martinez, i int) {
		for k := range yCi {
			yCi[k] = yC[k][i]
		}
		m.Update(yA[i], yB[i], yCi)
	}
	for i := 0; i < n; i++ {
		feed(inOrder, i)
	}
	for _, i := range perm {
		feed(shuffled, i)
	}
	for k := 0; k < fn.P(); k++ {
		if math.Abs(inOrder.First(k)-shuffled.First(k)) > 1e-9 {
			t.Errorf("S%d differs with order: %v vs %v", k, inOrder.First(k), shuffled.First(k))
		}
		if math.Abs(inOrder.Total(k)-shuffled.Total(k)) > 1e-9 {
			t.Errorf("ST%d differs with order: %v vs %v", k, inOrder.Total(k), shuffled.Total(k))
		}
	}
}

func TestMartinezUpdateDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := NewMartinez(3)
	m.Update(0, 0, []float64{1, 2})
}

func TestClassicalInputMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Classical([]float64{1, 2}, []float64{1}, nil)
}
