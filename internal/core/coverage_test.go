package core

import (
	"math/rand/v2"
	"testing"

	"melissa/internal/sobol"
)

// TestFieldCICoverage ties the field accumulator's confidence intervals — and
// the convergence scalar the early stop reads — to analytic truth rather than
// to a replica of the estimator. Every cell is an independent replicate of
// the linear-Gaussian model (the case in which the Fisher interval of Eq. 8/9
// is exact), so the share of cells whose 95 % interval contains the analytic
// index estimates the interval's coverage; MaxCIWidth must be the widest of
// exactly those intervals.
func TestFieldCICoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("coverage study skipped in -short")
	}
	const cells, groups, level = 2000, 400, 0.95
	fn := sobol.LinearNormal([]float64{1, 2, 0.5}, []float64{1, 1, 1})
	p := fn.P()
	for _, seed := range []uint64{1, 2, 3} {
		rng := rand.New(rand.NewPCG(seed, 25))
		a := NewAccumulator(cells, 1, p, Options{})
		yA, yB := make([]float64, cells), make([]float64, cells)
		yC := make([][]float64, p)
		for k := range yC {
			yC[k] = make([]float64, cells)
		}
		xa, xb, xc := make([]float64, p), make([]float64, p), make([]float64, p)
		for g := 0; g < groups; g++ {
			for i := 0; i < cells; i++ {
				for k := range xa {
					xa[k], xb[k] = fn.Params[k].Sample(rng), fn.Params[k].Sample(rng)
				}
				yA[i], yB[i] = fn.Eval(xa), fn.Eval(xb)
				for k := range yC {
					copy(xc, xa)
					xc[k] = xb[k] // pick-freeze: A with column k from B
					yC[k][i] = fn.Eval(xc)
				}
			}
			a.UpdateGroup(0, yA, yB, yC)
		}

		var firstIn, totalIn int
		var widest float64
		for k := 0; k < p; k++ {
			for i := 0; i < cells; i++ {
				fc, tc := a.FirstCI(0, k, i, level), a.TotalCI(0, k, i, level)
				if fc.Contains(fn.ExactFirst[k]) {
					firstIn++
				}
				if tc.Contains(fn.ExactTotal[k]) {
					totalIn++
				}
				widest = max(widest, fc.Width(), tc.Width())
			}
		}
		t.Logf("seed %d: coverage first %.4f total %.4f", seed, float64(firstIn)/float64(p*cells), float64(totalIn)/float64(p*cells))
		for name, in := range map[string]int{"first": firstIn, "total": totalIn} {
			if share := float64(in) / float64(p*cells); share < 0.90 || share > 0.99 {
				t.Errorf("seed %d: %s-order 95%% intervals contain the analytic index in %.3f of %d cells, want [0.90, 0.99]",
					seed, name, share, p*cells)
			}
		}
		if got := a.MaxCIWidth(level); got != widest {
			t.Errorf("seed %d: MaxCIWidth = %v, widest per-cell interval %v", seed, got, widest)
		}
	}
}
