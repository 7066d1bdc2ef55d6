// goldengen writes the golden v4 checkpoint fixture for
// internal/core/golden_test.go: the record image (core.LayoutV4) of a small
// accumulator with every statistic on, quantile sketches included. Run it
// from the repository root: go run ./tools/goldengen.
//
// The v1 and v2 fixtures next to it are frozen history. They were written by
// the seed (pre-interleave) kernel in the dense per-statistic layout, which
// no build writes any more; the tests only decode them. Because the kernel is
// bitwise identical to the seed's, decoding them yields the state this tool
// folds (TestGoldenFixtureDecode). Regenerate the v4 fixture only if its
// shape itself needs to change, and never to "fix" a byte mismatch — a
// mismatch means the kernel or the format broke compatibility.
package main

import (
	"log"

	"melissa/internal/checkpoint"
	"melissa/internal/core"
	"melissa/internal/enc"
)

// lcg is a tiny deterministic generator so fixture bytes never depend on
// math/rand's algorithm (which may change across Go versions).
type lcg struct{ s uint64 }

func (l *lcg) next() float64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return float64(int64(l.s>>11)) / float64(1<<52)
}

func main() {
	const cells, steps, p, groups = 13, 3, 4, 9
	th := 0.25
	opts := core.Options{MinMax: true, Threshold: &th, HigherMoments: true,
		Quantiles: []float64{0.1, 0.5, 0.9}, QuantileEps: 0.05}
	a := core.NewAccumulator(cells, steps, p, opts)
	g := &lcg{s: 2017}
	yA := make([]float64, cells)
	yB := make([]float64, cells)
	yC := make([][]float64, p)
	for k := range yC {
		yC[k] = make([]float64, cells)
	}
	for t := 0; t < steps; t++ {
		for n := 0; n < groups; n++ {
			for i := 0; i < cells; i++ {
				yA[i] = g.next()
				yB[i] = g.next()
				for k := 0; k < p; k++ {
					yC[k][i] = g.next()
				}
			}
			a.UpdateGroup(t, yA, yB, yC)
		}
	}
	if err := checkpoint.Write("internal/core/testdata/accumulator_v4.ckpt",
		func(w *enc.Writer) { a.Encode(w) }); err != nil {
		log.Fatal(err)
	}
	log.Printf("fixture written: S0(0,0,0)=%v total=%v q50=%v",
		a.FirstAt(0, 0, 0), a.TotalAt(0, 0, 0), a.QuantileField(0, 0.5, nil)[0])
}
