package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"melissa/internal/sobol"
)

// scanStepCIWidthExhaustive is the reference scanStepCIWidth is held to: the
// interval of every cell, parameter and index evaluated through the per-call
// sobol API, largest width kept.
func scanStepCIWidthExhaustive(a *shard, s *stepAccum, level float64) float64 {
	var worst float64
	for ri := 0; ri < len(s.rec); ri += a.stride {
		r := s.rec[ri : ri+a.stride]
		m2A, m2B := r[offM2A], r[offM2B]
		for off := recHeader; off < a.lay.sob; off += recPerParam {
			m2C := r[off+blkM2C]
			if m2B == 0 || m2C == 0 {
				continue
			}
			first := correlation(r[off+blkC2BC], m2B, m2C)
			if w := sobol.FirstOrderCI(first, s.n, level).Width(); w > worst {
				worst = w
			}
			if m2A == 0 {
				continue
			}
			total := 1 - correlation(r[off+blkC2AC], m2A, m2C)
			if w := sobol.TotalOrderCI(total, s.n, level).Width(); w > worst {
				worst = w
			}
		}
	}
	return worst
}

// rhoLayout fills rho with one (parameter, index)'s per-cell correlations.
type rhoLayout struct {
	name string
	fill func(rng *rand.Rand, rho []float64)
}

// clustered puts every cell within spread above base, a few exactly on it.
func clustered(base, spread float64) func(*rand.Rand, []float64) {
	return func(rng *rand.Rand, rho []float64) {
		for i := range rho {
			rho[i] = base + spread*rng.Float64()
			if rng.Intn(8) == 0 {
				rho[i] = base
			}
			if rng.Intn(2) == 0 {
				rho[i] = -rho[i]
			}
		}
	}
}

func sortedByAbs(desc bool) func(*rand.Rand, []float64) {
	return func(rng *rand.Rand, rho []float64) {
		for i := range rho {
			rho[i] = 2*rng.Float64() - 1
		}
		sort.Slice(rho, func(i, j int) bool {
			return (math.Abs(rho[i]) < math.Abs(rho[j])) != desc
		})
	}
}

func ciScanLayouts() []rhoLayout {
	ls := []rhoLayout{
		{"uniform", func(rng *rand.Rand, rho []float64) {
			for i := range rho {
				rho[i] = 2*rng.Float64() - 1
			}
		}},
		{"all-equal", func(rng *rand.Rand, rho []float64) {
			v := 2*rng.Float64() - 1
			for i := range rho {
				rho[i] = v
			}
		}},
		{"float32-smooth", func(rng *rand.Rand, rho []float64) {
			v := 2*rng.Float64() - 1
			for i := range rho {
				rho[i] = float64(float32(v * (1 + 1e-7*rng.NormFloat64())))
			}
		}},
		{"zero-exact", func(rng *rand.Rand, rho []float64) {
			for i := range rho {
				rho[i] = 1e-6 * rng.NormFloat64()
				if rng.Intn(4) == 0 {
					rho[i] = 0
				}
			}
		}},
		{"clamped", func(rng *rand.Rand, rho []float64) {
			vals := []float64{1, -1, 1 + 1e-9, -1 - 1e-9, 2, -3, math.Inf(1), math.Inf(-1),
				sobol.ClampMax, -sobol.ClampMax, math.Nextafter(sobol.ClampMax, 2), 1 - 1e-13, 1 - 1e-11}
			for i := range rho {
				rho[i] = vals[rng.Intn(len(vals))]
			}
		}},
		{"clamped-and-interior", func(rng *rand.Rand, rho []float64) {
			for i := range rho {
				rho[i] = 1 + rng.Float64()
				if rng.Intn(16) == 0 {
					rho[i] = 1 - 1e-12*rng.Float64()*4
				}
			}
		}},
		{"nan", func(rng *rand.Rand, rho []float64) {
			for i := range rho {
				rho[i] = 2*rng.Float64() - 1
				if rng.Intn(3) == 0 {
					rho[i] = math.NaN()
				}
			}
		}},
		{"all-nan", func(rng *rand.Rand, rho []float64) {
			for i := range rho {
				rho[i] = math.NaN()
			}
		}},
		{"abs-ascending", sortedByAbs(false)},
		{"abs-descending", sortedByAbs(true)},
	}
	for _, base := range []float64{0, 1e-9, 0.3, 0.9, 1 - 1e-9} {
		for _, spread := range []float64{1e-16, 1e-14, 1e-12, 1e-9, 1e-7} {
			ls = append(ls, rhoLayout{fmt.Sprintf("cluster-%g+%g", base, spread), clustered(base, spread)})
		}
	}
	return ls
}

// fillCIScanStep writes one timestep's records so that parameter k's first
// and total-order correlations follow independently drawn layouts. Unit
// second moments make correlation() return the drawn value itself; scaled
// ones make it a general quotient; zeroMoments sprinkles vanishing variances.
func fillCIScanStep(rng *rand.Rand, a *shard, s *stepAccum, layouts []rhoLayout, scaled, zeroMoments bool) {
	cells := a.cells
	sdA, sdB := make([]float64, cells), make([]float64, cells)
	for i := 0; i < cells; i++ {
		sdA[i], sdB[i] = 1, 1
		if scaled {
			sdA[i], sdB[i] = math.Exp(3*rng.NormFloat64()), math.Exp(3*rng.NormFloat64())
		}
		r := s.rec[i*a.stride : (i+1)*a.stride]
		r[offM2A], r[offM2B] = sdA[i]*sdA[i], sdB[i]*sdB[i]
		if zeroMoments && rng.Intn(5) == 0 {
			r[offM2A] = 0
		}
		if zeroMoments && rng.Intn(5) == 0 {
			r[offM2B] = 0
		}
	}
	first, total := make([]float64, cells), make([]float64, cells)
	for k := 0; k < a.p; k++ {
		layouts[rng.Intn(len(layouts))].fill(rng, first)
		layouts[rng.Intn(len(layouts))].fill(rng, total)
		off := recHeader + recPerParam*k
		for i := 0; i < cells; i++ {
			r := s.rec[i*a.stride : (i+1)*a.stride]
			sdC := 1.0
			if scaled {
				sdC = math.Exp(3 * rng.NormFloat64())
			}
			r[off+blkM2C] = sdC * sdC
			if zeroMoments && rng.Intn(5) == 0 {
				r[off+blkM2C] = 0
			}
			r[off+blkC2BC] = first[i] * sdB[i] * sdC
			r[off+blkC2AC] = total[i] * sdA[i] * sdC
		}
	}
}

// TestCIScanMatchesExhaustive holds the min-|ρ̂| sweep to the float the
// exhaustive scan returns — compared with ==, no tolerance — over random and
// adversarial record layouts, sample counts and levels.
func TestCIScanMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	layouts := ciScanLayouts()
	counts := []int64{3, 4, 5, 17, 400, 1e6}
	levels := []float64{0.90, 0.95, 0.99}
	records := 0
	check := func(name string, a *shard, s *stepAccum) {
		t.Helper()
		for _, level := range levels {
			want := scanStepCIWidthExhaustive(a, s, level)
			if got := a.scanStepCIWidth(s, level); got != want {
				t.Fatalf("%s: cells=%d p=%d n=%d level=%v: sweep %v (%#x), exhaustive %v (%#x)", name,
					a.cells, a.p, s.n, level, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	// Every layout alone on every (parameter, index), at every sample count.
	for _, l := range layouts {
		for _, n := range counts {
			for _, scaled := range []bool{false, true} {
				a := newShard(257, 1, 2, Options{})
				s := &a.steps[0]
				s.n = n
				fillCIScanStep(rng, a, s, []rhoLayout{l}, scaled, false)
				check(l.name, a, s)
				records += a.cells
			}
		}
	}
	// Random shapes mixing the layouts, with and without tracker slots
	// widening the record stride and vanishing second moments.
	th := 0.5
	for trial := 0; records < 150_000; trial++ {
		opts := Options{}
		if trial%3 == 1 {
			opts = Options{MinMax: true, Threshold: &th, HigherMoments: true}
		}
		a := newShard(1+rng.Intn(700), 1, 1+rng.Intn(6), opts)
		s := &a.steps[0]
		s.n = counts[rng.Intn(len(counts))]
		if rng.Intn(2) == 0 {
			s.n = 4 + rng.Int63n(5000)
		}
		fillCIScanStep(rng, a, s, layouts, trial%2 == 0, trial%4 == 3)
		check("mixed", a, s)
		records += a.cells
	}
}
