package melissa

import (
	"math"
	"testing"

	"melissa/internal/sampling"
)

// TestRunStudyTrackersMatchBruteForce is the exact end-to-end oracle for the
// optional trackers at the concurrency production uses: several server
// processes, several fold workers each, several groups in flight. Min, max
// and exceedance counts do not depend on the order groups fold in, so the
// study's fields must equal — with ==, not a tolerance — one brute-force pass
// over the A and B fields regenerated from the same design. Skewness and
// kurtosis are floating-point sums whose rounding does depend on the order;
// they are held to the two-pass textbook formula at 1e-9.
func TestRunStudyTrackersMatchBruteForce(t *testing.T) {
	const cells, timesteps, groups, threshold = 24, 3, 40, 0.3
	field := func(row []float64, step int, f []float64) {
		for c := range f {
			f[c] = math.Sin(row[0]+0.3*float64(c)) + 0.25*float64(step+1)*row[1] + 0.1*float64(c%3)*row[0]*row[1]
		}
	}
	th := threshold
	cfg := StudyConfig{
		Parameters: []Distribution{Uniform{Low: -1, High: 1}, Normal{Mean: 0, Std: 1}},
		Groups:     groups,
		Seed:       26,
		Cells:      cells,
		Timesteps:  timesteps,
		Simulation: SimFunc(func(row []float64, emit func(int, []float64) bool) {
			f := make([]float64, cells)
			for s := 0; s < timesteps; s++ {
				field(row, s, f)
				if !emit(s, f) {
					return
				}
			}
		}),
		ServerProcs:   3,
		FoldWorkers:   2,
		SimRanks:      2,
		ClusterNodes:  5, // the server's node plus four groups in flight
		MinMax:        true,
		Threshold:     &th,
		HigherMoments: true,
	}
	res, stats, err := RunStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.GroupsFinished != groups || stats.Restarts != 0 {
		t.Fatalf("finished %d of %d groups with %d restarts", stats.GroupsFinished, groups, stats.Restarts)
	}
	if stats.PeakNodes < 3 {
		t.Fatalf("peak nodes %d: never more than one group in flight", stats.PeakNodes)
	}

	design := sampling.NewDesign(cfg.Parameters, groups, cfg.Seed)
	f := make([]float64, cells)
	for s := 0; s < timesteps; s++ {
		// samples[c] is cell c's pooled A/B sample at step s, in design order.
		samples := make([][]float64, cells)
		for g := 0; g < groups; g++ {
			for _, row := range [][]float64{design.RowA(g), design.RowB(g)} {
				field(row, s, f)
				for c, v := range f {
					samples[c] = append(samples[c], v)
				}
			}
		}
		lo, hi, exc := res.Min(s), res.Max(s), res.Exceedance(s)
		skew, kurt := res.Skewness(s), res.Kurtosis(s)
		for c, xs := range samples {
			n := float64(len(xs))
			wantLo, wantHi, count, sum := math.Inf(1), math.Inf(-1), 0, 0.0
			for _, x := range xs {
				wantLo, wantHi = math.Min(wantLo, x), math.Max(wantHi, x)
				if x > threshold {
					count++
				}
				sum += x
			}
			if lo[c] != wantLo || hi[c] != wantHi {
				t.Fatalf("t=%d cell %d: min/max %v/%v, brute force %v/%v", s, c, lo[c], hi[c], wantLo, wantHi)
			}
			if want := float64(count) / n; exc[c] != want {
				t.Fatalf("t=%d cell %d: exceedance %v, brute force %v (%d of %d)", s, c, exc[c], want, count, len(xs))
			}
			mean := sum / n
			var m2, m3, m4 float64
			for _, x := range xs {
				d := x - mean
				m2, m3, m4 = m2+d*d, m3+d*d*d, m4+d*d*d*d
			}
			wantSkew, wantKurt := math.Sqrt(n)*m3/math.Pow(m2, 1.5), n*m4/(m2*m2)-3
			if math.Abs(skew[c]-wantSkew) > 1e-9 || math.Abs(kurt[c]-wantKurt) > 1e-9 {
				t.Fatalf("t=%d cell %d: skewness/kurtosis %v/%v, two-pass %v/%v", s, c, skew[c], kurt[c], wantSkew, wantKurt)
			}
		}
	}

	// A tracker that was not enabled reads as nil, not as zeros.
	cfg.MinMax, cfg.Threshold, cfg.HigherMoments, cfg.Groups = false, nil, false, 4
	plain, _, err := RunStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Min(0) != nil || plain.Max(0) != nil || plain.Exceedance(0) != nil ||
		plain.Skewness(0) != nil || plain.Kurtosis(0) != nil {
		t.Fatal("disabled trackers returned fields")
	}
}
