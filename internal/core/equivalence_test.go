package core_test

// Bitwise-equivalence tests of the interleaved single-sweep kernel against a
// reference replica of the seed kernel: the original parallel per-statistic
// arrays updated in p+1 passes, with the optional trackers fed in separate
// A-then-B passes. Every statistic the accumulator exposes must be bitwise
// identical between the two, for random shapes and every Options
// combination, and invariant under the fold-worker count.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"melissa/internal/core"
	"melissa/internal/quantiles"
	"melissa/internal/sobol"
	"melissa/internal/stats"
)

// refAccum is the seed kernel: parallel arrays, one pass per parameter plus
// one for the A/B moments.
type refAccum struct {
	cells, p int
	n        int64
	meanA    []float64
	m2A      []float64
	meanB    []float64
	m2B      []float64
	meanC    [][]float64
	m2C      [][]float64
	c2BC     [][]float64
	c2AC     [][]float64
	minmax   *stats.FieldMinMax
	exceed   *stats.FieldExceedance
	higher   *stats.FieldMoments
	quant    *quantiles.Field
}

func newRefAccum(cells, p int, opts core.Options) *refAccum {
	make2D := func() [][]float64 {
		out := make([][]float64, p)
		for k := range out {
			out[k] = make([]float64, cells)
		}
		return out
	}
	r := &refAccum{
		cells: cells, p: p,
		meanA: make([]float64, cells),
		m2A:   make([]float64, cells),
		meanB: make([]float64, cells),
		m2B:   make([]float64, cells),
		meanC: make2D(), m2C: make2D(), c2BC: make2D(), c2AC: make2D(),
	}
	if opts.MinMax {
		r.minmax = stats.NewFieldMinMax(cells)
	}
	if opts.Threshold != nil {
		r.exceed = stats.NewFieldExceedance(cells, *opts.Threshold)
	}
	if opts.HigherMoments {
		r.higher = stats.NewFieldMoments(cells)
	}
	if len(opts.Quantiles) > 0 {
		r.quant = quantiles.NewField(cells, opts.QuantileEps)
	}
	return r
}

// update is verbatim the seed UpdateGroup: a k-major pass per parameter
// (reading the pre-update A/B means), then the A/B pass, then one tracker
// pass per sample.
func (ra *refAccum) update(yA, yB []float64, yC [][]float64) {
	ra.n++
	n := float64(ra.n)
	for k := 0; k < ra.p; k++ {
		yCk := yC[k]
		meanC, m2C := ra.meanC[k], ra.m2C[k]
		c2BC, c2AC := ra.c2BC[k], ra.c2AC[k]
		for i := 0; i < ra.cells; i++ {
			dA := yA[i] - ra.meanA[i]
			dB := yB[i] - ra.meanB[i]
			dC := yCk[i] - meanC[i]
			meanC[i] += dC / n
			e := yCk[i] - meanC[i]
			m2C[i] += dC * e
			c2BC[i] += dB * e
			c2AC[i] += dA * e
		}
	}
	for i := 0; i < ra.cells; i++ {
		dA := yA[i] - ra.meanA[i]
		ra.meanA[i] += dA / n
		ra.m2A[i] += dA * (yA[i] - ra.meanA[i])
		dB := yB[i] - ra.meanB[i]
		ra.meanB[i] += dB / n
		ra.m2B[i] += dB * (yB[i] - ra.meanB[i])
	}
	if ra.minmax != nil {
		ra.minmax.Update(yA)
		ra.minmax.Update(yB)
	}
	if ra.exceed != nil {
		ra.exceed.Update(yA)
		ra.exceed.Update(yB)
	}
	if ra.higher != nil {
		ra.higher.Update(yA)
		ra.higher.Update(yB)
	}
	if ra.quant != nil {
		ra.quant.Update(yA)
		ra.quant.Update(yB)
	}
}

// merge is verbatim the seed Merge for one timestep.
func (ra *refAccum) merge(rb *refAccum) {
	if rb.n == 0 {
		return
	}
	if ra.n == 0 {
		ra.n = rb.n
		copy(ra.meanA, rb.meanA)
		copy(ra.m2A, rb.m2A)
		copy(ra.meanB, rb.meanB)
		copy(ra.m2B, rb.m2B)
		for k := 0; k < ra.p; k++ {
			copy(ra.meanC[k], rb.meanC[k])
			copy(ra.m2C[k], rb.m2C[k])
			copy(ra.c2BC[k], rb.c2BC[k])
			copy(ra.c2AC[k], rb.c2AC[k])
		}
		if ra.minmax != nil && rb.minmax != nil {
			ra.minmax.Merge(rb.minmax)
		}
		if ra.higher != nil && rb.higher != nil {
			ra.higher.Merge(rb.higher)
		}
		return
	}
	na, nb := float64(ra.n), float64(rb.n)
	nx := na + nb
	w := na * nb / nx
	for k := 0; k < ra.p; k++ {
		for i := 0; i < ra.cells; i++ {
			dA := rb.meanA[i] - ra.meanA[i]
			dB := rb.meanB[i] - ra.meanB[i]
			dC := rb.meanC[k][i] - ra.meanC[k][i]
			ra.c2BC[k][i] += rb.c2BC[k][i] + dB*dC*w
			ra.c2AC[k][i] += rb.c2AC[k][i] + dA*dC*w
			ra.m2C[k][i] += rb.m2C[k][i] + dC*dC*w
			ra.meanC[k][i] += dC * nb / nx
		}
	}
	for i := 0; i < ra.cells; i++ {
		dA := rb.meanA[i] - ra.meanA[i]
		dB := rb.meanB[i] - ra.meanB[i]
		ra.m2A[i] += rb.m2A[i] + dA*dA*w
		ra.m2B[i] += rb.m2B[i] + dB*dB*w
		ra.meanA[i] += dA * nb / nx
		ra.meanB[i] += dB * nb / nx
	}
	if ra.minmax != nil && rb.minmax != nil {
		ra.minmax.Merge(rb.minmax)
	}
	if ra.higher != nil && rb.higher != nil {
		ra.higher.Merge(rb.higher)
	}
	ra.n += rb.n
}

func (ra *refAccum) correlation(c2, m2x, m2y float64) float64 {
	if m2x == 0 || m2y == 0 {
		return 0
	}
	return c2 / (math.Sqrt(m2x) * math.Sqrt(m2y))
}

func (ra *refAccum) first(k, i int) float64 {
	return ra.correlation(ra.c2BC[k][i], ra.m2B[i], ra.m2C[k][i])
}

func (ra *refAccum) total(k, i int) float64 {
	if ra.n < 2 {
		return 0
	}
	return 1 - ra.correlation(ra.c2AC[k][i], ra.m2A[i], ra.m2C[k][i])
}

// maxCIWidth is the seed full rescan (k-major) for one timestep.
func (ra *refAccum) maxCIWidth(level float64) float64 {
	if ra.n < 4 {
		return math.Inf(1)
	}
	var worst float64
	for k := 0; k < ra.p; k++ {
		for i := 0; i < ra.cells; i++ {
			if ra.m2B[i] == 0 || ra.m2C[k][i] == 0 {
				continue
			}
			if w := sobol.FirstOrderCI(ra.first(k, i), ra.n, level).Width(); w > worst {
				worst = w
			}
			if ra.m2A[i] == 0 {
				continue
			}
			if w := sobol.TotalOrderCI(ra.total(k, i), ra.n, level).Width(); w > worst {
				worst = w
			}
		}
	}
	return worst
}

type refSample struct {
	yA, yB []float64
	yC     [][]float64
}

func refSamples(rng *rand.Rand, n, cells, p int) []refSample {
	field := func() []float64 {
		f := make([]float64, cells)
		for i := range f {
			f[i] = rng.NormFloat64()*3 + 0.25*float64(i%7)
		}
		return f
	}
	out := make([]refSample, n)
	for g := range out {
		s := refSample{yA: field(), yB: field(), yC: make([][]float64, p)}
		for k := range s.yC {
			s.yC[k] = field()
		}
		out[g] = s
	}
	return out
}

// optionCombos enumerates every Options combination: the three boolean
// trackers × quantiles on/off.
func optionCombos() []core.Options {
	th := 0.4
	var out []core.Options
	for mask := 0; mask < 16; mask++ {
		var o core.Options
		if mask&1 != 0 {
			o.MinMax = true
		}
		if mask&2 != 0 {
			o.Threshold = &th
		}
		if mask&4 != 0 {
			o.HigherMoments = true
		}
		if mask&8 != 0 {
			o.Quantiles = []float64{0.25, 0.75}
			o.QuantileEps = 0.05
		}
		out = append(out, o)
	}
	return out
}

func optionName(o core.Options) string {
	return fmt.Sprintf("minmax=%v,thresh=%v,higher=%v,quant=%v",
		o.MinMax, o.Threshold != nil, o.HigherMoments, len(o.Quantiles) > 0)
}

// checkEqual compares every exposed statistic of one timestep bitwise.
func checkEqual(t *testing.T, a *core.Accumulator, ts int, ref *refAccum) {
	t.Helper()
	if a.N(ts) != ref.n {
		t.Fatalf("step %d: n=%d want %d", ts, a.N(ts), ref.n)
	}
	for k := 0; k < ref.p; k++ {
		for i := 0; i < ref.cells; i++ {
			if got, want := a.FirstAt(ts, k, i), ref.first(k, i); got != want {
				t.Fatalf("step %d S%d cell %d: %v != %v (not bitwise)", ts, k, i, got, want)
			}
			if got, want := a.TotalAt(ts, k, i), ref.total(k, i); got != want {
				t.Fatalf("step %d ST%d cell %d: %v != %v (not bitwise)", ts, k, i, got, want)
			}
		}
	}
	mean := a.MeanField(ts, nil)
	for i := 0; i < ref.cells; i++ {
		if mean[i] != ref.meanB[i] {
			t.Fatalf("step %d mean cell %d differs", ts, i)
		}
	}
	minmaxN, exceedN, _ := a.TrackerSamples(ts)
	if ref.minmax != nil {
		lo, hi := a.MinField(ts, nil), a.MaxField(ts, nil)
		if minmaxN != ref.minmax.N() {
			t.Fatalf("minmax n: %d != %d", minmaxN, ref.minmax.N())
		}
		for i := 0; i < ref.cells; i++ {
			if lo[i] != ref.minmax.Min(i) || hi[i] != ref.minmax.Max(i) {
				t.Fatalf("step %d minmax cell %d differs", ts, i)
			}
		}
	}
	if ref.exceed != nil {
		ex := a.ExceedanceField(ts, nil)
		if exceedN != ref.exceed.N() {
			t.Fatalf("exceedance n: %d != %d", exceedN, ref.exceed.N())
		}
		for i := 0; i < ref.cells; i++ {
			if ex[i] != ref.exceed.Probability(i) {
				t.Fatalf("step %d exceedance cell %d differs", ts, i)
			}
		}
	}
	if ref.higher != nil {
		skew, kurt := a.SkewnessField(ts, nil), a.KurtosisField(ts, nil)
		for i := 0; i < ref.cells; i++ {
			if skew[i] != ref.higher.Skewness(i) || kurt[i] != ref.higher.Kurtosis(i) {
				t.Fatalf("step %d higher moments cell %d differ", ts, i)
			}
		}
	}
	if ref.quant != nil {
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
			got := a.QuantileField(ts, q, nil)
			for i := 0; i < ref.cells; i++ {
				if got[i] != ref.quant.Query(i, q) {
					t.Fatalf("step %d quantile %v cell %d differs", ts, q, i)
				}
			}
		}
	}
}

// TestInterleavedMatchesSeedKernel drives the interleaved accumulator and
// the seed replica with identical update streams over random shapes and all
// Options combinations, interleaving incremental MaxCIWidth calls with folds
// so the per-step cache is exercised against the seed full rescan.
func TestInterleavedMatchesSeedKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(314))
	for ci, opts := range optionCombos() {
		opts := opts
		t.Run(optionName(opts), func(t *testing.T) {
			cells := 1 + rng.Intn(40)
			steps := 1 + rng.Intn(4)
			p := 1 + rng.Intn(9)
			a := core.NewAccumulator(cells, steps, p, opts)
			refs := make([]*refAccum, steps)
			for ts := range refs {
				refs[ts] = newRefAccum(cells, p, opts)
			}
			rounds := 6 + ci%3
			for round := 0; round < rounds; round++ {
				for ts := 0; ts < steps; ts++ {
					for _, s := range refSamples(rng, 2+rng.Intn(4), cells, p) {
						a.UpdateGroup(ts, s.yA, s.yB, s.yC)
						refs[ts].update(s.yA, s.yB, s.yC)
					}
				}
				// The incremental scan must match the seed full rescan at
				// every point of the stream, including after level changes.
				level := []float64{0.95, 0.99}[round%2]
				var want float64
				for ts := 0; ts < steps; ts++ {
					if w := refs[ts].maxCIWidth(level); math.IsInf(w, 1) {
						want = w
						break
					} else if w > want {
						want = w
					}
				}
				if got := a.MaxCIWidth(level); got != want {
					t.Fatalf("round %d: MaxCIWidth %v != seed %v", round, got, want)
				}
				// And a repeated call with no folds in between answers from
				// cache with the same value.
				if got := a.MaxCIWidth(level); got != want {
					t.Fatalf("round %d: cached MaxCIWidth diverged", round)
				}
			}
			for ts := 0; ts < steps; ts++ {
				checkEqual(t, a, ts, refs[ts])
			}
		})
	}
}

// TestInterleavedMergeMatchesSeedKernel merges split update streams through
// both kernels and compares bitwise (including the copy path into an empty
// accumulator).
func TestInterleavedMergeMatchesSeedKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	for _, opts := range optionCombos() {
		// The seed Merge only handled minmax/higher for brevity here; skip
		// combos the replica does not model in its merge path.
		if opts.Threshold != nil || len(opts.Quantiles) > 0 {
			continue
		}
		opts := opts
		t.Run(optionName(opts), func(t *testing.T) {
			const cells, p, steps = 17, 5, 2
			aL := core.NewAccumulator(cells, steps, p, opts)
			aR := core.NewAccumulator(cells, steps, p, opts)
			refL := make([]*refAccum, steps)
			refR := make([]*refAccum, steps)
			for ts := 0; ts < steps; ts++ {
				refL[ts] = newRefAccum(cells, p, opts)
				refR[ts] = newRefAccum(cells, p, opts)
			}
			for ts := 0; ts < steps; ts++ {
				for _, s := range refSamples(rng, 7, cells, p) {
					aL.UpdateGroup(ts, s.yA, s.yB, s.yC)
					refL[ts].update(s.yA, s.yB, s.yC)
				}
				// Right side gets data only at step 0, so step 1 exercises
				// the merge-into-empty copy path in the other direction.
				if ts == 0 {
					for _, s := range refSamples(rng, 5, cells, p) {
						aR.UpdateGroup(ts, s.yA, s.yB, s.yC)
						refR[ts].update(s.yA, s.yB, s.yC)
					}
				}
			}
			aL.Merge(aR)
			for ts := 0; ts < steps; ts++ {
				refL[ts].merge(refR[ts])
				checkEqual(t, aL, ts, refL[ts])
			}
			// Merge into an empty accumulator copies bitwise.
			empty := core.NewAccumulator(cells, steps, p, opts)
			empty.Merge(aL)
			for ts := 0; ts < steps; ts++ {
				checkEqual(t, empty, ts, refL[ts])
			}
		})
	}
}

// TestShardedFoldWorkerInvariance folds one update stream through worker
// pools of width 1 and 4 — one goroutine per shard, as the server pipeline
// does — and requires results bitwise equal to the dense fold, for every
// Options combination. Run under -race this also proves the shard ownership
// contract is data-race free.
func TestShardedFoldWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(1618))
	for _, opts := range optionCombos() {
		opts := opts
		t.Run(optionName(opts), func(t *testing.T) {
			const cells, p, steps, groups = 29, 4, 2, 12
			samples := make([][]refSample, steps)
			for ts := range samples {
				samples[ts] = refSamples(rng, groups, cells, p)
			}
			dense := core.NewAccumulator(cells, steps, p, opts)
			for ts := range samples {
				for _, s := range samples[ts] {
					dense.UpdateGroup(ts, s.yA, s.yB, s.yC)
				}
			}
			for _, workers := range []int{1, 4} {
				sacc := core.NewSharded(cells, steps, p, opts, workers)
				var wg sync.WaitGroup
				for w := 0; w < sacc.NumShards(); w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for ts := range samples {
							for _, s := range samples[ts] {
								sacc.UpdateGroupShard(w, ts, s.yA, s.yB, s.yC)
							}
						}
					}(w)
				}
				wg.Wait()
				for ts := 0; ts < steps; ts++ {
					for k := 0; k < p; k++ {
						for i := 0; i < cells; i++ {
							if sacc.FirstAt(ts, k, i) != dense.FirstAt(ts, k, i) {
								t.Fatalf("workers=%d: S%d(%d,%d) != dense", workers, k, ts, i)
							}
							if sacc.TotalAt(ts, k, i) != dense.TotalAt(ts, k, i) {
								t.Fatalf("workers=%d: ST%d(%d,%d) != dense", workers, k, ts, i)
							}
						}
					}
					if got, want := sacc.MaxCIWidth(0.95), dense.MaxCIWidth(0.95); got != want {
						t.Fatalf("workers=%d: MaxCIWidth %v != dense %v", workers, got, want)
					}
				}
			}
		})
	}
}

// TestShardedTrackerEquivalence is the tracker-value counterpart of the
// fold-worker invariance test: one update stream folded through worker pools
// of width 1 and 4 (one goroutine per shard, as the server pipeline runs),
// shards stitched back dense, and every tracker statistic — min/max,
// exceedance sample counts and probabilities, skewness/kurtosis, quantiles —
// required bitwise equal to the seed-replica kernel, for every Options
// combination. Under -race this also proves the interleaved tracker slots
// keep the shard ownership contract data-race free.
func TestShardedTrackerEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for _, opts := range optionCombos() {
		opts := opts
		t.Run(optionName(opts), func(t *testing.T) {
			const cells, p, steps, groups = 31, 5, 2, 10
			samples := make([][]refSample, steps)
			refs := make([]*refAccum, steps)
			for ts := range samples {
				samples[ts] = refSamples(rng, groups, cells, p)
				refs[ts] = newRefAccum(cells, p, opts)
				for _, s := range samples[ts] {
					refs[ts].update(s.yA, s.yB, s.yC)
				}
			}
			for _, workers := range []int{1, 4} {
				sacc := core.NewSharded(cells, steps, p, opts, workers)
				var wg sync.WaitGroup
				for w := 0; w < sacc.NumShards(); w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for ts := range samples {
							for _, s := range samples[ts] {
								sacc.UpdateGroupShard(w, ts, s.yA, s.yB, s.yC)
							}
						}
					}(w)
				}
				wg.Wait()
				dense := sacc.Dense()
				for ts := 0; ts < steps; ts++ {
					checkEqual(t, dense, ts, refs[ts])
					// The stitched getters read the shards directly; they must
					// return what the dense copy does, nil for a disabled tracker.
					for name, pair := range map[string][2][]float64{
						"min":        {sacc.MinField(ts, nil), dense.MinField(ts, nil)},
						"max":        {sacc.MaxField(ts, nil), dense.MaxField(ts, nil)},
						"exceedance": {sacc.ExceedanceField(ts, nil), dense.ExceedanceField(ts, nil)},
						"skewness":   {sacc.SkewnessField(ts, nil), dense.SkewnessField(ts, nil)},
						"kurtosis":   {sacc.KurtosisField(ts, nil), dense.KurtosisField(ts, nil)},
					} {
						if (pair[0] == nil) != (pair[1] == nil) || !slices.Equal(pair[0], pair[1]) {
							t.Fatalf("workers=%d step %d: stitched %s field != dense", workers, ts, name)
						}
					}
				}
			}
		})
	}
}
