package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// benchSink keeps a benchmarked call's result alive.
var benchSink float64

// BenchmarkUpdateGroup measures the server's hot path: folding one group's
// p+2 fields into the ubiquitous accumulator, at the paper's p = 6 on a
// 10k-cell partition (one server process's share of a larger mesh).
func BenchmarkUpdateGroup10kCellsP6(b *testing.B) {
	const cells, p = 10000, 6
	rng := rand.New(rand.NewSource(1))
	field := func() []float64 {
		f := make([]float64, cells)
		for i := range f {
			f[i] = rng.NormFloat64()
		}
		return f
	}
	a := NewAccumulator(cells, 1, p, Options{})
	yA, yB := field(), field()
	yC := make([][]float64, p)
	for k := range yC {
		yC[k] = field()
	}
	b.SetBytes(8 * cells * (p + 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.UpdateGroup(0, yA, yB, yC)
	}
}

// BenchmarkUpdateGroupFlood8kCells32StepsP4 folds at the shape of one
// flood_mem server process — 8192 cells × 32 steps × p = 4, 42 MB of
// records — cycling the step, so every fold finds its records out of L2.
// BenchmarkUpdateGroupFlood4kCells1StepP4 is its cache-resident twin: the
// same kernel on 4096 cells of one step, whose records stay in L2. The gap
// between their ns/cell is what the fold pays for bytes; the L2 figure is
// what it pays for instructions.
func BenchmarkUpdateGroupFlood8kCells32StepsP4(b *testing.B) { benchmarkFlood(b, 8192, 32) }

func BenchmarkUpdateGroupFlood4kCells1StepP4(b *testing.B) { benchmarkFlood(b, 4096, 1) }

func benchmarkFlood(b *testing.B, cells, steps int) {
	const p = 4
	a := NewAccumulator(cells, steps, p, Options{})
	g := randomGroups(rand.New(rand.NewSource(1)), 1, cells, p)[0]
	for t := 0; t < steps; t++ { // fault the record pages in
		a.UpdateGroup(t, g.yA, g.yB, g.yC)
	}
	b.SetBytes(8 * int64(cells) * (p + 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.UpdateGroup(i%steps, g.yA, g.yB, g.yC)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
}

// BenchmarkUpdateGroupSharded10kCellsP6 measures the same fold split into
// cell-range shards with one goroutine per shard — the server's fold
// worker-pool configuration. Compare ns/op against the unsharded benchmark
// above: the work per fold is identical, so the speedup is the pool width
// (minus coordination overhead).
func BenchmarkUpdateGroupSharded10kCellsP6(b *testing.B) {
	const cells, p = 10000, 6
	rng := rand.New(rand.NewSource(1))
	field := func() []float64 {
		f := make([]float64, cells)
		for i := range f {
			f[i] = rng.NormFloat64()
		}
		return f
	}
	yA, yB := field(), field()
	yC := make([][]float64, p)
	for k := range yC {
		yC[k] = field()
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			sacc := NewSharded(cells, 1, p, Options{}, workers)
			b.SetBytes(8 * cells * (p + 2))
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < sacc.NumShards(); w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					lo, hi := sacc.ShardRange(w)
					yc := make([][]float64, p)
					for k := range yc {
						yc[k] = yC[k][lo:hi]
					}
					for i := 0; i < b.N; i++ {
						sacc.UpdateShard(w, 0, yA[lo:hi], yB[lo:hi], yc)
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// BenchmarkUpdateGroup10kCellsP16 is the hot loop at a wider parameter
// count, where the layout matters most: the seed kernel made p+1 = 17
// passes over 68 parallel arrays per fold, the interleaved kernel one pass
// over one contiguous buffer.
func BenchmarkUpdateGroup10kCellsP16(b *testing.B) {
	const cells, p = 10000, 16
	rng := rand.New(rand.NewSource(1))
	field := func() []float64 {
		f := make([]float64, cells)
		for i := range f {
			f[i] = rng.NormFloat64()
		}
		return f
	}
	a := NewAccumulator(cells, 1, p, Options{})
	yA, yB := field(), field()
	yC := make([][]float64, p)
	for k := range yC {
		yC[k] = field()
	}
	b.SetBytes(8 * cells * (p + 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.UpdateGroup(0, yA, yB, yC)
	}
}

// BenchmarkMaxCIWidthRepeatedFewDirty measures the incremental convergence
// scan in the server's reporting pattern: between two reports only one
// timestep's worth of state folded new groups, so the scan must rescan that
// timestep only and answer the other 19 from cache — cost proportional to
// the dirty state, not the 20× larger total state.
func BenchmarkMaxCIWidthRepeatedFewDirty(b *testing.B) {
	const cells, p, steps, shards = 20000, 6, 20, 16
	rng := rand.New(rand.NewSource(3))
	sacc := NewSharded(cells, steps, p, Options{}, shards)
	groups := randomGroups(rng, 8, cells, p)
	for t := 0; t < steps; t++ {
		for _, g := range groups {
			sacc.UpdateGroup(t, g.yA, g.yB, g.yC)
		}
	}
	g := groups[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sacc.UpdateGroup(i%steps, g.yA, g.yB, g.yC)
		_ = sacc.MaxCIWidth(0.95)
	}
}

// BenchmarkMaxCIWidthAllClean is the degenerate report: nothing folded since
// the last scan, every step answers from cache — O(shards × timesteps)
// regardless of cells and p.
func BenchmarkMaxCIWidthAllClean(b *testing.B) {
	const cells, p, steps, shards = 20000, 6, 20, 16
	rng := rand.New(rand.NewSource(3))
	sacc := NewSharded(cells, steps, p, Options{}, shards)
	for _, g := range randomGroups(rng, 8, cells, p) {
		for t := 0; t < steps; t++ {
			sacc.UpdateGroup(t, g.yA, g.yB, g.yC)
		}
	}
	sacc.MaxCIWidth(0.95) // prime the caches
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sacc.MaxCIWidth(0.95)
	}
}

// BenchmarkMaxCIWidthAllDirty is the worst report: every timestep folded a
// group since the last scan, at the per-process shape of the study benchmark's
// flood workloads (8192 cells × 32 steps × p = 4). "scattered" folds
// independent noise, so |ρ̂| differs freely between cells; "smooth" folds
// float32-rounded y = base(x) + a·pert(x), where every cell of a (step,
// parameter) carries the same ρ̂ up to rounding — the layout on which a
// running-minimum scan would evaluate every cell. CI gates on both.
func BenchmarkMaxCIWidthAllDirty(b *testing.B) {
	const cells, p, steps, groups = 8192, 4, 32, 8
	scattered := func(rng *rand.Rand) []groupSample { return randomGroups(rng, groups, cells, p) }
	smooth := func(rng *rand.Rand) []groupSample {
		field := func(a float64) []float64 {
			f := make([]float64, cells)
			for i := range f {
				x := float64(i) / cells
				f[i] = float64(float32(20 + 4*math.Sin(7*x) + a*(1+0.3*math.Sin(3*x))))
			}
			return f
		}
		out := make([]groupSample, groups)
		for g := range out {
			// Pick-freeze: C^k has A's amplitude with parameter k taken from B.
			xa, xb := make([]float64, p), make([]float64, p)
			var aA, aB float64
			for k := 0; k < p; k++ {
				xa[k], xb[k] = 2*rng.Float64()-1, 2*rng.Float64()-1
				aA += 0.1 * float64(k+1) * xa[k]
				aB += 0.1 * float64(k+1) * xb[k]
			}
			s := groupSample{yA: field(aA), yB: field(aB), yC: make([][]float64, p)}
			for k := range s.yC {
				s.yC[k] = field(aA + 0.1*float64(k+1)*(xb[k]-xa[k]))
			}
			out[g] = s
		}
		return out
	}
	for _, c := range []struct {
		name string
		gen  func(*rand.Rand) []groupSample
	}{{"scattered", scattered}, {"smooth", smooth}} {
		b.Run(c.name, func(b *testing.B) {
			a := NewAccumulator(cells, steps, p, Options{})
			gs := c.gen(rand.New(rand.NewSource(5)))
			for t := 0; t < steps; t++ {
				feedAll(a, t, gs)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for t := range a.shards[0].steps {
					a.shards[0].steps[t].ciDirty = true
				}
				benchSink = a.MaxCIWidth(0.95)
			}
		})
	}
}

// BenchmarkUpdateGroupQuantiles10kCellsP6 is the same hot path with
// per-cell quantile sketches enabled — the cost of the first
// data-structure-valued ubiquitous statistic. Compare against
// BenchmarkUpdateGroup10kCellsP6 for the sketch overhead per fold.
func BenchmarkUpdateGroupQuantiles10kCellsP6(b *testing.B) {
	const cells, p = 10000, 6
	rng := rand.New(rand.NewSource(1))
	field := func() []float64 {
		f := make([]float64, cells)
		for i := range f {
			f[i] = rng.NormFloat64()
		}
		return f
	}
	a := NewAccumulator(cells, 1, p, Options{
		Quantiles: []float64{0.05, 0.5, 0.95},
	})
	yA, yB := field(), field()
	yC := make([][]float64, p)
	for k := range yC {
		yC[k] = field()
	}
	b.SetBytes(8 * cells * (p + 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Perturb deterministically so the sketches keep absorbing fresh
		// values instead of replaying one sample.
		for c := 0; c < cells; c++ {
			yA[c] += 1e-6
			yB[c] -= 1e-6
		}
		a.UpdateGroup(0, yA, yB, yC)
	}
}

// BenchmarkUpdateGroupTrackers10kCellsP6 is the hot path with every float
// tracker enabled (min/max, threshold exceedance, higher moments) — the
// configuration where tracker state layout matters: interleaved tracker
// slots ride the same per-cell record sweep as the Sobol' state, instead of
// three extra strided passes over separate arrays. Compare against
// BenchmarkUpdateGroup10kCellsP6 for the marginal tracker cost.
func BenchmarkUpdateGroupTrackers10kCellsP6(b *testing.B) {
	const cells, p = 10000, 6
	rng := rand.New(rand.NewSource(1))
	field := func() []float64 {
		f := make([]float64, cells)
		for i := range f {
			f[i] = rng.NormFloat64()
		}
		return f
	}
	th := 0.5
	a := NewAccumulator(cells, 1, p, Options{
		MinMax:        true,
		Threshold:     &th,
		HigherMoments: true,
	})
	yA, yB := field(), field()
	yC := make([][]float64, p)
	for k := range yC {
		yC[k] = field()
	}
	b.SetBytes(8 * cells * (p + 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.UpdateGroup(0, yA, yB, yC)
	}
}

// BenchmarkMemoryModel reports the Sec. 4.1.1 server memory at the paper's
// full scale (9.6M cells, 100 timesteps, p = 6) without allocating it.
func BenchmarkMemoryModel(b *testing.B) {
	small := NewAccumulator(1, 1, 6, Options{})
	var bytes int64
	for i := 0; i < b.N; i++ {
		// The model is linear in cells×timesteps; scale from the unit size.
		bytes = small.MemoryBytes() * 9603840 * 100
	}
	b.ReportMetric(float64(bytes)/1e9, "fullscale-GB")
}

func BenchmarkFirstField(b *testing.B) {
	const cells, p = 10000, 6
	a := NewAccumulator(cells, 1, p, Options{})
	rng := rand.New(rand.NewSource(2))
	groups := randomGroups(rng, 16, cells, p)
	feedAll(a, 0, groups)
	dst := make([]float64, cells)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.FirstField(0, i%p, dst)
	}
}

func BenchmarkTrackerFilter(b *testing.B) {
	tr := NewGroupTracker(99)
	for g := 0; g < 1000; g++ {
		tr.Commit(g, g%100)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ShouldApply(i%1000, i%100)
	}
}
