package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"melissa/internal/enc"
)

func shardedOpts() Options {
	th := 0.5
	return Options{
		MinMax:        true,
		Threshold:     &th,
		HigherMoments: true,
		Quantiles:     []float64{0.05, 0.5, 0.95},
		QuantileEps:   0.02,
	}
}

// updateShard folds shard i's cell range of g at step t, the way a fold
// worker does.
func updateShard(a *Accumulator, i, t int, g groupSample) {
	lo, hi := a.ShardRange(i)
	yC := make([][]float64, len(g.yC))
	for k, f := range g.yC {
		yC[k] = f[lo:hi]
	}
	a.UpdateShard(i, t, g.yA[lo:hi], g.yB[lo:hi], yC)
}

// TestShardedMatchesOneShardBitwise is the core equivalence guarantee: for
// any shard count, folding the same update stream yields bitwise-identical
// statistics, because each cell sees the exact same float operation
// sequence.
func TestShardedMatchesOneShardBitwise(t *testing.T) {
	const cells, timesteps, p, nGroups = 101, 3, 4, 12
	rng := rand.New(rand.NewSource(7))
	streams := make([][]groupSample, timesteps)
	for ts := range streams {
		streams[ts] = randomGroups(rng, nGroups, cells, p)
	}

	one := NewAccumulator(cells, timesteps, p, shardedOpts())
	for ts, groups := range streams {
		feedAll(one, ts, groups)
	}

	for _, shards := range []int{1, 2, 3, 7, cells, cells + 5} {
		s := NewSharded(cells, timesteps, p, shardedOpts(), shards)
		if shards <= cells && s.NumShards() != shards {
			t.Fatalf("NewSharded(%d) produced %d shards", shards, s.NumShards())
		}
		for ts, groups := range streams {
			feedAll(s, ts, groups)
		}
		compareBitwise(t, s, one)
	}
}

// compareBitwise requires got to read exactly what want reads through every
// getter: the same shape, counts, indices, fields, quantiles, convergence
// width and memory.
func compareBitwise(t *testing.T, got, want *Accumulator) {
	t.Helper()
	cells, timesteps, p := want.Cells(), want.Timesteps(), want.P()
	if got.Cells() != cells || got.Timesteps() != timesteps || got.P() != p {
		t.Fatalf("shape %d/%d/%d vs %d/%d/%d",
			got.Cells(), got.Timesteps(), got.P(), cells, timesteps, p)
	}
	var gf, wf []float64
	for ts := 0; ts < timesteps; ts++ {
		if got.N(ts) != want.N(ts) {
			t.Fatalf("step %d: n %d vs %d", ts, got.N(ts), want.N(ts))
		}
		for k := 0; k < p; k++ {
			gf = got.FirstField(ts, k, gf)
			wf = want.FirstField(ts, k, wf)
			for c := range gf {
				if gf[c] != wf[c] {
					t.Fatalf("%d shards: S%d(step %d, cell %d) = %v, want %v",
						got.NumShards(), k, ts, c, gf[c], wf[c])
				}
			}
			gf = got.TotalField(ts, k, gf)
			wf = want.TotalField(ts, k, wf)
			for c := range gf {
				if gf[c] != wf[c] {
					t.Fatalf("%d shards: ST%d(step %d, cell %d) = %v, want %v",
						got.NumShards(), k, ts, c, gf[c], wf[c])
				}
			}
			for _, c := range []int{0, cells / 2, cells - 1} {
				if got.FirstAt(ts, k, c) != want.FirstAt(ts, k, c) {
					t.Fatalf("FirstAt(%d,%d,%d) mismatch", ts, k, c)
				}
				if got.TotalAt(ts, k, c) != want.TotalAt(ts, k, c) {
					t.Fatalf("TotalAt(%d,%d,%d) mismatch", ts, k, c)
				}
			}
		}
		fields := map[string][2][]float64{
			"mean":        {got.MeanField(ts, nil), want.MeanField(ts, nil)},
			"variance":    {got.VarianceField(ts, nil), want.VarianceField(ts, nil)},
			"interaction": {got.InteractionField(ts, nil), want.InteractionField(ts, nil)},
			"min":         {got.MinField(ts, nil), want.MinField(ts, nil)},
			"max":         {got.MaxField(ts, nil), want.MaxField(ts, nil)},
			"exceedance":  {got.ExceedanceField(ts, nil), want.ExceedanceField(ts, nil)},
			"skewness":    {got.SkewnessField(ts, nil), want.SkewnessField(ts, nil)},
			"kurtosis":    {got.KurtosisField(ts, nil), want.KurtosisField(ts, nil)},
		}
		for _, q := range want.QuantileProbes() {
			fields[fmt.Sprintf("quantile-%v", q)] =
				[2][]float64{got.QuantileField(ts, q, nil), want.QuantileField(ts, q, nil)}
		}
		for name, pair := range fields {
			if (pair[0] == nil) != (pair[1] == nil) || len(pair[0]) != len(pair[1]) {
				t.Fatalf("%d shards: %s(step %d) has %d cells (nil %v), want %d (nil %v)",
					got.NumShards(), name, ts, len(pair[0]), pair[0] == nil, len(pair[1]), pair[1] == nil)
			}
			for c := range pair[0] {
				if pair[0][c] != pair[1][c] {
					t.Fatalf("%d shards: %s(step %d, cell %d) = %v, want %v",
						got.NumShards(), name, ts, c, pair[0][c], pair[1][c])
				}
			}
		}
	}
	if got.MaxCIWidth(0.95) != want.MaxCIWidth(0.95) {
		t.Fatalf("MaxCIWidth %v vs %v", got.MaxCIWidth(0.95), want.MaxCIWidth(0.95))
	}
	if got.MemoryBytes() != want.MemoryBytes() {
		t.Fatalf("MemoryBytes %d vs %d", got.MemoryBytes(), want.MemoryBytes())
	}
}

// TestShardedConcurrentFoldRace hammers the per-shard concurrency contract:
// one goroutine per shard, all folding the same ordered stream — the exact
// access pattern of the server worker pool. Run with -race; results must
// still be bitwise equal to one shard.
func TestShardedConcurrentFoldRace(t *testing.T) {
	const cells, p, nGroups, shards = 64, 3, 40, 4
	rng := rand.New(rand.NewSource(11))
	groups := randomGroups(rng, nGroups, cells, p)

	one := NewAccumulator(cells, 1, p, Options{})
	feedAll(one, 0, groups)

	s := NewSharded(cells, 1, p, Options{}, shards)
	var wg sync.WaitGroup
	for w := 0; w < s.NumShards(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, g := range groups {
				updateShard(s, w, 0, g)
			}
		}(w)
	}
	wg.Wait()
	compareBitwise(t, s, one)
}

// restoreSharded splits an accumulator into `shards` shards the way a
// restart does: through its checkpoint encoding.
func restoreSharded(t *testing.T, a *Accumulator, shards int) *Accumulator {
	t.Helper()
	var w enc.Writer
	a.Encode(&w)
	s, err := DecodeShardedVersion(enc.NewReader(w.Bytes()), LayoutCurrent, shards)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShardedSplitRoundTrip checks a restore into shards: a one-shard
// accumulator restored into n shards mid-stream must keep folding
// identically, at any shard count, and encode to the same bytes.
func TestShardedSplitRoundTrip(t *testing.T) {
	const cells, p = 53, 3
	rng := rand.New(rand.NewSource(3))
	first := randomGroups(rng, 8, cells, p)
	second := randomGroups(rng, 8, cells, p)

	one := NewAccumulator(cells, 1, p, shardedOpts())
	feedAll(one, 0, first)
	split := make([]*Accumulator, 0, 3)
	for _, n := range []int{1, 4, cells} {
		split = append(split, restoreSharded(t, one, n))
	}
	feedAll(one, 0, second)
	var wd enc.Writer
	one.Encode(&wd)
	for _, s := range split {
		feedAll(s, 0, second)
		compareBitwise(t, s, one)
		var ws enc.Writer
		s.Encode(&ws)
		if !bytes.Equal(wd.Bytes(), ws.Bytes()) {
			t.Fatalf("%d shards: the split state encodes differently", s.NumShards())
		}
	}
}

// TestAccumulatorShard checks the range split of a restore: the shards cover
// the partition contiguously, in order, each holding exactly the cells of
// its range.
func TestAccumulatorShard(t *testing.T) {
	const cells, p = 10, 2
	rng := rand.New(rand.NewSource(5))
	one := NewAccumulator(cells, 1, p, Options{})
	feedAll(one, 0, randomGroups(rng, 5, cells, p))

	s := restoreSharded(t, one, 3)
	covered := 0
	for i := 0; i < s.NumShards(); i++ {
		lo, hi := s.ShardRange(i)
		sh := s.shards[i]
		if lo != covered || sh.cells != hi-lo {
			t.Fatalf("shard %d covers [%d,%d) with %d cells after %d covered", i, lo, hi, sh.cells, covered)
		}
		for c := 0; c < sh.cells; c++ {
			if got, want := sh.FirstAt(0, 0, c), one.FirstAt(0, 0, lo+c); got != want {
				t.Fatalf("shard %d cell %d: %v vs one shard %v", i, c, got, want)
			}
		}
		covered = hi
	}
	if covered != cells {
		t.Fatalf("shards cover %d of %d cells", covered, cells)
	}
}

// TestJoinMatchesOneAccumulator: k accumulators, each fed its consecutive
// cell range of one update stream, joined in order read every getter
// bitwise equal to one accumulator fed the whole range — the study result
// over its server processes — whatever the parts' own shard counts.
func TestJoinMatchesOneAccumulator(t *testing.T) {
	const cells, timesteps, p, nGroups = 47, 2, 3, 9
	rng := rand.New(rand.NewSource(13))
	streams := make([][]groupSample, timesteps)
	for ts := range streams {
		streams[ts] = randomGroups(rng, nGroups, cells, p)
	}
	whole := NewAccumulator(cells, timesteps, p, shardedOpts())
	for ts, groups := range streams {
		feedAll(whole, ts, groups)
	}
	for _, cuts := range [][]int{{0, cells}, {0, 20, cells}, {0, 1, 16, 30, cells}, {0, 0, 23, cells}} {
		parts := make([]*Accumulator, len(cuts)-1)
		for i := range parts {
			lo, hi := cuts[i], cuts[i+1]
			parts[i] = NewSharded(hi-lo, timesteps, p, shardedOpts(), 1+i%3)
			for ts, groups := range streams {
				for _, g := range groups {
					yC := make([][]float64, p)
					for k := range yC {
						yC[k] = g.yC[k][lo:hi]
					}
					parts[i].UpdateGroup(ts, g.yA[lo:hi], g.yB[lo:hi], yC)
				}
			}
		}
		joined := Join(parts...)
		compareBitwise(t, joined, whole)
		if !bytes.Equal(encodeBytes(joined), encodeBytes(whole)) {
			t.Fatalf("cuts %v: joined accumulator encodes differently", cuts)
		}
	}

	// A statistic one part lacks reads as absent over the joined cells.
	mixed := Join(NewAccumulator(3, timesteps, p, Options{MinMax: true}), NewAccumulator(4, timesteps, p, Options{}))
	if mixed.MinField(0, nil) != nil || mixed.Cells() != 7 {
		t.Fatalf("joined min field %v over %d cells, want nil over 7", mixed.MinField(0, nil), mixed.Cells())
	}
	// Parts of different shapes do not join.
	defer func() {
		if recover() == nil {
			t.Fatal("Join accepted parts with different timesteps")
		}
	}()
	Join(NewAccumulator(3, timesteps, p, Options{}), NewAccumulator(3, timesteps+1, p, Options{}))
}

func encodeBytes(a *Accumulator) []byte {
	var w enc.Writer
	a.Encode(&w)
	return w.Bytes()
}
