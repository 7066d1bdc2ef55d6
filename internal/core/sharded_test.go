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

// feedSharded folds the same stream into every shard sequentially (the
// dense-compatible path).
func feedSharded(s *ShardedAccumulator, t int, groups []groupSample) {
	for _, g := range groups {
		s.UpdateGroup(t, g.yA, g.yB, g.yC)
	}
}

// TestShardedMatchesDenseBitwise is the core equivalence guarantee: for any
// shard count, folding the same update stream yields bitwise-identical
// statistics, because each cell sees the exact same float operation
// sequence.
func TestShardedMatchesDenseBitwise(t *testing.T) {
	const cells, timesteps, p, nGroups = 101, 3, 4, 12
	rng := rand.New(rand.NewSource(7))
	streams := make([][]groupSample, timesteps)
	for ts := range streams {
		streams[ts] = randomGroups(rng, nGroups, cells, p)
	}

	dense := NewAccumulator(cells, timesteps, p, shardedOpts())
	for ts, groups := range streams {
		feedAll(dense, ts, groups)
	}

	for _, shards := range []int{1, 2, 3, 7, cells, cells + 5} {
		s := NewSharded(cells, timesteps, p, shardedOpts(), shards)
		if shards <= cells && s.NumShards() != shards {
			t.Fatalf("NewSharded(%d) produced %d shards", shards, s.NumShards())
		}
		for ts, groups := range streams {
			feedSharded(s, ts, groups)
		}
		compareShardedToDense(t, s, dense)
	}
}

func compareShardedToDense(t *testing.T, s *ShardedAccumulator, dense *Accumulator) {
	t.Helper()
	cells, timesteps, p := dense.Cells(), dense.Timesteps(), dense.P()
	if s.Cells() != cells || s.Timesteps() != timesteps || s.P() != p {
		t.Fatalf("sharded shape %d/%d/%d vs dense %d/%d/%d",
			s.Cells(), s.Timesteps(), s.P(), cells, timesteps, p)
	}
	var sf, df []float64
	for ts := 0; ts < timesteps; ts++ {
		if s.N(ts) != dense.N(ts) {
			t.Fatalf("step %d: n %d vs %d", ts, s.N(ts), dense.N(ts))
		}
		for k := 0; k < p; k++ {
			sf = s.FirstField(ts, k, sf)
			df = dense.FirstField(ts, k, df)
			for c := range sf {
				if sf[c] != df[c] {
					t.Fatalf("%d shards: S%d(step %d, cell %d) = %v, dense %v",
						s.NumShards(), k, ts, c, sf[c], df[c])
				}
			}
			sf = s.TotalField(ts, k, sf)
			df = dense.TotalField(ts, k, df)
			for c := range sf {
				if sf[c] != df[c] {
					t.Fatalf("%d shards: ST%d(step %d, cell %d) = %v, dense %v",
						s.NumShards(), k, ts, c, sf[c], df[c])
				}
			}
			for _, c := range []int{0, cells / 2, cells - 1} {
				if s.FirstAt(ts, k, c) != dense.FirstAt(ts, k, c) {
					t.Fatalf("FirstAt(%d,%d,%d) mismatch", ts, k, c)
				}
				if s.TotalAt(ts, k, c) != dense.TotalAt(ts, k, c) {
					t.Fatalf("TotalAt(%d,%d,%d) mismatch", ts, k, c)
				}
			}
		}
		fields := map[string][2][]float64{
			"mean":        {s.MeanField(ts, nil), dense.MeanField(ts, nil)},
			"variance":    {s.VarianceField(ts, nil), dense.VarianceField(ts, nil)},
			"interaction": {s.InteractionField(ts, nil), dense.InteractionField(ts, nil)},
		}
		for _, q := range dense.QuantileProbes() {
			fields[fmt.Sprintf("quantile-%v", q)] =
				[2][]float64{s.QuantileField(ts, q, nil), dense.QuantileField(ts, q, nil)}
		}
		for name, pair := range fields {
			for c := range pair[0] {
				if pair[0][c] != pair[1][c] {
					t.Fatalf("%d shards: %s(step %d, cell %d) = %v, dense %v",
						s.NumShards(), name, ts, c, pair[0][c], pair[1][c])
				}
			}
		}
	}
	if s.MaxCIWidth(0.95) != dense.MaxCIWidth(0.95) {
		t.Fatalf("MaxCIWidth %v vs %v", s.MaxCIWidth(0.95), dense.MaxCIWidth(0.95))
	}
	if s.MemoryBytes() != dense.MemoryBytes() {
		t.Fatalf("MemoryBytes %d vs %d", s.MemoryBytes(), dense.MemoryBytes())
	}
}

// TestShardedConcurrentFoldRace hammers the per-shard concurrency contract:
// one goroutine per shard, all folding the same ordered stream — the exact
// access pattern of the server worker pool. Run with -race; results must
// still be bitwise equal to dense.
func TestShardedConcurrentFoldRace(t *testing.T) {
	const cells, p, nGroups, shards = 64, 3, 40, 4
	rng := rand.New(rand.NewSource(11))
	groups := randomGroups(rng, nGroups, cells, p)

	dense := NewAccumulator(cells, 1, p, Options{})
	feedAll(dense, 0, groups)

	s := NewSharded(cells, 1, p, Options{}, shards)
	var wg sync.WaitGroup
	for w := 0; w < s.NumShards(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, g := range groups {
				s.UpdateGroupShard(w, 0, g.yA, g.yB, g.yC)
			}
		}(w)
	}
	wg.Wait()
	compareShardedToDense(t, s, dense)
}

// restoreSharded splits a dense accumulator into `shards` shards the way a
// restart does: through its checkpoint encoding.
func restoreSharded(t *testing.T, a *Accumulator, shards int) *ShardedAccumulator {
	t.Helper()
	var w enc.Writer
	a.Encode(&w)
	s, err := DecodeShardedVersion(enc.NewReader(w.Bytes()), LayoutCurrent, shards)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShardedSplitDenseRoundTrip checks the conversions between the dense
// and sharded forms: a dense accumulator restored into shards mid-stream
// must keep folding identically, at any shard count, and Dense() must
// reassemble exactly.
func TestShardedSplitDenseRoundTrip(t *testing.T) {
	const cells, p = 53, 3
	rng := rand.New(rand.NewSource(3))
	first := randomGroups(rng, 8, cells, p)
	second := randomGroups(rng, 8, cells, p)

	dense := NewAccumulator(cells, 1, p, shardedOpts())
	feedAll(dense, 0, first)
	split := make([]*ShardedAccumulator, 0, 3)
	for _, n := range []int{1, 4, cells} {
		split = append(split, restoreSharded(t, dense, n))
	}
	feedAll(dense, 0, second)
	var wd enc.Writer
	dense.Encode(&wd)
	for _, s := range split {
		feedSharded(s, 0, second)
		compareShardedToDense(t, s, dense)
		var ws enc.Writer
		s.Dense().Encode(&ws)
		if !bytes.Equal(wd.Bytes(), ws.Bytes()) {
			t.Fatalf("%d shards: Dense() round trip changed the encoded state", s.NumShards())
		}
	}
}

// TestAccumulatorShard checks the range split of a restore: the shards cover
// the partition contiguously, in order, each holding exactly the dense cells
// of its range.
func TestAccumulatorShard(t *testing.T) {
	const cells, p = 10, 2
	rng := rand.New(rand.NewSource(5))
	dense := NewAccumulator(cells, 1, p, Options{})
	feedAll(dense, 0, randomGroups(rng, 5, cells, p))

	s := restoreSharded(t, dense, 3)
	covered := 0
	for i := 0; i < s.NumShards(); i++ {
		lo, hi := s.ShardRange(i)
		sh := s.ShardAccum(i)
		if lo != covered || sh.Cells() != hi-lo {
			t.Fatalf("shard %d covers [%d,%d) with %d cells after %d covered", i, lo, hi, sh.Cells(), covered)
		}
		for c := 0; c < sh.Cells(); c++ {
			if got, want := sh.FirstAt(0, 0, c), dense.FirstAt(0, 0, lo+c); got != want {
				t.Fatalf("shard %d cell %d: %v vs dense %v", i, c, got, want)
			}
		}
		covered = hi
	}
	if covered != cells {
		t.Fatalf("shards cover %d of %d cells", covered, cells)
	}
}
