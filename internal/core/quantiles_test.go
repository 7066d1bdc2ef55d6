package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func quantileOpts(eps float64) Options {
	return Options{Quantiles: []float64{0.05, 0.5, 0.95}, QuantileEps: eps}
}

// TestAccumulatorQuantileAccuracy is the acceptance criterion at the
// accumulator level: on a ≥10k-member synthetic ensemble the per-cell
// sketch quantiles are within the documented rank error ε of the exact
// sorted-sample quantiles of the pooled A/B stream, while memory stays
// O(1/ε) per cell instead of O(n).
func TestAccumulatorQuantileAccuracy(t *testing.T) {
	const cells, p, nGroups, eps = 6, 2, 10000, 0.01
	rng := rand.New(rand.NewSource(60))
	a := NewAccumulator(cells, 1, p, quantileOpts(eps))

	// Pooled A and B samples per cell — exactly what the quantile tracker
	// sees (2 samples per group).
	exact := make([][]float64, cells)
	yA := make([]float64, cells)
	yB := make([]float64, cells)
	yC := make([][]float64, p)
	for k := range yC {
		yC[k] = make([]float64, cells)
	}
	for g := 0; g < nGroups; g++ {
		for i := 0; i < cells; i++ {
			// Distinct shape per cell: shifted log-normal-ish streams.
			yA[i] = math.Exp(rng.NormFloat64()*0.5) + float64(i)
			yB[i] = math.Exp(rng.NormFloat64()*0.5) + float64(i)
			exact[i] = append(exact[i], yA[i], yB[i])
			for k := range yC {
				yC[k][i] = rng.NormFloat64()
			}
		}
		a.UpdateGroup(0, yA, yB, yC)
	}

	n := 2 * nGroups
	allowed := int(math.Ceil(eps * float64(n)))
	for i := range exact {
		sort.Float64s(exact[i])
	}
	var dst []float64
	for _, q := range a.QuantileProbes() {
		dst = a.QuantileField(0, q, dst)
		target := int(math.Ceil(q * float64(n)))
		for i, got := range dst {
			lo := sort.SearchFloat64s(exact[i], got) + 1
			hi := sort.Search(n, func(j int) bool { return exact[i][j] > got })
			err := 0
			if target < lo {
				err = lo - target
			} else if target > hi {
				err = target - hi
			}
			if err > allowed {
				t.Errorf("cell %d q=%v: rank error %d exceeds εn = %d", i, q, err, allowed)
			}
		}
	}
	// Memory: the sketches must hold far less than the 2·nGroups raw
	// samples per cell (8 bytes each), and the probe list must be intact.
	raw := int64(8 * n * cells)
	base := NewAccumulator(cells, 1, p, Options{}).MemoryBytes()
	if sketchBytes := a.MemoryBytes() - base; sketchBytes >= raw/10 {
		t.Fatalf("quantile state uses %d bytes, raw sample would be %d: not O(1/ε)", sketchBytes, raw)
	}
	if got := a.shards[0].steps[0].quant.N(); got != int64(n) {
		t.Fatalf("quantile sample count %d, want %d", got, n)
	}
}

// TestShardedQuantilesFoldWorkerInvariance: per-cell sketches are bitwise
// identical across shard counts, including under the concurrent per-shard
// fold pattern of the server worker pool.
func TestShardedQuantilesFoldWorkerInvariance(t *testing.T) {
	const cells, p, nGroups = 37, 2, 60
	rng := rand.New(rand.NewSource(61))
	groups := randomGroups(rng, nGroups, cells, p)

	one := NewAccumulator(cells, 1, p, quantileOpts(0.02))
	feedAll(one, 0, groups)

	probes := []float64{0.05, 0.25, 0.5, 0.75, 0.95}
	var want []float64
	for _, shards := range []int{1, 2, 5, 11} {
		s := NewSharded(cells, 1, p, quantileOpts(0.02), shards)
		feedAll(s, 0, groups)
		for _, q := range probes {
			want = one.QuantileField(0, q, want)
			got := s.QuantileField(0, q, nil)
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("%d shards: quantile %v cell %d = %v, one shard %v",
						shards, q, c, got[c], want[c])
				}
			}
		}
	}
}

// TestQuantileFieldDisabled: without the option the field reads as zeros
// and no sketch state exists.
func TestQuantileFieldDisabled(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	a := NewAccumulator(3, 1, 2, Options{})
	feedAll(a, 0, randomGroups(rng, 5, 3, 2))
	if a.shards[0].steps[0].quant != nil || a.QuantileProbes() != nil {
		t.Fatal("quantiles enabled by default")
	}
	for _, v := range a.QuantileField(0, 0.5, nil) {
		if v != 0 {
			t.Fatal("disabled quantile field is not zero")
		}
	}
}

func TestAccumulatorBadQuantileProbePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAccumulator(2, 1, 1, Options{Quantiles: []float64{1.5}})
}
