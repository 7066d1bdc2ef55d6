package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"melissa/internal/enc"
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
	if got := a.Quantiles(0).N(); got != int64(n) {
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

	dense := NewAccumulator(cells, 1, p, quantileOpts(0.02))
	feedAll(dense, 0, groups)

	probes := []float64{0.05, 0.25, 0.5, 0.75, 0.95}
	var want []float64
	for _, shards := range []int{1, 2, 5, 11} {
		s := NewSharded(cells, 1, p, quantileOpts(0.02), shards)
		feedSharded(s, 0, groups)
		for _, q := range probes {
			want = dense.QuantileField(0, q, want)
			got := s.QuantileField(0, q, nil)
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("%d shards: quantile %v cell %d = %v, dense %v",
						shards, q, c, got[c], want[c])
				}
			}
		}
	}
}

// TestAccumulatorQuantileMerge: merged accumulators keep the ε rank
// contract for the combined stream (sketch merges compose rank-wise).
func TestAccumulatorQuantileMerge(t *testing.T) {
	const cells, p, nGroups, eps = 4, 2, 3000, 0.02
	rng := rand.New(rand.NewSource(62))
	groups := randomGroups(rng, nGroups, cells, p)

	partA := NewAccumulator(cells, 1, p, quantileOpts(eps))
	partB := NewAccumulator(cells, 1, p, quantileOpts(eps))
	exact := make([][]float64, cells)
	for gi, g := range groups {
		if gi%2 == 0 {
			partA.UpdateGroup(0, g.yA, g.yB, g.yC)
		} else {
			partB.UpdateGroup(0, g.yA, g.yB, g.yC)
		}
		for i := 0; i < cells; i++ {
			exact[i] = append(exact[i], g.yA[i], g.yB[i])
		}
	}
	partA.Merge(partB)

	n := 2 * nGroups
	if got := partA.Quantiles(0).N(); got != int64(n) {
		t.Fatalf("merged quantile n = %d, want %d", got, n)
	}
	allowed := int(math.Ceil(eps * float64(n)))
	for i := range exact {
		sort.Float64s(exact[i])
	}
	for _, q := range []float64{0.05, 0.5, 0.95} {
		f := partA.QuantileField(0, q, nil)
		target := int(math.Ceil(q * float64(n)))
		for i, got := range f {
			lo := sort.SearchFloat64s(exact[i], got) + 1
			hi := sort.Search(n, func(j int) bool { return exact[i][j] > got })
			err := 0
			if target < lo {
				err = lo - target
			} else if target > hi {
				err = target - hi
			}
			if err > allowed {
				t.Errorf("merged cell %d q=%v: rank error %d exceeds εn = %d", i, q, err, allowed)
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
	if a.Quantiles(0) != nil || a.QuantileProbes() != nil {
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

// TestAccumulatorLayoutV1RoundTrip: the V1 layout (pre-quantile builds)
// still round-trips bit-exactly for every V1 statistic, and a V1 stream
// restores into the V2 reader with quantiles disabled — old checkpoints
// stay readable.
func TestAccumulatorLayoutV1RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	th := 0.75
	const cells, p, steps = 5, 2, 2
	opts := Options{MinMax: true, Threshold: &th, HigherMoments: true,
		Quantiles: []float64{0.5}, QuantileEps: 0.05}
	a := NewAccumulator(cells, steps, p, opts)
	for s := 0; s < steps; s++ {
		feedAll(a, s, randomGroups(rng, 7, cells, p))
	}

	// What an old build would have written: the V1 layout has no quantile
	// block (EncodeVersion drops it).
	w := enc.NewWriter(4096)
	a.EncodeVersion(w, LayoutV1)
	b, err := DecodeAccumulatorVersion(enc.NewReader(w.Bytes()), LayoutV1)
	if err != nil {
		t.Fatalf("v1 decode: %v", err)
	}
	if b.QuantileProbes() != nil || b.Quantiles(0) != nil {
		t.Fatal("v1 stream restored with quantile state")
	}
	for s := 0; s < steps; s++ {
		if b.N(s) != a.N(s) {
			t.Fatalf("step %d: n %d vs %d", s, b.N(s), a.N(s))
		}
		for k := 0; k < p; k++ {
			for i := 0; i < cells; i++ {
				if b.FirstAt(s, k, i) != a.FirstAt(s, k, i) || b.TotalAt(s, k, i) != a.TotalAt(s, k, i) {
					t.Fatal("v1 round trip lost Sobol' state")
				}
			}
		}
		if b.MaxField(s, nil)[1] != a.MaxField(s, nil)[1] || b.SkewnessField(s, nil)[0] != a.SkewnessField(s, nil)[0] {
			t.Fatal("v1 round trip lost optional stats")
		}
	}
	// The restored accumulator keeps folding (server restart from an old
	// checkpoint) — just without quantiles.
	feedAll(b, 0, randomGroups(rng, 2, cells, p))
	if b.N(0) != a.N(0)+2 {
		t.Fatal("v1-restored accumulator cannot continue")
	}

	// Unknown layout versions are rejected cleanly on both sides.
	if _, err := DecodeAccumulatorVersion(enc.NewReader(w.Bytes()), LayoutCurrent+1); err == nil {
		t.Fatal("future layout version accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("EncodeVersion accepted an unknown version")
			}
		}()
		a.EncodeVersion(enc.NewWriter(16), LayoutCurrent+1)
	}()
}
