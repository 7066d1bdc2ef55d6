package core

import "fmt"

// ShardedAccumulator is an Accumulator split into contiguous cell-range
// shards so that independent cell sub-ranges can be folded concurrently by
// a worker pool: worker i owns shard i and is the only goroutine allowed to
// call UpdateGroupShard(i, ...). Because every (group, timestep) update
// covers all shards and each worker applies updates in the order they were
// enqueued, the per-cell operation sequence is identical to the
// single-threaded Accumulator — sharded results are bitwise equal to dense
// results for the same update stream.
//
// Read methods (FirstField, MaxCIWidth, Dense, ...) present the dense
// single-partition view and must only be called while no worker is folding
// (the server quiesces its pipeline first). Checkpoints go through a
// Snapshot.
type ShardedAccumulator struct {
	cells     int
	timesteps int
	p         int
	opts      Options

	bounds []int // len(shards)+1 cell offsets; shard i owns [bounds[i], bounds[i+1])
	shards []*Accumulator

	// ycScratch[i] is worker i's reusable header block for the p sub-sliced
	// C fields, so a steady-state fold allocates nothing. Only the owning
	// worker touches ycScratch[i].
	ycScratch [][][]float64
}

// shardBounds evenly splits `cells` cells into `n` contiguous ranges (the
// same block rule as mesh.BlockPartition, kept local to avoid a dependency).
func shardBounds(cells, n int) []int {
	bounds := make([]int, n+1)
	base, rem := cells/n, cells%n
	for i := 0; i < n; i++ {
		bounds[i+1] = bounds[i] + base
		if i < rem {
			bounds[i+1]++
		}
	}
	return bounds
}

func clampShards(cells, shards int) int {
	if shards < 1 {
		shards = 1
	}
	if cells > 0 && shards > cells {
		shards = cells
	}
	return shards
}

// NewSharded returns an empty sharded accumulator over `cells` cells,
// `timesteps` steps and p parameters, split into (at most) `shards`
// contiguous cell ranges. Shards is clamped to [1, cells].
func NewSharded(cells, timesteps, p int, opts Options, shards int) *ShardedAccumulator {
	shards = clampShards(cells, shards)
	s := &ShardedAccumulator{
		cells:     cells,
		timesteps: timesteps,
		p:         p,
		opts:      opts,
		bounds:    shardBounds(cells, shards),
		shards:    make([]*Accumulator, shards),
		ycScratch: make([][][]float64, shards),
	}
	for i := range s.shards {
		s.shards[i] = NewAccumulator(s.bounds[i+1]-s.bounds[i], timesteps, p, opts)
		s.ycScratch[i] = make([][]float64, p)
	}
	return s
}

// injectRange copies src (an accumulator over hi-lo cells) into cells
// [lo, lo+src.cells) of a, adopting src's per-step counts. A cell range of
// the interleaved layout is one contiguous block per timestep — tracker
// slots ride inside the records — so everything but the quantile sketches
// moves with a single copy per step.
func (a *Accumulator) injectRange(src *Accumulator, lo int) {
	for t := range a.steps {
		from, to := &src.steps[t], &a.steps[t]
		to.setCounts(from)
		copy(to.rec[lo*a.stride:(lo+src.cells)*a.stride], from.rec)
		if to.quant != nil && from.quant != nil {
			to.quant.Inject(from.quant, lo)
		}
	}
}

// Cells returns the total partition size across shards.
func (s *ShardedAccumulator) Cells() int { return s.cells }

// Timesteps returns the number of output steps tracked.
func (s *ShardedAccumulator) Timesteps() int { return s.timesteps }

// P returns the number of input parameters.
func (s *ShardedAccumulator) P() int { return s.p }

// NumShards returns the number of cell-range shards.
func (s *ShardedAccumulator) NumShards() int { return len(s.shards) }

// ShardRange returns the [lo, hi) cell range owned by shard i.
func (s *ShardedAccumulator) ShardRange(i int) (lo, hi int) {
	return s.bounds[i], s.bounds[i+1]
}

// ShardAccum exposes the i-th shard's accumulator (tests and diagnostics).
func (s *ShardedAccumulator) ShardAccum(i int) *Accumulator { return s.shards[i] }

// N returns the number of groups folded into timestep t.
func (s *ShardedAccumulator) N(t int) int64 { return s.shards[0].N(t) }

// UpdateGroupShard folds shard i's cell range of one group's results at
// step t. yA, yB and yC[k] are full-partition fields (length Cells());
// the shard sub-slices them in place. Concurrency contract: shard i must
// only ever be updated by one goroutine at a time, and all shards must see
// every (group, step) update in the same order for bitwise-deterministic
// results.
func (s *ShardedAccumulator) UpdateGroupShard(i, t int, yA, yB []float64, yC [][]float64) {
	lo, hi := s.bounds[i], s.bounds[i+1]
	yc := s.ycScratch[i]
	for k := range yc {
		yc[k] = yC[k][lo:hi]
	}
	s.shards[i].UpdateGroup(t, yA[lo:hi], yB[lo:hi], yc)
}

// UpdateGroup folds one group's results into every shard sequentially —
// the dense-compatible path used when no worker pool is running.
func (s *ShardedAccumulator) UpdateGroup(t int, yA, yB []float64, yC [][]float64) {
	for i := range s.shards {
		s.UpdateGroupShard(i, t, yA, yB, yC)
	}
}

// shardFor locates the shard owning global cell i.
func (s *ShardedAccumulator) shardFor(i int) (shard, local int) {
	for si := 0; si < len(s.shards); si++ {
		if i < s.bounds[si+1] {
			return si, i - s.bounds[si]
		}
	}
	panic(fmt.Sprintf("core: cell %d out of range [0,%d)", i, s.cells))
}

// FirstAt returns the first-order index S_k(x, t) for global cell i.
func (s *ShardedAccumulator) FirstAt(t, k, i int) float64 {
	si, li := s.shardFor(i)
	return s.shards[si].FirstAt(t, k, li)
}

// TotalAt returns the total index ST_k(x, t) for global cell i.
func (s *ShardedAccumulator) TotalAt(t, k, i int) float64 {
	si, li := s.shardFor(i)
	return s.shards[si].TotalAt(t, k, li)
}

// stitch runs one shard-level step-t field getter (a method expression such
// as (*Accumulator).MeanField, or a closure binding the extra argument) per
// shard into the matching sub-range of dst. A nil from a shard — a tracker
// that is not enabled, the same on every shard — makes the stitched field nil
// too.
func (s *ShardedAccumulator) stitch(t int, dst []float64, get func(sh *Accumulator, t int, sub []float64) []float64) []float64 {
	dst = ensureLen(dst, s.cells)
	for i, sh := range s.shards {
		if get(sh, t, dst[s.bounds[i]:s.bounds[i+1]]) == nil {
			return nil
		}
	}
	return dst
}

// FirstField writes the per-cell first-order index field S_k(·, t) into dst.
func (s *ShardedAccumulator) FirstField(t, k int, dst []float64) []float64 {
	return s.stitch(t, dst, func(sh *Accumulator, t int, sub []float64) []float64 { return sh.FirstField(t, k, sub) })
}

// TotalField writes the per-cell total-order index field ST_k(·, t) into dst.
func (s *ShardedAccumulator) TotalField(t, k int, dst []float64) []float64 {
	return s.stitch(t, dst, func(sh *Accumulator, t int, sub []float64) []float64 { return sh.TotalField(t, k, sub) })
}

// MeanField writes the per-cell mean of the B sample at step t into dst.
func (s *ShardedAccumulator) MeanField(t int, dst []float64) []float64 {
	return s.stitch(t, dst, (*Accumulator).MeanField)
}

// VarianceField writes the per-cell unbiased variance of the B sample at
// step t into dst.
func (s *ShardedAccumulator) VarianceField(t int, dst []float64) []float64 {
	return s.stitch(t, dst, (*Accumulator).VarianceField)
}

// InteractionField writes 1 − ΣS_k(·, t) into dst.
func (s *ShardedAccumulator) InteractionField(t int, dst []float64) []float64 {
	return s.stitch(t, dst, (*Accumulator).InteractionField)
}

// QuantileField writes the per-cell q-quantile estimate at step t into dst
// (zeros when quantile tracking is disabled).
func (s *ShardedAccumulator) QuantileField(t int, q float64, dst []float64) []float64 {
	return s.stitch(t, dst, func(sh *Accumulator, t int, sub []float64) []float64 { return sh.QuantileField(t, q, sub) })
}

// The optional tracker fields at step t, stitched into dst; each is nil when
// its tracker is not enabled (see the Accumulator methods).

// MinField writes the per-cell minimum over the A and B samples.
func (s *ShardedAccumulator) MinField(t int, dst []float64) []float64 {
	return s.stitch(t, dst, (*Accumulator).MinField)
}

// MaxField writes the per-cell maximum over the A and B samples.
func (s *ShardedAccumulator) MaxField(t int, dst []float64) []float64 {
	return s.stitch(t, dst, (*Accumulator).MaxField)
}

// ExceedanceField writes the per-cell fraction of samples above the threshold.
func (s *ShardedAccumulator) ExceedanceField(t int, dst []float64) []float64 {
	return s.stitch(t, dst, (*Accumulator).ExceedanceField)
}

// SkewnessField writes the per-cell sample skewness.
func (s *ShardedAccumulator) SkewnessField(t int, dst []float64) []float64 {
	return s.stitch(t, dst, (*Accumulator).SkewnessField)
}

// KurtosisField writes the per-cell sample excess kurtosis.
func (s *ShardedAccumulator) KurtosisField(t int, dst []float64) []float64 {
	return s.stitch(t, dst, (*Accumulator).KurtosisField)
}

// QuantileProbes returns the configured quantile probe list (nil when
// quantile tracking is disabled).
func (s *ShardedAccumulator) QuantileProbes() []float64 { return s.opts.Quantiles }

// MaxCIWidth returns the widest confidence interval over all shards — the
// same value as Accumulator.MaxCIWidth on the dense state. Each shard's scan
// is incremental (per-timestep dirty flags and cached widths), so a report
// only pays for the (shard, timestep) ranges that folded new groups since
// the previous call; quiescent shards answer from cache. Like the dense
// scan, this mutates cache state and must not race with shard updates.
func (s *ShardedAccumulator) MaxCIWidth(level float64) float64 {
	var worst float64
	for _, sh := range s.shards {
		if w := sh.MaxCIWidth(level); w > worst {
			worst = w
		}
	}
	return worst
}

// MemoryBytes totals the float64 state across shards (identical to the
// dense accumulator's memory model).
func (s *ShardedAccumulator) MemoryBytes() int64 {
	var total int64
	for _, sh := range s.shards {
		total += sh.MemoryBytes()
	}
	return total
}

// QuantileTupleCount totals the retained quantile-sketch tuples across
// shards (0 when quantiles are disabled) — the sketch-memory telemetry.
func (s *ShardedAccumulator) QuantileTupleCount() int64 {
	var total int64
	for _, sh := range s.shards {
		total += sh.QuantileTupleCount()
	}
	return total
}

// CompactQuantiles runs the sketch compaction pass on every shard (no-op
// when quantiles are disabled). Like the other read/maintenance methods it
// must only run while no worker is folding.
func (s *ShardedAccumulator) CompactQuantiles() {
	for _, sh := range s.shards {
		sh.CompactQuantiles()
	}
}

// Dense assembles the shards back into one dense Accumulator (a copy; the
// shards remain usable).
func (s *ShardedAccumulator) Dense() *Accumulator {
	out := NewAccumulator(s.cells, s.timesteps, s.p, s.opts)
	for i, sh := range s.shards {
		out.injectRange(sh, s.bounds[i])
	}
	return out
}
