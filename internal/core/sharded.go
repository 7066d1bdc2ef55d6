package core

import (
	"fmt"

	"melissa/internal/sobol"
)

// Accumulator holds the ubiquitous Sobol' state of one spatial partition
// across all timesteps, as one or more contiguous cell-range shards. Each
// server process owns one and updates it locally ("updating the statistics
// is a local operation", Sec. 4.1.1); its fold workers update the shards
// concurrently, worker i alone calling the per-shard methods (UpdateShard,
// ShardCIWidth, ShardQuantileTelemetry, SnapshotShard) of shard i. Because
// every (group, timestep) update covers all shards and each worker applies
// updates in the order they were enqueued, each cell sees the same
// operation sequence whatever the shard count: the statistics are bitwise
// those of one shard over the whole partition.
//
// Everything else — UpdateGroup, the field getters, MaxCIWidth, Encode —
// spans every shard and must only run while no worker is folding (the
// server quiesces or stops its pipeline first). Checkpoints go through a
// Snapshot.
type Accumulator struct {
	cells     int
	timesteps int
	p         int
	opts      Options

	bounds []int // len(shards)+1 cell offsets; shard i owns [bounds[i], bounds[i+1])
	shards []*shard

	// yc is UpdateGroup's header block for the p sub-sliced C fields, so a
	// whole-partition fold allocates nothing.
	yc [][]float64
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

// NewAccumulator returns an empty accumulator for a partition of `cells`
// cells, `timesteps` output steps and p input parameters, held as one shard.
func NewAccumulator(cells, timesteps, p int, opts Options) *Accumulator {
	return NewSharded(cells, timesteps, p, opts, 1)
}

// NewSharded returns an empty accumulator like NewAccumulator, split into
// (at most) `shards` contiguous cell ranges. Shards is clamped to
// [1, cells].
func NewSharded(cells, timesteps, p int, opts Options, shards int) *Accumulator {
	return newAccumulator(timesteps, p, opts, shardBounds(cells, clampShards(cells, shards)))
}

// newAccumulator returns an empty accumulator with one shard per range of
// bounds.
func newAccumulator(timesteps, p int, opts Options, bounds []int) *Accumulator {
	a := &Accumulator{
		cells:     bounds[len(bounds)-1],
		timesteps: timesteps,
		p:         p,
		opts:      opts,
		bounds:    bounds,
		shards:    make([]*shard, len(bounds)-1),
	}
	for i := range a.shards {
		a.shards[i] = newShard(bounds[i+1]-bounds[i], timesteps, p, opts)
	}
	a.yc = make([][]float64, p)
	return a
}

// Join returns the accumulator of consecutive partitions, parts in cell
// order: its shards are the parts' shards, shared rather than copied, so it
// reads what the parts hold — the result of a study is its processes'
// accumulators side by side. The parts, at least one, must have the same
// timesteps and parameters. Their optional statistics may differ (a process
// restored from a checkpoint written without one adopts the file's set): a
// tracker field then reads nil and a quantile field zeros over the parts
// without it, and the joined accumulator cannot Encode. The joined
// accumulator and its parts are one state: neither may be read while the
// other is being updated.
func Join(parts ...*Accumulator) *Accumulator {
	j := &Accumulator{timesteps: parts[0].timesteps, p: parts[0].p, opts: parts[0].opts, bounds: []int{0}}
	for _, part := range parts {
		if part.timesteps != j.timesteps || part.p != j.p {
			panic(fmt.Sprintf("core: cannot join accumulators of %d steps × %d parameters and %d × %d",
				j.timesteps, j.p, part.timesteps, part.p))
		}
		for i, sh := range part.shards {
			j.shards = append(j.shards, sh)
			j.bounds = append(j.bounds, j.cells+part.bounds[i+1])
		}
		j.cells += part.cells
	}
	j.yc = make([][]float64, j.p)
	return j
}

// Cells returns the partition size.
func (a *Accumulator) Cells() int { return a.cells }

// Timesteps returns the number of output steps tracked.
func (a *Accumulator) Timesteps() int { return a.timesteps }

// P returns the number of input parameters.
func (a *Accumulator) P() int { return a.p }

// N returns the number of groups folded into timestep t.
func (a *Accumulator) N(t int) int64 { return a.shards[0].steps[t].n }

// NumShards returns the number of cell-range shards.
func (a *Accumulator) NumShards() int { return len(a.shards) }

// ShardRange returns the [lo, hi) cell range owned by shard i.
func (a *Accumulator) ShardRange(i int) (lo, hi int) {
	return a.bounds[i], a.bounds[i+1]
}

// UpdateShard folds shard i's cell range of one group's results at step t:
// yA, yB and yC[k] hold exactly the shard's cells (see ShardRange).
// Concurrency contract: shard i must only ever be updated by one goroutine
// at a time, and all shards must see every (group, step) update in the same
// order for bitwise-deterministic results.
func (a *Accumulator) UpdateShard(i, t int, yA, yB []float64, yC [][]float64) {
	a.shards[i].UpdateGroup(t, yA, yB, yC)
}

// UpdateGroup folds the results of one simulation group at output step t
// into every shard in turn: yA and yB are the fields of f(A_i) and f(B_i)
// restricted to this partition, yC[k] the field of f(C^k_i), each of
// length Cells().
func (a *Accumulator) UpdateGroup(t int, yA, yB []float64, yC [][]float64) {
	if len(yA) != a.cells || len(yB) != a.cells || len(yC) != a.p {
		panic(fmt.Sprintf("core: update shape mismatch: |yA|=%d |yB|=%d |yC|=%d, want cells=%d p=%d",
			len(yA), len(yB), len(yC), a.cells, a.p))
	}
	for k, f := range yC {
		if len(f) != a.cells {
			panic(fmt.Sprintf("core: yC[%d] has %d cells, want %d", k, len(f), a.cells))
		}
	}
	for i, sh := range a.shards {
		lo, hi := a.bounds[i], a.bounds[i+1]
		for k, f := range yC {
			a.yc[k] = f[lo:hi]
		}
		sh.UpdateGroup(t, yA[lo:hi], yB[lo:hi], a.yc)
	}
	clear(a.yc)
}

// ShardCIWidth returns shard i's MaxCIWidth: the goroutine folding shard i
// scans it while the other shards keep folding.
func (a *Accumulator) ShardCIWidth(i int, level float64) float64 {
	return a.shards[i].MaxCIWidth(level)
}

// ShardQuantileTelemetry returns shard i's retained sketch tuples and their
// byte estimate, for the goroutine folding shard i: counting folds buffered
// inserts first.
func (a *Accumulator) ShardQuantileTelemetry(i int) (tuples, bytes int64) {
	return a.shards[i].QuantileTelemetry()
}

// shardFor locates the shard owning cell i.
func (a *Accumulator) shardFor(i int) (sh *shard, local int) {
	for si, sh := range a.shards {
		if i < a.bounds[si+1] {
			return sh, i - a.bounds[si]
		}
	}
	panic(fmt.Sprintf("core: cell %d out of range [0,%d)", i, a.cells))
}

// FirstAt returns the Martinez first-order index S_k(x, t) for cell i.
func (a *Accumulator) FirstAt(t, k, i int) float64 {
	sh, li := a.shardFor(i)
	return sh.FirstAt(t, k, li)
}

// TotalAt returns the total index ST_k(x, t) for cell i. It reports 0
// before two groups have arrived.
func (a *Accumulator) TotalAt(t, k, i int) float64 {
	if a.N(t) < 2 {
		return 0
	}
	sh, li := a.shardFor(i)
	r := sh.rec(t, li)
	off := recHeader + recPerParam*k
	return 1 - correlation(r[off+blkC2AC], r[offM2A], r[off+blkM2C])
}

// FirstCI returns the Eq. 8 confidence interval for S_k at (t, cell i).
func (a *Accumulator) FirstCI(t, k, i int, level float64) sobol.Interval {
	return sobol.FirstOrderCI(a.FirstAt(t, k, i), a.N(t), level)
}

// TotalCI returns the Eq. 9 confidence interval for ST_k at (t, cell i).
func (a *Accumulator) TotalCI(t, k, i int, level float64) sobol.Interval {
	return sobol.TotalOrderCI(a.TotalAt(t, k, i), a.N(t), level)
}

// stitch runs one shard-level step-t field getter (a method expression such
// as (*shard).MeanField, or a closure binding the extra argument) per shard
// into the matching sub-range of dst (allocated when nil or too small). A
// nil from any shard — a tracker it does not hold — makes the stitched field
// nil.
func (a *Accumulator) stitch(t int, dst []float64, get func(sh *shard, t int, sub []float64) []float64) []float64 {
	dst = ensureLen(dst, a.cells)
	for i, sh := range a.shards {
		if get(sh, t, dst[a.bounds[i]:a.bounds[i+1]]) == nil {
			return nil
		}
	}
	return dst
}

// FirstField writes the per-cell first-order index field S_k(·, t) into dst
// (allocating when nil or too small) and returns it.
func (a *Accumulator) FirstField(t, k int, dst []float64) []float64 {
	return a.stitch(t, dst, func(sh *shard, t int, sub []float64) []float64 { return sh.FirstField(t, k, sub) })
}

// TotalField writes the per-cell total index field ST_k(·, t) into dst.
func (a *Accumulator) TotalField(t, k int, dst []float64) []float64 {
	return a.stitch(t, dst, func(sh *shard, t int, sub []float64) []float64 { return sh.TotalField(t, k, sub) })
}

// MeanField writes the per-cell mean of the B sample at step t into dst.
func (a *Accumulator) MeanField(t int, dst []float64) []float64 {
	return a.stitch(t, dst, (*shard).MeanField)
}

// VarianceField writes the per-cell unbiased variance of the B sample at
// step t into dst — the Fig. 8 co-visualization map that guards against
// interpreting Sobol' indices where Var(Y) ≈ 0 (Sec. 5.5).
func (a *Accumulator) VarianceField(t int, dst []float64) []float64 {
	return a.stitch(t, dst, (*shard).VarianceField)
}

// InteractionField writes 1 − ΣS_k(·, t) into dst: the share of variance
// attributable to parameter interactions (Sec. 5.5 uses it to decide the
// total indices are redundant for this use case).
func (a *Accumulator) InteractionField(t int, dst []float64) []float64 {
	return a.stitch(t, dst, (*shard).InteractionField)
}

// QuantileField writes the per-cell q-quantile estimate of the pooled A/B
// sample at step t into dst. Any q in [0, 1] may be queried, not only the
// configured probes; without quantile tracking the field is all zeros
// (matching the other statistics before data arrives).
func (a *Accumulator) QuantileField(t int, q float64, dst []float64) []float64 {
	return a.stitch(t, dst, func(sh *shard, t int, sub []float64) []float64 { return sh.QuantileField(t, q, sub) })
}

// The optional trackers at step t read like every other statistic, a
// per-cell field written into dst; each getter returns nil when its tracker
// is not enabled.

// MinField writes the per-cell running minimum over the A and B samples
// (+Inf before any sample).
func (a *Accumulator) MinField(t int, dst []float64) []float64 {
	return a.stitch(t, dst, (*shard).MinField)
}

// MaxField writes the per-cell running maximum over the A and B samples
// (-Inf before any sample).
func (a *Accumulator) MaxField(t int, dst []float64) []float64 {
	return a.stitch(t, dst, (*shard).MaxField)
}

// ExceedanceField writes, per cell, the fraction of the A and B samples that
// exceeded Options.Threshold.
func (a *Accumulator) ExceedanceField(t int, dst []float64) []float64 {
	return a.stitch(t, dst, (*shard).ExceedanceField)
}

// SkewnessField writes the per-cell sample skewness of the pooled A and B
// samples.
func (a *Accumulator) SkewnessField(t int, dst []float64) []float64 {
	return a.stitch(t, dst, (*shard).SkewnessField)
}

// KurtosisField writes the per-cell sample excess kurtosis of the pooled A
// and B samples.
func (a *Accumulator) KurtosisField(t int, dst []float64) []float64 {
	return a.stitch(t, dst, (*shard).KurtosisField)
}

// TrackerSamples returns how many samples the min/max, exceedance and
// higher-moment trackers have folded at step t: two per group (the A and B
// members), 0 for a disabled tracker.
func (a *Accumulator) TrackerSamples(t int) (minmax, exceed, higher int64) {
	s := &a.shards[0].steps[t]
	return s.minmaxN, s.exceedN, s.higherN
}

// QuantileProbes returns the configured quantile probe list (nil when
// quantile tracking is disabled).
func (a *Accumulator) QuantileProbes() []float64 { return a.opts.Quantiles }

// MaxCIWidth returns the widest confidence interval over all timesteps,
// cells and parameters — the single convergence scalar of Sec. 4.1.5 ("only
// keep the largest value over all the mesh and all the timesteps"), the
// widest of the shards' scans (see shard.MaxCIWidth: each rescans only the
// timesteps folded since its last scan). It mutates those caches, so it must
// not race with shard updates.
func (a *Accumulator) MaxCIWidth(level float64) float64 {
	var worst float64
	for _, sh := range a.shards {
		if w := sh.MaxCIWidth(level); w > worst {
			worst = w
		}
	}
	return worst
}

// MemoryBytes returns the size of the statistics state, the quantity of the
// Sec. 4.1.1 memory model (timesteps × cells × statistics × 8 bytes), plus
// the quantile sketches when enabled — O(cells/ε), bounded regardless of
// the number of groups folded.
func (a *Accumulator) MemoryBytes() int64 {
	var total int64
	for _, sh := range a.shards {
		total += sh.MemoryBytes()
	}
	return total
}

// QuantileTupleCount returns the total number of retained sketch tuples
// across all cells and timesteps (0 when quantiles are disabled) — the
// sketch-memory telemetry (each tuple is ~24 bytes).
func (a *Accumulator) QuantileTupleCount() int64 {
	var total int64
	for _, sh := range a.shards {
		total += sh.QuantileTupleCount()
	}
	return total
}

// CompactQuantiles runs the sketch compaction pass on every timestep's
// quantile field (no-op when quantiles are disabled). The checkpoint path
// does not call it — the background writer compacts frozen views instead —
// but it stays as the eager reference the snapshot bytes are tested
// against; see quantiles.Field.Compact.
func (a *Accumulator) CompactQuantiles() {
	for _, sh := range a.shards {
		for t := range sh.steps {
			if q := sh.steps[t].quant; q != nil {
				q.Compact()
			}
		}
	}
}
