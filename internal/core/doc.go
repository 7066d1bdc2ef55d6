// Package core implements the paper's primary contribution: ubiquitous
// iterative Sobol' indices (Sec. 2.2, 3.3) — first-order and total indices
// for *every mesh cell and every timestep*, updated on-the-fly from
// simulation-group results and never requiring the results to be stored.
//
// An Accumulator owns one spatial partition of the mesh (one Melissa Server
// process holds exactly one) and, per timestep, the one-pass moments needed
// by the Martinez estimator. It is the only accumulator type: a partition
// held as one or more contiguous cell-range shards, and a study's result is
// one Accumulator joining its processes' partitions (Join).
//
// # Memory layout: interleaved per-cell records, trackers included
//
// The accumulator stores all per-cell state as one contiguous record per
// cell,
//
//	[meanA, m2A, meanB, m2B,
//	 {meanC_k, m2C_k, c2BC_k, c2AC_k} k=0..p-1,
//	 (min, max)?  (exceedCount)?  (mean, m2, m3, m4)?]
//
// — a fixed 4+4p-float64 Sobol' prefix, then one optional slot group per
// enabled tracker (Options.MinMax, Options.Threshold, Options.HigherMoments),
// all timesteps of a shard backed by a single flat allocation. The fold is
// a single fused sweep: cell i's record is loaded once, all p parameter
// blocks, the shared A/B moments *and* the enabled tracker slots are
// updated while it sits in cache, and it is never touched again that fold. The seed kept
// 4+4p parallel per-statistic arrays updated in p+1 passes, and the
// trackers in internal/stats arrays swept by passes of their own; the
// records stream each byte once per group instead. They are the trackers'
// only representation: MinField/MaxField/ExceedanceField/SkewnessField/
// KurtosisField read them like MeanField reads the mean (nil when the
// tracker is off), and internal/stats keeps the standalone per-cell
// trackers only as the reference the equivalence tests fold beside the
// kernel.
//
// The memory total is 8·(4+4p+trackers) bytes per cell per timestep — the
// "order of the size of the results of one simulation for each computed
// statistic" model of Sec. 4.1.1, independent of the number of simulation
// groups. Sharing the A/B means across all p parameters (instead of
// composing p independent covariance accumulators) halves memory.
//
// # The kernel
//
// With every record streamed once, the fold costs instructions more than
// bytes. At p = 4 the pair-unrolled kernel this one replaced took 23.1
// ns/cell on records that stay in L2 (4,096 cells × 1 step) and 34.7
// ns/cell on one flood_mem process's 42 MB (8,192 cells × 32 steps, the
// step cycling; medians of 12 alternating rounds on a shared 2-CPU Xeon):
// two thirds of the cost is there with the data already in cache (BenchmarkUpdateGroupFlood4kCells1StepP4
// and BenchmarkUpdateGroupFlood8kCells32StepsP4 keep both sides of that
// comparison). UpdateGroup is therefore shaped for instruction count:
// every length is checked once before the sweep, the p C-field base
// pointers sit in a stack array, and records, inputs and tracker slots are
// addressed as base plus offset with no per-element bounds check; the
// parameter blocks are walked one at a time, so dA, dB and the block's
// chain stay in registers; the tracker constants stay in memory so they do
// not take those registers. That brought the two shapes to 16.7 and
// 29.4 ns/cell. gc (1.24) does not auto-vectorize the loop, and the p+2
// divisions by n per cell (no reciprocal and no fused multiply-add, for
// bitwise results) bound it from below. Two forms measured slower: fixed
// 8-cell blocks walked parameter-major (~15 %: they break the
// one-load-per-record property), and the same single-block loop with
// bounds-checked slices (1.3–1.7× the pointer form's time at p = 4 and 6).
//
// Per-cell arithmetic order is exactly the order of the historical
// multi-pass kernel (every parameter block reads the pre-update A/B means;
// the A/B moments update next; trackers observe yA then yB last), so
// results are **bitwise identical** to it. The equivalence tests drive both
// kernels with the same streams over all 16 Options combinations, with
// parameter counts on both sides of the stack array and NaN, ±Inf, −0 and
// subnormal inputs, and compare every statistic bit for bit; only a NaN's
// payload, which Go leaves unspecified, is exempt.
//
// Checkpoints store the record image (LayoutV4): per timestep the counts and
// the records exactly as they sit in memory, so writing is a copy of each
// shard's window and restoring reads the run straight back into the new
// shards' windows — no transpose either way. The older dense per-statistic-
// array layouts (LayoutV1–V3) are still read, each array scattered into the
// shards' records, so files of older builds and the golden v1/v2 fixtures
// restore; nothing writes them.
//
// The package also provides the GroupTracker implementing the
// discard-on-replay bookkeeping of Sec. 4.2.1: per-group last-folded
// timestep, started/finished state, and filtering of replayed messages after
// a group restart, so that re-executed timesteps are never folded twice.
//
// # Sharded folding
//
// An Accumulator's cells are split into contiguous ranges, one shard each
// (NewSharded; NewAccumulator holds one), so a pool of workers can fold
// concurrently — the all-cores-per-node fold engine of the server. Each
// shard owns its records, counts and sketches and runs the kernel over its
// range. The concurrency contract is:
//
//   - shard i is only ever updated by one goroutine at a time
//     (UpdateShard(i, ...), with fields holding exactly the shard's cells),
//     and
//   - every shard sees every (group, timestep) update, all shards in the
//     same order.
//
// Under that contract the per-cell floating-point operation sequence does
// not depend on the shard count, so the statistics are bitwise those of one
// shard over the whole partition. A cell range of the interleaved layout is
// one contiguous block per timestep — tracker slots ride inside the records
// — so snapshots and restores move a shard with one memmove per step plus a
// handful of scalar counts. The goroutine owning shard i may also scan it
// (ShardCIWidth, ShardQuantileTelemetry) and snapshot it (SnapshotShard)
// while the others fold. Everything else reads every shard, stitched in cell
// order — UpdateGroup, the field getters, MaxCIWidth, Encode — and must only
// run while no worker is folding. The stitch is the one place that decides
// how a field is assembled from consecutive cell ranges: Join makes an
// accumulator of consecutive partitions by sharing their shards, which is
// how a study's result reads its processes as one. A checkpoint concatenates
// the shards' record windows in cell order, which is the same byte stream
// for every shard count, so files interchange across FoldWorkers settings
// (Encode, Snapshot, DecodeShardedVersion).
//
// # Incremental convergence tracking
//
// MaxCIWidth — the Sec. 4.1.5 convergence scalar, the widest confidence
// interval over all timesteps, cells and parameters — used to rescan the
// entire state on every call. Each timestep now carries a dirty flag and a
// cached worst width: folds, merges and restores mark their timestep dirty,
// and the scan recomputes only dirty steps (at the requested level),
// answering the rest from cache. Repeated convergence reports therefore
// cost O(state folded since the last report), and a quiescent accumulator
// answers in O(timesteps). The cache makes MaxCIWidth a mutating call with
// the same ownership rules as UpdateGroup; the server runs it per shard
// *inside* the fold workers, so reports never stall the pipeline.
//
// Rescanning a dirty timestep does not evaluate every cell's interval. All
// cells of a timestep share n, and at fixed n the Eq. 8/9 width decreases in
// |ρ̂| (ρ̂ = Ŝ_k, or 1 − ŜT_k for total order), so per (parameter, index) one
// compare-only pass finds the smallest ρ̂² and a second evaluates the exact
// interval only on the cells within a rounding-safe band of it
// (sobol.CI.Guard). The result is bitwise the maximum of the exhaustive
// scan, which lives on as the reference of TestCIScanMatchesExhaustive.
//
// # Quantile statistics and copy-on-write snapshots
//
// Options.Quantiles adds per-cell per-timestep quantile sketches
// (internal/quantiles, after Ribés et al.) over the pooled A/B samples —
// the first ubiquitous statistic whose per-cell state is a data structure
// (a Greenwald-Khanna summary) rather than a handful of floats. The sketch
// is a deterministic function of its update sequence, so it inherits the
// bitwise FoldWorkers-invariance above unchanged, and the shards' sketch
// fields of a step encode and decode as one field (quantiles.EncodeStitched,
// DecodeStitched). Sketches are the one part of a checkpoint step outside
// the record run: each timestep's field follows its records (since
// LayoutV2), and LayoutV1 files from older builds restore with quantiles
// disabled.
//
// Because sketch state is variable-sized, checkpoint snapshots used to
// deep-copy and eagerly compact every sketch while the fold pipeline
// stalled — the dominant stall term, two orders of magnitude above the
// plain record memmove. SnapshotShard now freezes sketches copy-on-write
// instead (quantiles.Field.FreezeInto): O(1) per sketch at snapshot time,
// with the next mutating fold privatizing only the arrays it touches, and
// compaction deferred to the background checkpoint writer working from the
// frozen view. On the benchmark shape (4096 cells × 8 steps, steady-state
// sketches) the quantile snapshot stall dropped from ~52 ms to ~1 ms —
// within ~2× of the plain-statistics floor — while the checkpoint bytes
// remain identical to the eager path (see BenchmarkCheckpointSnapshot, which CI
// holds under a ceiling, and core.snapshot_ms in `bash bench/run.sh`).
// CompactQuantiles keeps the eager compaction, which is no longer on the
// checkpoint path: the snapshot tests compare the frozen bytes against it.
//
// A snapshot copies only the timesteps that changed since a base (SetBase):
// the per-step group counts of the last committed checkpoint. Every fold
// increments its step's count and production never compacts a live sketch,
// so an equal count means the step still encodes to the committed bytes;
// SnapshotShard copies and freezes only the other steps, Copied names them,
// and the server's checkpoint writes just their sections, pointing its
// manifest at the committed sections of the rest.
package core
