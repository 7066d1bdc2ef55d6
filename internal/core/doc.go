// Package core implements the paper's primary contribution: ubiquitous
// iterative Sobol' indices (Sec. 2.2, 3.3) — first-order and total indices
// for *every mesh cell and every timestep*, updated on-the-fly from
// simulation-group results and never requiring the results to be stored.
//
// An Accumulator owns one spatial partition of the mesh (one Melissa Server
// process holds exactly one) and, per timestep, the one-pass moments needed
// by the Martinez estimator.
//
// # Memory layout: interleaved per-cell records, trackers included
//
// The fold is memory-bandwidth bound, not FLOP bound: the arithmetic per
// state float is a handful of multiply-adds, so what dominates is how many
// times the state streams through the cache hierarchy. The accumulator
// therefore stores all per-cell state as one contiguous record per cell,
//
//	[meanA, m2A, meanB, m2B,
//	 {meanC_k, m2C_k, c2BC_k, c2AC_k} k=0..p-1,
//	 (min, max)?  (exceedCount)?  (mean, m2, m3, m4)?]
//
// — a fixed 4+4p-float64 Sobol' prefix, then one optional slot group per
// enabled tracker (Options.MinMax, Options.Threshold, Options.HigherMoments),
// all timesteps backed by a single flat allocation. UpdateGroup is a single
// fused sweep: cell i's record is loaded once, all p parameter blocks, the
// shared A/B moments *and* the enabled tracker slots are updated while it
// sits in cache, and it is never touched again that fold.
//
// Two historical layouts motivated this. The seed kept 4+4p parallel
// per-statistic arrays updated in p+1 separate passes, moving the same bytes
// through DRAM p+1 times per group; interleaving the Sobol' state into
// records fixed that (PR 3 in CHANGES.md). But the optional trackers stayed in
// separate internal/stats field arrays swept by their own passes after the
// main fold, so enabling them reintroduced exactly the strided
// multi-pass traffic the records removed. Folding the tracker words into the
// record ends that: trackers now cost a few extra slots in the already-resident
// cache line instead of extra passes (BenchmarkUpdateGroupTrackers; the
// multi-pass numbers are under PR 10 in CHANGES.md, and `bash bench/run.sh`
// prices the kernel inside a whole study as core.fold_s). The records are
// the trackers' only representation: MinField/MaxField/ExceedanceField/
// SkewnessField/KurtosisField read them like MeanField reads the mean (nil
// when the tracker is off), and internal/stats keeps the standalone
// per-cell trackers only as the reference the equivalence tests fold
// beside the kernel. (Ribés et al. make the same
// observation for in-transit quantiles: per-cell state layout, not
// arithmetic, sets the throughput ceiling at scale.)
//
// The memory total is unchanged: 8·(4+4p+trackers) bytes per cell per
// timestep — the "order of the size of the results of one simulation for
// each computed statistic" model of Sec. 4.1.1, independent of the number of
// simulation groups. Sharing the A/B means across all p parameters (instead
// of composing p independent covariance accumulators) still halves memory,
// and tests verify cell-by-cell equality with the scalar accumulators of
// internal/stats.
//
// # The kernel
//
// UpdateGroup's inner loop is shaped for the compiler rather than the
// reader: the per-cell record is rebound through full slice expressions
// (r[off : off+8 : off+8]) so gc proves the bounds once per block instead of
// per element, the parameter loop is hand-unrolled two blocks per iteration
// with independent floating-point chains interleaved for instruction-level
// parallelism, and the group values yA[i]/yB[i] are read into locals once.
// gc (1.24) does not auto-vectorize this loop; the unroll plus hoisted
// checks is what a `go build -gcflags=-S` spot check rewards. A wider
// restructuring — fixed 8-cell blocks walked parameter-major — measured
// ~15% *slower* than the fused per-cell sweep on amd64 (it breaks the
// one-load-per-record property); the kernel comment records that dead end.
//
// Per-cell arithmetic order in the fused sweep is exactly the order of the
// historical multi-pass kernel (every parameter block reads the pre-update
// A/B means; the A/B moments update next; trackers observe yA then yB last;
// the unrolled blocks touch disjoint slots), so results are **bitwise
// identical** to it — internal/core's equivalence tests drive both kernels
// with the same streams over all 16 Options combinations and compare every
// statistic bit for bit.
//
// Checkpoints and the wire format keep the historical dense per-statistic-
// array layout: Encode gathers each statistic column out of the records and
// Decode scatters it back, so files interchange byte-for-byte with builds
// that predate the interleave (golden v1/v2 fixtures pin this).
//
// The package also provides the GroupTracker implementing the
// discard-on-replay bookkeeping of Sec. 4.2.1: per-group last-folded
// timestep, started/finished state, and filtering of replayed messages after
// a group restart, so that re-executed timesteps are never folded twice.
//
// # Sharded folding
//
// ShardedAccumulator splits one partition's accumulator into contiguous
// cell-range shards so a pool of workers can fold concurrently — the
// all-cores-per-node fold engine of the server. The concurrency contract is:
//
//   - shard i is only ever updated by one goroutine at a time
//     (UpdateGroupShard(i, ...)), and
//   - every shard sees every (group, timestep) update, all shards in the
//     same order.
//
// Under that contract the per-cell floating-point operation sequence is
// identical to the single-threaded Accumulator, so sharded results are
// bitwise equal to dense results for any shard count. A cell range of the
// interleaved layout is one contiguous block per timestep — tracker slots
// ride inside the records — so shard extraction, injection and the dense
// stitch are plain memmoves plus a handful of scalar sample counts. Read
// methods present the stitched dense view and must only run while no worker
// is folding. Checkpoints use the dense format (Encode/DecodeSharded),
// making them interchangeable across shard counts.
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
// bitwise FoldWorkers-invariance above unchanged; Extract/Inject/Merge and
// the checkpoint codec treat it like any other field tracker. Checkpoints
// carrying quantile state use layout version LayoutV2; LayoutV1 files from
// older builds restore with quantiles disabled (DecodeAccumulatorVersion).
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
// CompactQuantiles remains as an explicit compaction knob
// but is no longer on the checkpoint path.
package core
