package server

import (
	"strconv"
	"time"

	"melissa/internal/obs"
)

// Pipeline instrumentation, all on the process-wide obs registry. The metric
// objects are resolved once here (package init / newProc), never looked up
// on the hot path; every update is an atomic add, so instrumented ingest
// stays 0 allocs/op and within noise of the uninstrumented pipeline.
//
// Stage histograms follow the ingest pipeline of router.go and fold.go:
//
//	route    — inbox time per bulk message (header parse + shape check +
//	           routing all steps to the shard workers, including any
//	           backpressure block on the work channels)
//	decode   — one shard worker converting its cell sub-range of one step
//	           out of the shared payload bytes
//	fold     — one shard worker applying a completed (group, timestep) to
//	           its accumulator shard
//	codec    — one entropy-decompression of one shard-aligned block
//	           (compressed framing only; cached per worker per message)
//
// plus the two checkpoint phases (snapshot copy = the only ingest stall,
// background write = wall time to durability).
var (
	mRouteSeconds = obs.NewHistogram("melissa_server_route_seconds",
		"Inbox routing latency per bulk message (parse, validate, enqueue to shard workers).")
	mDecodeSeconds = obs.NewHistogram("melissa_server_shard_decode_seconds",
		"Per-shard-worker decode of one timestep's cell sub-range from the shared payload.")
	mFoldSeconds = obs.NewHistogram("melissa_server_fold_seconds",
		"Per-shard fold sweep applying one completed (group, timestep) update.")
	mCodecSeconds = obs.NewHistogram("melissa_server_codec_decompress_seconds",
		"Entropy decompression of one shard-aligned block of a compressed field payload.")
	mCkptSnapshotSeconds = obs.NewHistogram("melissa_server_checkpoint_snapshot_seconds",
		"Per-shard checkpoint snapshot copy (the only checkpoint phase that stalls folding).")
	mCkptWriteSeconds = obs.NewHistogram("melissa_server_checkpoint_write_seconds",
		"Checkpoint wall time from initiation to durable file (background encode+fsync included).")

	mMessages = obs.NewCounter("melissa_server_messages_total",
		"Bulk data messages received (folded or dropped).")
	mFolds = obs.NewCounter("melissa_server_folds_total",
		"Completed (group, timestep) updates applied to the statistics.")
	mWireBytes = obs.NewCounter("melissa_server_wire_bytes_total",
		"Bulk payload bytes as received on the wire.")
	mRawBytes = obs.NewCounter("melissa_server_raw_bytes_total",
		"Bytes the same field content costs in the uncompressed framing.")
	mDrops = obs.NewCounterVec("melissa_server_dropped_frames_total",
		"Malformed or out-of-contract frames dropped before folding, by reason.", "reason")
	mResumes = obs.NewCounter("melissa_server_resume_queries_total",
		"Resume messages handled (fold-frontier queries and liveness pings from reconnecting groups).")
	mCkptWrites = obs.NewCounter("melissa_server_checkpoint_writes_total",
		"Durable checkpoint writes committed.")
	mCkptSkips = obs.NewCounter("melissa_server_checkpoint_skipped_total",
		"Checkpoint intervals skipped because the previous write was still in flight.")
	mCkptBytes = obs.NewCounter("melissa_server_checkpoint_bytes_total",
		"Checkpoint bytes made durable.")
	mCkptReqs = obs.NewCounter("melissa_server_checkpoint_requests_total",
		"Early-checkpoint requests from clients whose retention ring crossed its durable high-water mark.")

	// Per-process gauges, labeled by server process rank. Updated from the
	// inbox goroutine (reports/status ticks) and the fold workers
	// (telemetry scans), read by scrapes.
	mBackpressure = obs.NewGaugeVec("melissa_server_backpressure",
		"Fold-pipeline work-queue occupancy fraction [0,1].", "proc")
	mGroupsRunning = obs.NewGaugeVec("melissa_server_groups_running",
		"Simulation groups started but not yet finished on this process.", "proc")
	mGroupsFinished = obs.NewGaugeVec("melissa_server_groups_finished",
		"Simulation groups whose final timestep this process folded.", "proc")
	mMaxCIWidth = obs.NewGaugeVec("melissa_server_max_ci_width",
		"Worst 95% confidence-interval width from the last completed convergence scan; +Inf until one was demanded (convergence reports on, or a /status or /metrics read in the last two report intervals) and completed.", "proc")
	mQuantileTuples = obs.NewGaugeVec("melissa_server_quantile_tuples",
		"Retained quantile-sketch tuples across all cells and timesteps (the O(cells/eps) memory quantity).", "proc")
	mSketchBytes = obs.NewGaugeVec("melissa_server_quantile_sketch_bytes",
		"Quantile-sketch state bytes across all cells and timesteps.", "proc")
	mCkptAge = obs.NewGaugeVec("melissa_server_checkpoint_age_seconds",
		"Seconds since this process's last committed checkpoint (0 until the first commit; durability lag upper bound).", "proc")
	mDurableGap = obs.NewGaugeVec("melissa_server_durable_gap_steps",
		"Worst per-group gap between the fold frontier and the durable (checkpoint-committed) frontier, in timesteps.", "proc")
)

// dropLogInterval spaces the malformed-frame drop log lines per offending
// group: during a corruption flood each connection logs once per interval
// (with the suppressed count) while the drop counter keeps exact totals.
// Variable, not const, so tests can shrink it.
var dropLogInterval = 5 * time.Second

// dropKeyNoGroup keys rate limiting for frames too corrupt to attribute to
// any group.
const dropKeyNoGroup = ^uint64(0)

// procMetrics is one process's resolved per-rank gauge set, bound once in
// newProc.
type procMetrics struct {
	backpressure   *obs.Gauge
	groupsRunning  *obs.Gauge
	groupsFinished *obs.Gauge
	maxCIWidth     *obs.Gauge
	quantileTuples *obs.Gauge
	sketchBytes    *obs.Gauge
	ckptAge        *obs.Gauge
	durableGap     *obs.Gauge
}

func newProcMetrics(rank int) procMetrics {
	r := strconv.Itoa(rank)
	return procMetrics{
		backpressure:   mBackpressure.With(r),
		groupsRunning:  mGroupsRunning.With(r),
		groupsFinished: mGroupsFinished.With(r),
		maxCIWidth:     mMaxCIWidth.With(r),
		quantileTuples: mQuantileTuples.With(r),
		sketchBytes:    mSketchBytes.With(r),
		ckptAge:        mCkptAge.With(r),
		durableGap:     mDurableGap.With(r),
	}
}
