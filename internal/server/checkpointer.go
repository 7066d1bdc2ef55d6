package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"melissa/internal/checkpoint"
	"melissa/internal/core"
	"melissa/internal/enc"
	olog "melissa/internal/obs/log"
	"melissa/internal/wire"
)

// ckptJobBuffers is the snapshot double-buffer depth: one job may be in its
// snapshot phase while the previous one's background write is still in
// flight. A third checkpoint interval firing while both are busy is skipped
// (and logged) rather than queued — checkpoints are periodic state saves,
// not a backlog to drain.
const ckptJobBuffers = 2

// ckptJob is one in-flight two-phase checkpoint: the pooled snapshot buffer
// the shard workers fill (phase 1), the router state captured at initiation
// (message count, tracker bytes — consistent with the fold stream enqueued
// before the snapshot barrier), and the timing probes. Jobs cycle run loop →
// workers → background writer → free pool.
type ckptJob struct {
	snap     *core.Snapshot
	messages int64
	tracker  *enc.Writer // tracker state serialized at initiation
	// frontiers is the per-group contiguous fold frontier at initiation —
	// the same state the tracker bytes encode. Once this job's file commits
	// (fsync + rename), the copy is published as the process's durable
	// frontier: exactly the steps a restart from this checkpoint preserves.
	frontiers map[int]int
	start     time.Time
	// stallNs records the longest per-shard snapshot copy — the
	// fold-pipeline blockage attributable to this checkpoint: every lane
	// must pass its snapshot task before its next fold, and the lanes copy
	// concurrently, so the slowest copy bounds the added latency.
	stallNs atomic.Int64
}

// noteStall folds one shard's copy duration into the job's max.
func (j *ckptJob) noteStall(d time.Duration) {
	ns := d.Nanoseconds()
	for {
		cur := j.stallNs.Load()
		if ns <= cur || j.stallNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// CheckpointStats aggregates checkpoint timing, the quantity reported in
// Sec. 5.4 (2.75 s mean write, 7.24 s mean read in the paper's setup). The
// two-phase pipeline splits each write into the fold-pipeline stall (the
// per-shard snapshot copies — the only part the ingest path ever waits for)
// and the total wall time including the background encode+fsync.
type CheckpointStats struct {
	// Writes counts completed (durable) checkpoint writes; Skipped counts
	// checkpoint intervals dropped because the previous write was still in
	// flight (the skip-and-log overrun policy).
	Writes  int
	Skipped int
	// WriteDuration is the total wall time from checkpoint initiation to the
	// file being durable, across all writes. StallDuration is the
	// fold-pipeline blockage: per checkpoint, the longest per-shard snapshot
	// copy (the lanes copy concurrently, so the slowest bounds the added
	// latency), summed over checkpoints. Encode, CRC, write, fsync and
	// rename all happen off the run loop and never count as stall.
	WriteDuration time.Duration
	StallDuration time.Duration
	Reads         int
	ReadDuration  time.Duration
	// LastBytes is the size of the most recent checkpoint file;
	// BytesWritten totals all checkpoint bytes made durable.
	LastBytes    int64
	BytesWritten int64
}

// checkpointer is the checkpoint stage: cadence, the two-phase write (a
// snapshot barrier on the fold pool, then the background writer), the
// durable frontier the committed files define, and restore.
type checkpointer struct {
	cfg  *procConfig
	fold *foldPool

	// stats is guarded by mu (the background writer and the run loop both
	// update it). jobs feeds completed snapshots to the writer goroutine;
	// free holds the ckptJobBuffers idle jobs, their buffers allocated on
	// first use; writing tracks checkpoints from initiation to durability
	// (the final-checkpoint stop path waits on it).
	stats    CheckpointStats
	mu       sync.Mutex
	jobs     chan *ckptJob
	free     chan *ckptJob
	writing  sync.WaitGroup
	writerWG sync.WaitGroup

	// Cadence (run-loop-owned): last is when the latest checkpoint started;
	// requested is set by a client CheckpointReq so the next due() pass
	// starts an early, skippable checkpoint instead of waiting out the rest
	// of the interval.
	last      time.Time
	requested bool

	// Durable frontier: the per-group contiguous fold frontier as of the
	// last *committed* checkpoint — the only fold state a restarted process
	// is guaranteed to still have. The writer (and restore) publish it under
	// durMu; the router reads it to answer Welcome and ResumeAck, scrape
	// goroutines read it for /status. durableAtNs is the commit wall clock
	// (unix nanos, 0 = nothing durable yet); gap mirrors the worst
	// fold-vs-durable gap for lock-free scrapes.
	durMu       sync.Mutex
	durable     map[int]int
	durableAtNs atomic.Int64
	gap         atomic.Int64
}

func newCheckpointer(cfg *procConfig, fold *foldPool) *checkpointer {
	c := &checkpointer{
		cfg:  cfg,
		fold: fold,
		jobs: make(chan *ckptJob, ckptJobBuffers),
		free: make(chan *ckptJob, ckptJobBuffers),
	}
	for i := 0; i < ckptJobBuffers; i++ {
		c.free <- &ckptJob{}
	}
	return c
}

func (c *checkpointer) enabled() bool { return c.cfg.CheckpointDir != "" }

// start launches the background writer and arms the cadence clock.
func (c *checkpointer) start() {
	c.last = time.Now()
	c.writerWG.Add(1)
	go c.writer()
}

// stop retires the background writer, which drains and commits every
// handed-off job before exiting. Call after the fold pool stopped: a
// checkpoint whose snapshot completed is then always durable on return.
func (c *checkpointer) stop() {
	close(c.jobs)
	c.writerWG.Wait()
}

// wait blocks until every begun checkpoint is durable (or has failed).
func (c *checkpointer) wait() { c.writing.Wait() }

func (c *checkpointer) snapshotStats() CheckpointStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// request notes a client's early-checkpoint request: the checkpoint starts
// on a later run-loop pass, never inline, so a flood of requests cannot
// block the inbox.
func (c *checkpointer) request() {
	if c.enabled() {
		c.requested = true
	}
}

// due reports whether the run loop should begin a checkpoint now, and
// consumes the slot when it says yes. An early-checkpoint request fires
// ahead of the interval, but never more often than a quarter interval —
// requests advance the schedule, they cannot turn it into a busy loop. The
// spacing is clamped to 250ms so completion-time durable drains stay fast
// even under production intervals of many minutes (50ms floor when no
// interval is set).
func (c *checkpointer) due(now time.Time) bool {
	if !c.enabled() {
		return false
	}
	interval := c.cfg.CheckpointInterval
	due := interval > 0 && now.Sub(c.last) >= interval
	if !due && c.requested {
		minGap := interval / 4
		if minGap <= 0 {
			minGap = 50 * time.Millisecond
		} else if minGap > 250*time.Millisecond {
			minGap = 250 * time.Millisecond
		}
		due = now.Sub(c.last) >= minGap
	}
	if due {
		c.requested = false
		c.last = now
	}
	return due
}

// begin initiates a checkpoint from the run loop — the one checkpoint write
// path. Phase 1: capture the router's state (message count, tracker)
// consistent with the fold stream enqueued so far, then put a snapshot
// barrier on the fold pool (the only hot-path cost). Each worker passes the
// barrier after exactly the folds enqueued before it, so the assembled
// snapshot equals the accumulator state a quiesced process would hold at the
// identical fold state (the test-side reference encodes exactly that and
// compares bytes): one contiguous memmove of the shard's interleaved records
// (tracker slots ride inside them) plus an O(sketches) copy-on-write freeze
// of the quantile state; the shard resumes folding the moment the freeze
// completes. Phase 2: the background writer encodes and fsyncs the frozen
// image overlapped with ongoing ingest. When both job buffers are still busy
// and block is false, the interval is skipped and logged, never queued. The
// stop path passes block — it must not drop its checkpoint.
func (c *checkpointer) begin(block bool, src *router) {
	job := c.takeJob(block)
	if job == nil {
		c.mu.Lock()
		c.stats.Skipped++
		c.mu.Unlock()
		mCkptSkips.Inc()
		olog.Warnw("server.checkpoint_skip", "rank", c.cfg.Rank,
			"reason", "previous write still in flight")
		return
	}
	job.start = time.Now()
	job.stallNs.Store(0)
	job.tracker.Reset()
	job.messages, job.frontiers = src.capture(job.tracker)
	c.writing.Add(1)
	acc := c.fold.accumulator()
	c.fold.barrier(func(shard int) {
		t0 := time.Now()
		acc.SnapshotShard(shard, job.snap)
		d := time.Since(t0)
		job.noteStall(d)
		mCkptSnapshotSeconds.Observe(d.Seconds())
	}, func() { c.jobs <- job }) // never blocks: at most ckptJobBuffers jobs exist
}

// takeJob acquires an idle checkpoint job, or nil when both are busy and
// block is unset. Only the run loop calls it.
func (c *checkpointer) takeJob(block bool) *ckptJob {
	var job *ckptJob
	select {
	case job = <-c.free:
	default:
		if !block {
			return nil
		}
		job = <-c.free
	}
	if job.snap == nil {
		job.snap, job.tracker = c.fold.accumulator().NewSnapshot(), enc.NewWriter(1<<10)
	}
	return job
}

// writer is the phase-2 goroutine: it receives completed snapshots, streams
// them to disk fully overlapped with ongoing ingest, and recycles the job
// buffers.
func (c *checkpointer) writer() {
	defer c.writerWG.Done()
	for job := range c.jobs {
		c.write(job)
		c.free <- job
		c.writing.Done()
	}
}

// write encodes one frozen snapshot into the unchanged dense checkpoint
// format — section by section through the streaming writer, so the full
// payload never materializes in memory — computes the CRC, fsyncs and
// atomically renames. The bytes are identical to a quiesced one-shot encode
// of the same fold state.
func (c *checkpointer) write(job *ckptJob) {
	path := checkpoint.Filename(c.cfg.CheckpointDir, c.cfg.Rank)
	sw, err := checkpoint.NewStreamWriter(path, checkpoint.Version)
	if err != nil {
		olog.Errorw("server.checkpoint_failed", "rank", c.cfg.Rank, "err", err)
		return
	}
	err = sw.Section(func(w *enc.Writer) {
		w.Int(c.cfg.Partition.Lo)
		w.Int(c.cfg.Partition.Hi)
		w.I64(job.messages)
		job.snap.EncodeHeader(w, core.LayoutCurrent)
	})
	for t := 0; t < job.snap.Timesteps() && err == nil; t++ {
		err = sw.Section(func(w *enc.Writer) { job.snap.EncodeStep(w, core.LayoutCurrent, t) })
	}
	if err == nil {
		err = sw.Section(func(w *enc.Writer) { w.Raw(job.tracker.Bytes()) })
	}
	written := sw.Written() + 16 // payload + header
	if err == nil {
		err = sw.Commit()
	} else {
		sw.Abort()
	}
	elapsed := time.Since(job.start)
	stall := time.Duration(job.stallNs.Load())
	c.mu.Lock()
	// The snapshot copies stalled the fold pipeline whether or not the
	// write then reached the disk; charge them unconditionally so a failing
	// checkpoint directory cannot make the stall telemetry read zero.
	c.stats.StallDuration += stall
	if err == nil {
		c.stats.Writes++
		c.stats.WriteDuration += elapsed
		c.stats.LastBytes = written
		c.stats.BytesWritten += written
	}
	c.mu.Unlock()
	if err != nil {
		olog.Errorw("server.checkpoint_failed", "rank", c.cfg.Rank, "err", err)
		return
	}
	// The file is durable: the frontier captured at initiation is now the
	// process's durable frontier (the job keeps no reference — the map is
	// handed over, not reused).
	c.publishDurable(job.frontiers)
	job.frontiers = nil
	mCkptWrites.Inc()
	mCkptBytes.Add(written)
	mCkptWriteSeconds.Observe(elapsed.Seconds())
	olog.Infow("server.checkpoint_commit", "rank", c.cfg.Rank, "bytes", written,
		"elapsed", elapsed, "stall", stall)
}

// publishDurable installs a committed checkpoint's frontier copy as the
// process's durable frontier.
func (c *checkpointer) publishDurable(frontiers map[int]int) {
	c.durMu.Lock()
	c.durable = frontiers
	c.durMu.Unlock()
	c.durableAtNs.Store(time.Now().UnixNano())
}

// durableStep answers the durable frontier of one group: the last contiguous
// timestep whose fold state survived a checkpoint Commit. -1 when nothing of
// the group is durable yet; wire.NoDurability when this process runs without
// checkpointing (then nothing ever becomes durable, and clients should not
// hold frames past the fold ack). Safe from any goroutine.
func (c *checkpointer) durableStep(group int) int {
	if !c.enabled() {
		return wire.NoDurability
	}
	c.durMu.Lock()
	defer c.durMu.Unlock()
	s, ok := c.durable[group]
	if !ok {
		return -1
	}
	return s
}

// durability returns the durability telemetry — seconds since the last
// commit (0 before the first), groups with durable state, and the worst
// per-group fold-vs-durable gap as of the last measureGap. Safe from any
// goroutine.
func (c *checkpointer) durability(now time.Time) (age float64, groups int, gap int64) {
	if at := c.durableAtNs.Load(); at > 0 {
		age = now.Sub(time.Unix(0, at)).Seconds()
	}
	c.durMu.Lock()
	groups = len(c.durable)
	c.durMu.Unlock()
	return age, groups, c.gap.Load()
}

// measureGap refreshes the worst per-group gap between the given fold
// frontiers and the durable frontier. Runs on the run loop at report cadence.
func (c *checkpointer) measureGap(frontiers map[int]int) {
	gap := 0
	c.durMu.Lock()
	for g, last := range frontiers {
		d, ok := c.durable[g]
		if !ok {
			d = -1
		}
		gap = max(gap, last-d)
	}
	c.durMu.Unlock()
	c.gap.Store(int64(gap))
}

// restore loads the last checkpoint, if any (Sec. 4.2.3 server restart),
// into the fold pool and the router; it must run before start. Process zero
// also sweeps stale .ckpt-* temp files left by a writer that crashed
// mid-checkpoint — pure garbage under the atomic-rename protocol, but garbage
// that would otherwise accumulate across restarts.
func (c *checkpointer) restore(dst *router) error {
	if !c.enabled() {
		return nil
	}
	rank := c.cfg.Rank
	if rank == 0 {
		if removed, err := checkpoint.SweepTemps(c.cfg.CheckpointDir); err != nil {
			olog.Warnw("server.temp_sweep_failed", "rank", rank, "err", err)
		} else if len(removed) > 0 {
			olog.Infow("server.temp_sweep", "rank", rank, "count", len(removed), "files", removed)
		}
	}
	path := checkpoint.Filename(c.cfg.CheckpointDir, rank)
	if !checkpoint.Exists(path) {
		return nil // cold start
	}
	start := time.Now()
	r, version, err := checkpoint.Read(path)
	if err != nil {
		return err
	}
	lo, hi := r.Int(), r.Int()
	if part := c.cfg.Partition; lo != part.Lo || hi != part.Hi {
		return fmt.Errorf("server: checkpoint partition [%d,%d) does not match process %d partition [%d,%d)",
			lo, hi, rank, part.Lo, part.Hi)
	}
	messages := r.I64()
	acc, err := core.DecodeShardedVersion(r, version, c.fold.workers())
	if err != nil {
		return fmt.Errorf("server: process %d: %w", rank, err)
	}
	if version < checkpoint.V2 && len(c.cfg.Stats.Quantiles) > 0 {
		// The restored accumulator adopts the checkpoint's statistics set;
		// a pre-quantile file cannot resurrect sketch state mid-study.
		olog.Warnw("server.restore_no_quantiles", "rank", rank, "version", version)
	}
	tracker, err := core.DecodeGroupTrackerVersion(r, version)
	if err != nil {
		return fmt.Errorf("server: process %d: %w", rank, err)
	}
	c.fold.adopt(acc)
	dst.adopt(tracker, messages)
	// After a restore the fold frontier *is* the durable frontier: the whole
	// restored state came from the committed file. Reconnecting groups get it
	// as both the resend point and the retention floor.
	c.publishDurable(tracker.Frontiers())
	c.stats.Reads++
	c.stats.ReadDuration += time.Since(start)
	return nil
}
