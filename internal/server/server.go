// Package server implements Melissa Server (Sec. 4.1): a parallel in-transit
// statistics engine. The server is M processes, each owning one block of the
// evenly partitioned mesh; simulation groups connect dynamically, push their
// per-timestep results, and every process folds incoming data into its local
// ubiquitous Sobol' accumulator with no inter-process communication or
// synchronization ("updating the statistics is a local operation").
//
// # The ingest pipeline
//
// Each process is internally a three-stage pipeline so the fold path uses
// all cores of the node, not one per process — and so no stage ever copies
// a full field it does not own:
//
//	route (inbox goroutine):  recv → parse the bulk header lazily
//	                          (wire.DataView/DataBatchView: ids, cell range,
//	                          per-field byte offsets — no float decoding) →
//	                          validate the shape once per message → retain
//	                          the payload (refcounted transport buffer) and
//	                          enqueue one task per (piece, timestep) on
//	                          every worker channel
//	shard-decode (workers):   each worker byte-swaps exactly its shard's
//	                          cell sub-range of each field straight out of
//	                          the shared payload bytes — decode work is
//	                          spread across the pool instead of serialized
//	                          in front of it
//	fold (workers):           the task completing a (group, timestep)
//	                          folds the shard into the owned cell range of
//	                          the core.ShardedAccumulator
//
// A piece covering the whole partition (the common single-main-rank case)
// takes the direct path: payload bytes → per-worker scratch → fold, with no
// intermediate assembly buffer at all. Multi-piece (group, timestep)s are
// assembled: the inbox tracks coverage from the piece headers only, the
// workers decode their disjoint ranges into a shared pooled assembly, and
// the piece that completes coverage carries the fold. The last consumer of
// a payload releases its refcount and the buffer returns to the transport
// pool (counters + a debug double-recycle panic make the path auditable:
// transport.ReadPoolStats).
//
// Config.FoldWorkers sets the pool width (0 = GOMAXPROCS-aware). The inbox
// enqueues every task on every worker's channel in arrival order; each
// worker processes its queue in that order, which keeps the statistics
// bitwise independent of the worker count — and bitwise identical to the
// pre-pipeline serial decode+copy design. All maps (pending assemblies,
// tracker, lastMsg) stay inbox-owned and lock-free; the accumulator is only
// read (reports, checkpoints, results) after quiesce(), i.e. once every
// enqueued task has been processed by every shard worker. Assemblies,
// message shells and payload buffers are pooled, so steady-state ingest
// allocates approximately nothing.
//
// # Backpressure and adaptive client batching
//
// Bounded worker queues preserve the end-to-end backpressure of Sec. 4.1.3:
// if folding falls behind, the inbox blocks, transport buffers fill, and
// the simulations suspend. The queue occupancy is also exported as a
// congestion hint (wire.Report.Backpressure) on the reports each process
// already sends the launcher. The launcher feeds every hint into one
// study-wide client.BatchController, and each group connection maps the
// smoothed level onto an effective per-message timestep batch between 1 and
// its MaxBatchSteps: minimal latency while the server keeps up, growing
// batches — fewer, larger messages — exactly when the fold path is the
// bottleneck, decaying back as the backlog clears.
//
// Convergence reports (Config.ConvergenceReports) are folded into the same
// pipeline: a scan request is enqueued on every worker channel behind the
// pending tasks, each worker rescans only the dirty timesteps of its own
// shard (core caches per-timestep widths) and publishes the result
// atomically, and the next report reads the published values. The fold pool
// therefore never stops for convergence telemetry.
//
// Fault tolerance follows Sec. 4.2: discard-on-replay filtering of restarted
// groups, per-group message timeouts reported to the launcher, periodic
// atomic checkpoints (one file per process, dense format regardless of
// FoldWorkers), and restart from the last checkpoint.
//
// # Stall-free checkpointing
//
// Checkpoints are a two-phase pipeline so the fold path never waits for the
// file system:
//
//	snapshot (fold workers):  the inbox captures its own state (partition,
//	                          message count, tracker bytes) and fans one
//	                          snapshot task out to every worker channel;
//	                          each worker — after exactly the folds enqueued
//	                          before the task, so the image equals what the
//	                          quiesced design would have written — compacts
//	                          its shard's quantile sketches and deep-copies
//	                          the shard into a pooled, double-buffered
//	                          snapshot (the interleaved Sobol' records move
//	                          with one contiguous copy), then resumes
//	                          folding immediately
//	write (background):       a dedicated goroutine per process streams the
//	                          frozen snapshot into the unchanged dense v2
//	                          on-disk format section by section
//	                          (checkpoint.StreamWriter: incremental CRC, no
//	                          full-payload buffer), fsyncs, renames
//	                          atomically and fsyncs the directory — fully
//	                          overlapped with ongoing ingest
//
// The fold pipeline therefore stalls only for the snapshot copies (the
// longest lane's copy bounds the added latency — CheckpointStats splits this
// stall out of the total write time), and a checkpoint interval that fires
// while both snapshot buffers are still busy is skipped and logged, never
// queued. This is the only write path; a checkpoint is a pure function of the
// fold state — the tests compare every file byte for byte against a quiesced
// one-shot encode of the stopped process — so checkpoints remain
// interchangeable across versions and FoldWorkers settings.
package server

import (
	"fmt"
	"sync"
	"time"

	"melissa/internal/core"
	"melissa/internal/mesh"
	"melissa/internal/transport"
)

// Config assembles a parallel server.
type Config struct {
	// Procs is M, the number of server processes.
	Procs int
	// FoldWorkers is the per-process fold worker-pool width: the process's
	// partition is split into that many cell-range shards and completed
	// (group, timestep) assemblies are folded into all shards concurrently.
	// 0 picks a GOMAXPROCS-aware default (capped at 8 per process); 1
	// reproduces the single-threaded fold. Values above the partition size
	// are clamped. Results are bitwise independent of the setting.
	FoldWorkers int
	// Cells, Timesteps and P define the study shape.
	Cells, Timesteps, P int
	// Stats selects the optional statistics beyond Sobol' indices.
	Stats core.Options
	// Network provides the endpoints (in-memory or TCP).
	Network transport.Network
	// Addrs, when non-empty, requests a specific listen address per process
	// rank (len must be Procs). A restarted server passes the previous
	// instance's addresses so clients that retained the old layout can
	// reconnect and resume instead of replaying; an empty slice (or empty
	// entries) lets the transport pick.
	Addrs []string
	// GroupTimeout is the maximum inter-message gap before a running group
	// is declared unresponsive (the paper sets 300 s; tests use shorter).
	// Zero disables detection.
	GroupTimeout time.Duration
	// CheckpointInterval enables periodic checkpoints when positive
	// (the paper's experiment uses 600 s).
	CheckpointInterval time.Duration
	// CheckpointDir is where checkpoint files live.
	CheckpointDir string
	// LauncherAddr, when set, receives heartbeats and reports.
	LauncherAddr string
	// ReportInterval is the heartbeat/report period (default 1 s).
	ReportInterval time.Duration
	// CILevel is the confidence level for convergence reports (default .95).
	CILevel float64
	// ConvergenceReports enables MaxCIWidth telemetry in reports. The scan
	// rides the fold pipeline as a per-shard task — each shard incrementally
	// rescans only the timesteps that folded new groups since its last scan
	// and publishes the width — so enabling it no longer quiesces the pool;
	// reported values lag the stream by at most one report interval. Off by
	// default.
	ConvergenceReports bool
	// Epoch is the incarnation number of this server instance. The launcher
	// increments it on every (re)start and stamps it into heartbeats and
	// reports, so stale messages queued by a dying incarnation's stop drain
	// cannot corrupt the launcher's liveness or completion bookkeeping after
	// a restart. Zero is a valid epoch (single-incarnation embedders need not
	// set it).
	Epoch int
	// WireCodec opts this server into the negotiated wire codec: Welcome
	// replies grant wire.CapWireCodec to clients that advertised it, inviting
	// them to ship field payloads as delta-XOR + entropy-coded frames cut on
	// this process's fold-shard boundaries. Decoding compressed frames is
	// unconditional (a mixed fleet stays interoperable either way); the knob
	// only controls the advertisement. Results are bitwise identical with the
	// codec on or off. Off by default.
	WireCodec bool
}

func (c Config) withDefaults() Config {
	if c.ReportInterval <= 0 {
		c.ReportInterval = time.Second
	}
	if c.CILevel == 0 {
		c.CILevel = 0.95
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.Procs < 1:
		return fmt.Errorf("server: need at least one process, got %d", c.Procs)
	case c.Cells < 1 || c.Timesteps < 1 || c.P < 1:
		return fmt.Errorf("server: invalid shape cells=%d timesteps=%d p=%d", c.Cells, c.Timesteps, c.P)
	case c.Network == nil:
		return fmt.Errorf("server: nil network")
	case c.CheckpointInterval > 0 && c.CheckpointDir == "":
		return fmt.Errorf("server: checkpointing enabled without a directory")
	case len(c.Addrs) != 0 && len(c.Addrs) != c.Procs:
		return fmt.Errorf("server: %d requested addresses for %d processes", len(c.Addrs), c.Procs)
	}
	return nil
}

// Server is a running (or runnable) parallel Melissa Server inside one Go
// process: each server process is a goroutine with its own receiver,
// accumulator and bookkeeping, communicating with nothing but its inbox.
type Server struct {
	cfg        Config
	partitions []mesh.Partition
	procs      []*Proc

	wg      sync.WaitGroup
	started bool
}

// New creates the server processes and opens their endpoints. Addresses are
// available immediately (before Start) so the launcher can advertise them.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:        cfg,
		partitions: mesh.BlockPartition(cfg.Cells, cfg.Procs),
	}
	addrs := make([]string, cfg.Procs)
	recvs := make([]transport.Receiver, cfg.Procs)
	for rank := 0; rank < cfg.Procs; rank++ {
		hint := ""
		if len(cfg.Addrs) > rank {
			hint = cfg.Addrs[rank]
		}
		r, err := cfg.Network.Listen(hint)
		if err != nil {
			for _, rr := range recvs[:rank] {
				rr.Close()
			}
			return nil, fmt.Errorf("server: opening endpoint %d: %w", rank, err)
		}
		recvs[rank] = r
		addrs[rank] = r.Addr()
	}
	// Resolve every process's fold-shard count up front: the Welcome
	// advertises the full vector so codec-enabled clients cut compressed
	// payloads on the shard boundaries of whichever process they feed.
	foldShards := make([]int, cfg.Procs)
	for rank := 0; rank < cfg.Procs; rank++ {
		foldShards[rank] = procConfig{Config: cfg, Partition: s.partitions[rank]}.foldWorkers()
	}
	for rank := 0; rank < cfg.Procs; rank++ {
		s.procs = append(s.procs, newProc(procConfig{
			Config:     cfg,
			Rank:       rank,
			Partition:  s.partitions[rank],
			AllAddrs:   addrs,
			Partitions: s.partitions,
			FoldShards: foldShards,
		}, recvs[rank]))
	}
	return s, nil
}

// Addrs returns the data endpoint address of every server process.
func (s *Server) Addrs() []string {
	out := make([]string, len(s.procs))
	for i, p := range s.procs {
		out[i] = p.recv.Addr()
	}
	return out
}

// MainAddr returns the address of process zero, the one simulation groups
// contact first during the dynamic-connection handshake (Sec. 4.1.3).
func (s *Server) MainAddr() string { return s.procs[0].recv.Addr() }

// Partitions returns the server-side cell partitioning.
func (s *Server) Partitions() []mesh.Partition {
	return append([]mesh.Partition(nil), s.partitions...)
}

// Restore loads every process state from the checkpoint directory. It must
// be called before Start. Missing files leave the corresponding process
// fresh (a cold start); corrupt files are errors.
func (s *Server) Restore() error {
	for _, p := range s.procs {
		if err := p.restore(); err != nil {
			return err
		}
	}
	return nil
}

// Start launches every server process goroutine. Fold-worker pools are
// created synchronously (after any Restore resized them) so the pipeline
// state is fully constructed once Start returns.
func (s *Server) Start() {
	if s.started {
		panic("server: double Start")
	}
	s.started = true
	s.RegisterStatus()
	for _, p := range s.procs {
		p.startWorkers()
	}
	for _, p := range s.procs {
		s.wg.Add(1)
		go func(p *Proc) {
			defer s.wg.Done()
			p.run()
		}(p)
	}
}

// Stop asks every process to exit (after an optional final checkpoint) and
// waits for them.
func (s *Server) Stop(finalCheckpoint bool) {
	for _, p := range s.procs {
		p.requestStop(finalCheckpoint)
	}
	s.wg.Wait()
}

// Procs exposes the per-process state; callers must not use it while the
// server is running (only before Start or after Stop/Wait).
func (s *Server) Procs() []*Proc { return s.procs }

// TotalFolds sums the completed (group, timestep) updates across processes.
// Safe to poll while running: a study of G groups and T timesteps is fully
// assimilated when this reaches G·T·Procs.
func (s *Server) TotalFolds() int64 {
	var total int64
	for _, p := range s.procs {
		total += p.Folds()
	}
	return total
}

// Result assembles the global study result from all process partitions.
// Call only after the server stopped.
func (s *Server) Result() *Result {
	return newResult(s.cfg, s.partitions, s.procs)
}
