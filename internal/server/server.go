// Package server implements Melissa Server (Sec. 4.1): a parallel in-transit
// statistics engine. The server is M processes, each owning one block of the
// evenly partitioned mesh; simulation groups connect dynamically, push their
// per-timestep results, and every process folds incoming data into its local
// ubiquitous Sobol' accumulator with no inter-process communication or
// synchronization ("updating the statistics is a local operation").
//
// # One process, four stages
//
// A Proc (proc.go) is a config, a receiver, two stop flags and four stages,
// each the only code that touches its own state:
//
//	router       (router.go)        group tracker, liveness clocks, message
//	                                and byte counters; decodes control frames,
//	                                parses bulk headers lazily (bulk.go),
//	                                checks shape once per message and filters
//	                                replays (Sec. 4.2.1)
//	foldPool     (fold.go)          accumulator shards, one worker and one
//	                                ordered channel per shard, assemblies,
//	                                payload refcounts, the fold counter, the
//	                                convergence and sketch telemetry
//	checkpointer (checkpointer.go)  cadence, snapshot double buffer,
//	                                background writer, stats, the durable
//	                                frontier, restore (Sec. 4.2.3)
//	liaison      (liaison.go)       launcher connection, heartbeats, reports
//	                                (Sec. 4.2.2)
//
// Proc.run sequences them on the inbox goroutine. Per pass: receive one frame
// and dispatch it (router → foldPool); at report cadence send a heartbeat and
// a report and refresh the durability telemetry; start a telemetry scan if
// one is wanted and due; refresh the per-rank gauges; begin a checkpoint when
// one is due. On stop: drain the inbox, quiesce the pool, write the final
// checkpoint if asked, send the final report, join the workers and the
// writer.
//
// A foldPool needs only a core.ShardedAccumulator and its partition: it can
// be built and fed encoded frames with no network, tracker or Server.
//
// # Ingest
//
// The router retains each bulk payload (a refcounted transport buffer) and
// the pool enqueues one task per (piece, timestep) on every worker channel
// in arrival order. Each worker byte-swaps exactly its shard's cell
// sub-range of each field straight out of the shared payload bytes, and the
// task completing a (group, timestep) folds the shard — decode work is
// spread across the pool, no stage copies a full field it does not own, and
// the statistics are bitwise independent of Config.FoldWorkers. Message
// shells, assemblies and payload buffers are pooled, so steady-state ingest
// allocates approximately nothing (transport.ReadPoolStats audits the
// buffers). The accumulator is only read after quiesce, i.e. once every
// enqueued task has been processed by every worker.
//
// Bounded worker queues preserve the end-to-end backpressure of Sec. 4.1.3:
// if folding falls behind, the inbox blocks, transport buffers fill, and
// the simulations suspend. The queue occupancy is also exported as a
// congestion hint (wire.Report.Backpressure); the launcher feeds it into one
// study-wide client.BatchController, which grows the clients' per-message
// timestep batch exactly when the fold path is the bottleneck.
//
// # Barriers: convergence scans and checkpoints
//
// Anything that must see the accumulator at a well-defined point of the
// update stream rides the work channels as a barrier (foldPool.barrier): a
// control task whose each(shard) runs on every worker after exactly the
// folds enqueued before it, and whose last() runs once. The pool never
// stops for one. A checkpoint (checkpointer.begin) is a barrier that copies
// each shard into a double-buffered snapshot and hands it to a background
// writer, so the fold path stalls only for the copies; the file is a pure
// function of the fold state, byte-identical to a quiesced one-shot encode,
// whatever the FoldWorkers setting.
//
// A telemetry scan (foldPool.scan) is a barrier with two parts. The
// convergence part rescans each shard's dirty timesteps and publishes the
// widest confidence interval — the one scalar of Sec. 4.1.5, read only by the
// optional early stop of Sec. 3.4 and by whoever watches /status or /metrics.
// It is demand-driven: enqueued only while Config.ConvergenceReports is set
// or for two report intervals after a Status() call or a /metrics scrape
// asked (Proc.ciWanted), so a study that runs to its planned group count
// unwatched never scans. It is paced by folds, not by the clock: a scan
// starts once a whole group's worth of (group, timestep) updates was routed
// since the previous one started — widths move at group granularity — or, when
// the inbox has gone idle, as soon as anything was, so a paused stream leaves
// the exact width of what was folded, never a stale one. And it is cheap: per
// (timestep, parameter, index) core finds the cell with the smallest |ρ̂| by
// compares and evaluates the interval only there and on its rounding-band
// neighbours (core.Accumulator.MaxCIWidth), returning bitwise the maximum an
// evaluation of every cell would. The sketch part refreshes the quantile
// telemetry on the same pacing and exists only when quantile sketches are
// tracked. With neither part wanted no barrier is enqueued and the workers
// do nothing but decode and fold.
package server

import (
	"fmt"
	"sync"
	"time"

	"melissa/internal/core"
	"melissa/internal/mesh"
	"melissa/internal/obs"
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
	// ConvergenceReports makes reports carry MaxCIWidth (the launcher sets it
	// when the study has a convergence target) and is the standing demand for
	// the convergence scan: while set, a scan rides the fold pipeline as a
	// per-shard barrier every time a whole group's worth of updates has been
	// routed, and once more when the stream pauses, each shard rescanning
	// only the timesteps folded since its last scan. The pool never
	// quiesces for it; a reported width lags the stream by at most one
	// group plus queue depth and is exact once the inbox is idle. While
	// unset, scans run only for two report intervals after a Status() call or
	// a /metrics scrape asked for the width — otherwise never. Off by default.
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
	if cfg.ReportInterval <= 0 {
		cfg.ReportInterval = time.Second
	}
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
	// The Welcome advertises every process's resolved fold-shard count so
	// codec-enabled clients cut compressed payloads on the shard boundaries
	// of whichever process they feed; the processes share the one vector.
	foldShards := make([]int, cfg.Procs)
	for rank := 0; rank < cfg.Procs; rank++ {
		p := newProc(procConfig{
			Config:     cfg,
			Rank:       rank,
			Partition:  s.partitions[rank],
			AllAddrs:   addrs,
			Partitions: s.partitions,
			FoldShards: foldShards,
		}, recvs[rank])
		foldShards[rank] = p.FoldWorkers()
		s.procs = append(s.procs, p)
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
	// Publish the live snapshot as the "server" section of the process-wide
	// /status document; a newer instance (a launcher-driven restart) simply
	// takes the section over.
	obs.SetStatus("server", func() any { return s.Status() })
	for _, p := range s.procs {
		p.start()
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
	return &Result{Cells: s.cfg.Cells, Timesteps: s.cfg.Timesteps, P: s.cfg.P, procs: s.procs}
}
