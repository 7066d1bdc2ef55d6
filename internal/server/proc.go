package server

import (
	"runtime"
	"time"

	"melissa/internal/core"
	"melissa/internal/mesh"
	"melissa/internal/obs"
	"melissa/internal/transport"
)

// procConfig is everything one server process needs, including the global
// layout it advertises to connecting groups.
type procConfig struct {
	Config
	Rank       int
	Partition  mesh.Partition
	AllAddrs   []string
	Partitions []mesh.Partition
	// FoldShards is every process's resolved fold-worker count, advertised
	// in the Welcome so codec-enabled clients cut their compressed payloads
	// on shard boundaries. Advisory: a process whose pool was resized by a
	// checkpoint restore still decodes misaligned cuts, just less locally.
	FoldShards []int
}

// Proc is one Melissa Server process: one partition, one inbox, no shared
// state with its peers. It is four stages, each owning its state — route
// (router.go), fold (fold.go), checkpoint (checkpointer.go) and report
// (liaison.go) — and the run loop below that sequences them on the inbox
// goroutine.
type Proc struct {
	cfg  procConfig
	recv transport.Receiver

	route   *router
	fold    *foldPool
	ckpt    *checkpointer
	liaison *liaison

	// met is this process's resolved per-rank gauge set.
	met procMetrics
}

func newProc(cfg procConfig, recv transport.Receiver) *Proc {
	p := &Proc{cfg: cfg, recv: recv, met: newProcMetrics(cfg.Rank)}
	// FoldWorkers 0 means GOMAXPROCS spread across the server processes,
	// capped at 8 per process; NewSharded clamps to [1, partition cells].
	workers := cfg.FoldWorkers
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0)/cfg.Procs, 8)
	}
	acc := core.NewSharded(cfg.Partition.Len(), cfg.Timesteps, cfg.P, cfg.Stats, workers)
	p.fold = newFoldPool(acc, cfg.Partition)
	p.ckpt = newCheckpointer(&p.cfg, p.fold)
	p.route = newRouter(&p.cfg, p.fold, p.ckpt)
	p.liaison = &liaison{cfg: &p.cfg, route: p.route, fold: p.fold}
	return p
}

// Accumulator exposes the statistics state (read after the server stopped,
// or while the fold pipeline is quiescent).
func (p *Proc) Accumulator() *core.Accumulator { return p.fold.accumulator() }

// FoldWorkers returns the resolved fold worker-pool width of this process.
func (p *Proc) FoldWorkers() int { return p.fold.workers() }

// Messages returns how many data messages this process folded or discarded.
func (p *Proc) Messages() int64 { return p.route.wireStats().Messages }

// Folds returns how many complete (group, timestep) updates this process
// has applied. Safe to read while the server runs; a study of G groups and
// T timesteps is fully assimilated when Folds reaches G·T.
func (p *Proc) Folds() int64 { return p.fold.foldCount() }

// Checkpoints returns the checkpoint timing statistics. Safe to call while
// the server runs (the background writer updates them concurrently).
func (p *Proc) Checkpoints() CheckpointStats { return p.ckpt.snapshotStats() }

// start launches the fold workers and the checkpoint writer; run needs them.
func (p *Proc) start() {
	p.fold.start()
	p.ckpt.start()
}

// stopStages joins the fold workers (which drain what is queued, pending
// snapshot barriers included) and then the checkpoint writer, so a checkpoint
// whose snapshot completed is durable by the time Stop returns, unless Stop
// abandoned it.
func (p *Proc) stopStages() {
	p.fold.stop()
	p.ckpt.stop()
}

// run is the inbox goroutine. It waits on the inbox until the earlier of the
// next report and the next checkpoint, then per pass, on one clock reading:
// dispatches the frame received, if any (route → fold); at report cadence
// reports and refreshes the durability telemetry; starts a telemetry scan if
// someone reads its result and enough was folded since the last one
// (ciWanted, foldPool.scan); refreshes the gauges; begins a checkpoint when
// one is due. The receiver closing is the stop: once it has handed out what
// it buffered, run begins a last checkpoint if Stop asked for one, joins the
// fold workers and the checkpoint writer, sends the final report and
// returns.
func (p *Proc) run() {
	defer p.liaison.close()
	now := time.Now()
	nextReport := now.Add(p.cfg.ReportInterval)
	for {
		deadline := nextReport
		if at := p.ckpt.next(); !at.IsZero() && at.Before(deadline) {
			deadline = at
		}
		// Recv(≤ 0) blocks forever; a deadline already passed polls.
		msg, err := p.recv.Recv(max(deadline.Sub(now), time.Millisecond))
		now = time.Now()
		idle := false
		switch err {
		case nil:
			wakeMessage.Inc()
			p.route.dispatch(msg.Payload)
		case transport.ErrTimeout:
			wakeDeadline.Inc()
			idle = true // periodic work only
		case transport.ErrClosed:
			// The stop: the closed inbox has handed out all it buffered.
			if p.ckpt.enabled() && !p.ckpt.abandoned.Load() {
				// begin waits for a job buffer if a periodic write is in
				// flight; stopStages returns once the file is durable.
				p.ckpt.begin(true, p.route)
			}
			p.stopStages()
			p.liaison.report(true)
			return
		}
		if !now.Before(nextReport) {
			nextReport = now.Add(p.cfg.ReportInterval)
			p.liaison.report(false)
			p.publishDurability(now)
		}
		p.fold.scan(p.ciWanted(now), idle)
		p.publishStatus()
		if p.ckpt.due(now) {
			p.ckpt.begin(false, p.route)
		}
	}
}

// ciWanted reports whether anyone reads the convergence width right now: the
// launcher, when reports carry it, or a /status or /metrics reader that asked
// within the last two report intervals. A study that runs to its planned
// group count with nobody watching never pays for a scan.
func (p *Proc) ciWanted(now time.Time) bool {
	if p.cfg.ConvergenceReports {
		return true
	}
	asked := max(p.fold.askedAt(), obs.Default.ScrapedAt())
	return now.UnixNano()-asked < int64(2*p.cfg.ReportInterval)
}

// restore loads the last checkpoint, if any (Sec. 4.2.3 server restart).
func (p *Proc) restore() error { return p.ckpt.restore(p.route) }

// publishStatus refreshes this process's per-rank gauges from the stages'
// published atomics. Called once per run-loop pass; every update is an atomic
// store over values already maintained elsewhere, so the inbox pays a few
// tens of nanoseconds per pass and never allocates.
func (p *Proc) publishStatus() {
	p.met.backpressure.Set(p.fold.backpressure())
	running, finished := p.route.groupCounts()
	p.met.groupsRunning.SetInt(running)
	p.met.groupsFinished.SetInt(finished)
	p.met.maxCIWidth.Set(p.fold.ciWidth())
	tuples, bytes := p.fold.sketchTelemetry()
	p.met.quantileTuples.SetInt(tuples)
	p.met.sketchBytes.SetInt(bytes)
}

// publishDurability refreshes the durability telemetry: the checkpoint age
// gauge and the worst per-group fold-vs-durable frontier gap. Runs at report
// cadence (it walks the router's tracker).
func (p *Proc) publishDurability(now time.Time) {
	if !p.ckpt.enabled() {
		return
	}
	p.ckpt.measureGap(p.route)
	age, _, gap := p.ckpt.durability(now)
	p.met.ckptAge.Set(age)
	p.met.durableGap.SetInt(gap)
}
