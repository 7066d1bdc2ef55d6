// Package launcher implements Melissa Launcher (Sec. 4.1.4, 4.2): the
// front-node supervisor that generates the parameter sets, submits the
// server and every simulation group as independent batch jobs, watches the
// server's reports (each also a heartbeat), and applies the fault-tolerance
// protocol — kill/restart of unresponsive or zombie groups, give-up after
// repeated failures, server restart from checkpoint, and optional
// convergence-based early stop (the loopback control of Sec. 4.1.5).
//
// One goroutine, the supervision loop (this file), owns all launcher state.
// A group attempt's exit, a server message and a group's reconnect reach it
// through one buffered event queue; it sleeps until an event arrives, applies
// it and every event queued behind it, and starts the next group in the same
// pass that freed its slot. A ticker wakes it only for the checks that depend
// on time passing (heartbeat loss, the injected server crash, zombies,
// scheduler walltime). Each pass ends by publishing one immutable
// StudyStatus. The rest of the state is split by duty, one file each,
// declaring the state it owns: groups.go (group lifecycle, the timeout and
// zombie watch), supervisor.go (server start, crash, restart, rebind,
// epochs), reports.go (report ingest, the convergence stop) and metrics.go
// (the published status and the gauges set from it). Group counts and the
// submit frontier are kept at each transition: a pass costs O(events).
package launcher

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"melissa/internal/client"
	"melissa/internal/core"
	"melissa/internal/faults"
	"melissa/internal/obs"
	olog "melissa/internal/obs/log"
	"melissa/internal/sampling"
	"melissa/internal/scheduler"
	"melissa/internal/server"
	"melissa/internal/transport"
)

// Config describes a complete study.
type Config struct {
	// Design holds the pick-freeze parameter sets; one group per row.
	Design *sampling.Design
	// Sim is the solver every simulation runs.
	Sim client.Simulation
	// Cells and Timesteps define the output shape of one simulation.
	Cells, Timesteps int
	// SimRanks is the parallel width of one simulation (N of N×M).
	SimRanks int
	// Stats selects optional server statistics.
	Stats core.Options

	// Network carries all traffic (in-memory or TCP).
	Network transport.Network
	// Cluster is the batch scheduler; nil creates an unbounded one.
	Cluster *scheduler.Cluster
	// ServerProcs is M; ServerNodes is the scheduler footprint of the
	// server job; GroupNodes the footprint of one group job.
	ServerProcs, ServerNodes, GroupNodes int
	// FoldWorkers is the per-server-process fold worker-pool width
	// (0 = GOMAXPROCS-aware default; see server.Config.FoldWorkers).
	FoldWorkers int
	// BatchSteps, when > 1, makes every group batch that many timesteps
	// per wire message (see client.ConnectOpts.BatchSteps). The server-side
	// GroupTimeout is scaled by BatchSteps to match the stretched
	// inter-message cadence.
	BatchSteps int
	// WireCodec opts the whole study into the compressed field framing: the
	// server advertises the capability in its Welcome and every group
	// compresses its data frames (see server.Config.WireCodec and
	// client.ConnectOpts.WireCodec). Results are bitwise identical either way.
	WireCodec bool
	// GroupWalltime bounds one group execution in the scheduler (0 = none).
	GroupWalltime time.Duration

	// MaxRetries is the per-group restart budget before giving up
	// (Sec. 4.2.2: "if it reaches a given threshold, the launcher gives up
	// this simulation group").
	MaxRetries int
	// Retry is the per-group connection-resilience policy handed to every
	// attempt: broken server connections are re-dialed with capped
	// exponential backoff and healed by the resume handshake instead of
	// failing the attempt (see client.RetryPolicy). A zero MaxReconnects
	// keeps the legacy fail-the-attempt behavior exactly.
	Retry client.RetryPolicy
	// MaxInFlight caps submitted-but-unfinished group jobs (the paper was
	// limited to 500 simultaneous submissions).
	MaxInFlight int
	// GroupTimeout is the server-side inter-message timeout (paper: 300 s).
	GroupTimeout time.Duration
	// ZombieTimeout is the launcher-side no-contact timeout for jobs the
	// scheduler reports running (Sec. 4.2.2, zombie groups).
	ZombieTimeout time.Duration
	// HeartbeatTimeout declares the server dead when no process has sent a
	// report, the server's heartbeat, for this long (Sec. 4.2.3).
	HeartbeatTimeout time.Duration
	// CheckpointInterval/CheckpointDir configure server checkpoints. A study
	// owns CheckpointDir: Run first removes the checkpoints an earlier study
	// left there, so a server restart restores only this study's state.
	CheckpointInterval time.Duration
	CheckpointDir      string
	// ConvergenceTarget, when positive, stops the study early once the
	// server's widest confidence interval drops below it.
	ConvergenceTarget float64
	// ResampleOnFailure switches the failure policy of Sec. 4.2.1: instead
	// of restarting a failed group (replay + discard), abandon it and run a
	// freshly drawn row.
	ResampleOnFailure bool
	// Faults is the fault-injection plan (nil = no injected faults).
	Faults *faults.Plan
	// TickInterval is the period of the time-based checks only: heartbeat
	// loss, zombies and scheduler walltime (default 5 ms).
	// Group turnover does not wait for it: an attempt's exit, a server
	// report and a reconnect wake the supervision loop immediately. The
	// server's report period is derived from it.
	TickInterval time.Duration
	// MetricsAddr, when non-empty, serves the telemetry endpoint (/metrics,
	// /status, /debug/pprof) on this address for the lifetime of Run.
	// Use "127.0.0.1:0" to bind an ephemeral local port.
	MetricsAddr string
}

// connectTimeout bounds each group's handshake.
const connectTimeout = 5 * time.Second

func (c Config) withDefaults() Config {
	if c.Cluster == nil {
		c.Cluster = scheduler.New(1 << 20)
	}
	c.ServerProcs = positiveOr(c.ServerProcs, 1)
	c.ServerNodes = positiveOr(c.ServerNodes, 1)
	c.GroupNodes = positiveOr(c.GroupNodes, 1)
	c.MaxRetries = positiveOr(c.MaxRetries, 3)
	c.MaxInFlight = positiveOr(c.MaxInFlight, 500) // the paper's submission cap
	c.TickInterval = positiveOr(c.TickInterval, 5*time.Millisecond)
	c.SimRanks = positiveOr(c.SimRanks, 1)
	// Batching stretches a healthy group's inter-message gap by the batch
	// factor: the server's liveness timeout and the launcher's timeout-kill
	// grace both use the scaled value, so batched groups are neither
	// falsely declared unresponsive nor killed on stale reports.
	if c.BatchSteps > 1 {
		c.GroupTimeout *= time.Duration(c.BatchSteps)
	}
	return c
}

// positiveOr returns v, or def when v is not positive.
func positiveOr[T int | time.Duration](v, def T) T {
	if v <= 0 {
		return def
	}
	return v
}

// Stats summarizes a finished study. Its tagged fields are also the
// counters of the /status study section (StudyStatus).
type Stats struct {
	WallClock       time.Duration `json:"-"`
	GroupsFinished  int           `json:"groups_finished"`
	GroupsGivenUp   int           `json:"groups_given_up"`
	GroupsResampled int           `json:"groups_resampled"`
	Restarts        int           `json:"group_restarts"`
	Reconnects      int           `json:"group_reconnects"`
	TimeoutKills    int           `json:"timeout_kills"`
	ZombieKills     int           `json:"zombie_kills"`
	ServerRestarts  int           `json:"server_restarts"`
	// ResumesAfterServerRestart counts group jobs kept alive across a server
	// restart to reconnect and resume against the restored durable frontier
	// (the durable-recovery path; the legacy path kills and replays them all,
	// counting into Restarts instead).
	ResumesAfterServerRestart int `json:"resumes_after_server_restart"`
	// StaleReportsDropped counts server reports discarded unapplied: those
	// stamped with a previous server incarnation's epoch (a crashed server's
	// final report, or one still queued when its replacement started), and
	// those whose process rank is outside [0, ServerProcs), which no process
	// of this study can have sent.
	StaleReportsDropped int `json:"-"`
	// ReportGaps counts the times a server process's report stream was
	// found to have lost reports (see reportLink).
	ReportGaps int  `json:"-"`
	Converged  bool `json:"converged"`
	PeakNodes  int  `json:"-"`
}

// event is one change the supervision loop applies, queued by the goroutine
// that observed it: an attempt's group, job and outcome (done), a server
// message, recycled once applied (report), or a group (reconnect).
type event struct {
	kind    eventKind
	group   int
	job     scheduler.JobID
	err     error
	payload []byte
}

type eventKind uint8

const (
	evDone      eventKind = iota // a group attempt exited
	evReport                     // a server message arrived
	evReconnect                  // a group began recovering a broken connection
)

// wakeBy counts the loop's wakeups by the kind of event that woke it.
var wakeBy = [...]*obs.Counter{evDone: wakeDone, evReport: wakeReport, evReconnect: wakeReconnect}

// passCheck, when non-nil, runs after every supervision pass. Tests install a
// from-scratch recount of the maintained counts and submit frontier here.
var passCheck func(*Launcher)

// Launcher supervises one study. Only the supervision loop touches it; the
// scrape goroutines read the published status.
type Launcher struct {
	cfg  Config
	recv transport.Receiver
	// events is the loop's one queue. Its buffer lets attempt exits and
	// reports pile up while a pass runs without stalling their senders.
	events chan event
	// stopped is closed when the study is over, or Run returns early: a
	// sender with no reader left gives up its event.
	stopped chan struct{}
	// attempts counts the group goroutines still running; Run returns only
	// once it is zero.
	attempts sync.WaitGroup
	stats    Stats
	start    time.Time
	status   atomic.Pointer[StudyStatus]

	groupBook  // groups.go
	serverSup  // supervisor.go
	reportBook // reports.go
}

// New validates the configuration and prepares a launcher.
func New(cfg Config) (*Launcher, error) {
	cfg = cfg.withDefaults()
	if cfg.Design == nil {
		return nil, fmt.Errorf("launcher: nil design")
	}
	if cfg.Sim == nil {
		return nil, fmt.Errorf("launcher: nil simulation")
	}
	if cfg.Network == nil {
		return nil, fmt.Errorf("launcher: nil network")
	}
	if cfg.Cells < 1 || cfg.Timesteps < 1 {
		return nil, fmt.Errorf("launcher: invalid shape cells=%d timesteps=%d", cfg.Cells, cfg.Timesteps)
	}
	l := &Launcher{cfg: cfg, events: make(chan event, 1024), stopped: make(chan struct{})}
	l.groups = make(map[int]*groupState)
	l.jobIndex = make(map[scheduler.JobID]*groupState)
	l.reporters = min(cfg.ServerProcs, cfg.Cells)
	l.maxCI = make([]float64, cfg.ServerProcs)
	l.qtel = make([][2]int64, cfg.ServerProcs)
	l.links = make([]reportLink, cfg.ServerProcs)
	l.resetLinks()
	for g := 0; g < cfg.Design.N(); g++ {
		l.addGroup(g)
	}
	return l, nil
}

// Run executes the study to completion and returns the assembled result.
func (l *Launcher) Run() (*server.Result, Stats, error) {
	var err error
	l.recv, err = l.cfg.Network.Listen("")
	if err != nil {
		return nil, l.stats, fmt.Errorf("launcher: %w", err)
	}
	defer l.receive()()

	if l.cfg.MetricsAddr != "" {
		ep, err := obs.Serve(l.cfg.MetricsAddr, nil)
		if err != nil {
			return nil, l.stats, fmt.Errorf("launcher: telemetry endpoint: %w", err)
		}
		defer ep.Close()
		olog.Default.Info("launcher.telemetry", "addr", ep.Addr())
	}

	l.start = time.Now()
	l.publishStatus(l.start)
	obs.SetStatus("study", func() any { return *l.status.Load() })
	olog.Default.Info("launcher.study_start",
		"groups", l.cfg.Design.N(), "parameters", l.cfg.Design.P(),
		"cells", l.cfg.Cells, "timesteps", l.cfg.Timesteps,
		"server_procs", l.cfg.ServerProcs)
	if err := l.clearCheckpoints(); err != nil {
		return nil, l.stats, err
	}
	if err := l.startServer(false); err != nil {
		return nil, l.stats, err
	}

	ticker := time.NewTicker(l.cfg.TickInterval)
	defer ticker.Stop()
	now := time.Now()
	for {
		l.applyQueued(now)
		l.checkServer(now)
		l.submitEligible(now)
		l.tickCluster(now)
		l.checkZombies(now)

		if l.convergedEarly() {
			// Converged before all groups ran (Sec. 3.4): kill every pending
			// and running group job.
			l.stats.Converged = true
			for _, g := range l.jobIndex {
				l.cancelJob(g, now)
				l.refresh(g)
			}
		}
		finished := l.studyComplete() || l.stats.Converged
		l.publishStatus(now)
		if passCheck != nil {
			passCheck(l)
		}
		if finished {
			break
		}
		now = l.wait(ticker.C)
	}

	// Every process reported every group finished, so all their data was
	// routed. A completed study is never restored: no last checkpoint. The
	// attempts still running stop first, while the server still answers
	// them, so none is left retrying against a stopped one.
	close(l.stopped) // exits and server messages are dropped from here on
	for _, g := range l.jobIndex {
		l.cancelJob(g, now) // the attempt's stop channel ends its run
		l.refresh(g)
	}
	l.attempts.Wait()
	l.srv.Stop(false)
	l.discardEvents()
	l.stats.WallClock = time.Since(l.start)
	l.stats.PeakNodes = l.cfg.Cluster.PeakUsedNodes()
	l.publishStatus(time.Now())
	olog.Default.Info("launcher.study_complete", "wall_clock", l.stats.WallClock,
		"groups_finished", l.stats.GroupsFinished, "groups_given_up", l.stats.GroupsGivenUp,
		"restarts", l.stats.Restarts, "server_restarts", l.stats.ServerRestarts,
		"converged", l.stats.Converged)
	return l.srv.Result(), l.stats, nil
}

// receive starts the one goroutine that owns the launcher inbox: it blocks in
// Recv and queues each server message's payload as an event. The returned
// stop function closes the inbox, waits for the goroutine to exit and
// recycles every payload still queued.
func (l *Launcher) receive() func() {
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		for {
			msg, err := l.recv.Recv(0)
			if err != nil {
				return // closed, and everything buffered handed out
			}
			select {
			case l.events <- event{kind: evReport, payload: msg.Payload}:
			case <-l.stopped:
				transport.Recycle(msg.Payload)
			}
		}
	}()
	return func() {
		select {
		case <-l.stopped:
		default:
			close(l.stopped) // Run returned before the study ran
		}
		l.recv.Close()
		<-exited
		l.discardEvents()
	}
}

// wait blocks until an event arrives or the ticker fires for the time-based
// checks, applies the event that woke it, and returns the clock reading the
// next pass decides by.
func (l *Launcher) wait(tick <-chan time.Time) time.Time {
	select {
	case ev := <-l.events:
		wakeBy[ev.kind].Inc()
		now := time.Now()
		l.apply(ev, now)
		return now
	case <-tick:
		wakeTick.Inc()
		return time.Now()
	}
}

// applyQueued applies the events already queued, without blocking.
func (l *Launcher) applyQueued(now time.Time) {
	for n := len(l.events); n > 0; n-- {
		l.apply(<-l.events, now)
	}
}

// apply is the one place an event changes the study.
func (l *Launcher) apply(ev event, now time.Time) {
	switch ev.kind {
	case evDone:
		l.handleDone(ev.group, ev.job, ev.err, now)
	case evReport:
		l.handleMessage(ev.payload, now)
	case evReconnect:
		// The group is alive: hold off timeout kills while it reconnects.
		l.stats.Reconnects++
		if g := l.groups[ev.group]; g != nil {
			g.holdTimeouts(now)
		}
	}
}

// discardEvents empties the queue once the study is over: reconnects still
// count, payloads are recycled, and exits change nothing any more.
func (l *Launcher) discardEvents() {
	for n := len(l.events); n > 0; n-- {
		switch ev := <-l.events; ev.kind {
		case evReport:
			transport.Recycle(ev.payload)
		case evReconnect:
			l.stats.Reconnects++
		}
	}
}
