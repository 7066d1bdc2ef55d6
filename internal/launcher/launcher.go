// Package launcher implements Melissa Launcher (Sec. 4.1.4, 4.2): the
// front-node supervisor that generates the parameter sets, submits the
// server and every simulation group as independent batch jobs, watches
// heartbeats and reports, and applies the fault-tolerance protocol —
// kill/restart of unresponsive or zombie groups, give-up after repeated
// failures, server restart from checkpoint, and optional convergence-based
// early stop (the loopback control of Sec. 4.1.5).
//
// The supervision loop is event-driven: it sleeps until a group attempt
// exits, a server heartbeat or report arrives, or a group reports a
// reconnect, and the next group starts in the same pass that freed its slot.
// A ticker wakes it only for the checks that depend on time passing
// (heartbeat loss, the injected server crash, zombies, scheduler walltime,
// series sampling). Group counts and the submit frontier are maintained at
// each state transition, so a pass costs O(events), not O(groups).
package launcher

import (
	"fmt"
	"math"
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
	"melissa/internal/wire"
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
	// failing the attempt (see client.RetryPolicy). The zero value keeps the
	// legacy fail-the-attempt behavior exactly.
	Retry client.RetryPolicy
	// MaxInFlight caps submitted-but-unfinished group jobs (the paper was
	// limited to 500 simultaneous submissions).
	MaxInFlight int
	// GroupTimeout is the server-side inter-message timeout (paper: 300 s).
	GroupTimeout time.Duration
	// ZombieTimeout is the launcher-side no-contact timeout for jobs the
	// scheduler reports running (Sec. 4.2.2, zombie groups).
	ZombieTimeout time.Duration
	// HeartbeatTimeout declares the server dead when no process has beaten
	// for this long (Sec. 4.2.3).
	HeartbeatTimeout time.Duration
	// CheckpointInterval/CheckpointDir configure server checkpoints.
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
	// loss, zombies, scheduler walltime and series sampling (default 5 ms).
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
	if c.ServerProcs <= 0 {
		c.ServerProcs = 1
	}
	if c.ServerNodes <= 0 {
		c.ServerNodes = 1
	}
	if c.GroupNodes <= 0 {
		c.GroupNodes = 1
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 500 // the paper's submission cap
	}
	if c.TickInterval <= 0 {
		c.TickInterval = 5 * time.Millisecond
	}
	if c.SimRanks <= 0 {
		c.SimRanks = 1
	}
	return c
}

// Sample is one point of the study's resource-usage time series (the raw
// material of the Fig. 6 left-hand plots).
type Sample struct {
	Elapsed       time.Duration
	RunningGroups int
	UsedNodes     int
}

// Stats summarizes a finished study.
type Stats struct {
	WallClock       time.Duration
	GroupsFinished  int
	GroupsGivenUp   int
	GroupsResampled int
	Restarts        int
	Reconnects      int
	TimeoutKills    int
	ZombieKills     int
	ServerRestarts  int
	// ResumesAfterServerRestart counts group jobs kept alive across a server
	// restart to reconnect and resume against the restored durable frontier
	// (the durable-recovery path; the legacy path kills and replays them all,
	// counting into Restarts instead).
	ResumesAfterServerRestart int
	// StaleReportsDropped counts server reports discarded because they were
	// stamped with a previous server incarnation's epoch (the stop drain of a
	// crashed server racing its own replacement).
	StaleReportsDropped int
	Converged           bool
	PeakNodes           int
	Series              []Sample
}

// groupState tracks one simulation group across attempts.
type groupState struct {
	id         int
	pos        int   // index in Launcher.order
	class      uint8 // the class bits last counted into Launcher.counts
	attempts   int
	job        scheduler.JobID
	jobRunning bool
	finishedBy map[int]bool
	seen       bool // any server process ever listed it
	// completedOK means the job returned success; its data is queued or
	// folded but the server reports may not have confirmed it yet. Such
	// groups must not be resubmitted (they would run again and be
	// replay-discarded, wasting a full execution).
	completedOK bool
	givenUp     bool
	abandoned   bool // replaced under the resample policy
	loggedDone  bool // group-complete lifecycle event already emitted
	lastRestart time.Time
	// lastReconnect is when this group last reported a connection-recovery
	// attempt; timeout kills hold off while a reconnect is in progress.
	lastReconnect time.Time
	// stop cancels the current attempt's injected hang (closed when the
	// attempt is killed or done, so hung hook goroutines unwind promptly).
	stop chan struct{}
}

// reconnectEvent is one group's report of a connection-recovery attempt,
// handed from the group goroutine to the supervision loop.
type reconnectEvent struct {
	group int
	when  time.Time
}

type groupDone struct {
	group int
	job   scheduler.JobID
	err   error
}

// Group classes: the counts a pass needs, each a bit of groupState.class.
// refresh keeps every group's cached class and Launcher.counts in step at
// each state transition, so no pass has to scan the groups.
const (
	classInFlight = iota // job submitted, group not finished (the MaxInFlight budget)
	classRunning         // job started by the scheduler
	classFinished        // live, and confirmed by every reporting server process
	classPending         // live and not finished: the study waits on it
	classEligible        // live, unfinished, no job, not completed: may be submitted
	numClasses
)

// passCheck, when non-nil, runs after every supervision pass. Tests install a
// from-scratch recount of the maintained counts and submit frontier here.
var passCheck func(*Launcher)

// Launcher supervises one study.
type Launcher struct {
	cfg    Config
	recv   transport.Receiver
	srv    *server.Server
	srvJob scheduler.JobID
	// srvAddrs pins the per-process data addresses across server restarts:
	// live groups recover broken connections by redialing the address they
	// already hold, so a restarted server must listen where its predecessor
	// did.
	srvAddrs []string
	// srvEpoch is the incarnation number of the current server instance,
	// bumped on every startServer. A stopping server keeps draining (and
	// reporting) for a short window; its trailing heartbeats and reports are
	// stamped with the old epoch and discarded, so they cannot refresh the
	// new incarnation's liveness clock or mark groups finished whose folds
	// were rolled back to the durable frontier.
	srvEpoch int

	groups map[int]*groupState
	order  []int
	// counts holds, per group class, how many groups are in it.
	counts [numClasses]int
	// next is the submit frontier: no group before this position in order
	// is eligible, so submission resumes here, in order.
	next int
	// jobIndex maps live scheduler job ids to their group, replacing the
	// per-tick linear scan over all groups.
	jobIndex map[scheduler.JobID]*groupState
	done     chan groupDone
	reconns  chan reconnectEvent
	// groupTimeout is the batch-scaled liveness timeout actually configured
	// on the server (see startServer); the timeout-kill grace period must
	// compare against the same scaled value.
	groupTimeout time.Duration
	// reporters is the number of server processes that own a non-empty
	// partition; only those ever report groups as finished.
	reporters int

	lastHeartbeat time.Time
	maxCI         map[int]float64 // per proc rank
	// qtel holds each proc rank's last-reported {tuple count, sketch bytes}.
	qtel  map[int][2]int64
	stats Stats
	start time.Time
	tel   studyTelemetry
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
	reporters := cfg.ServerProcs
	if cfg.Cells < reporters {
		reporters = cfg.Cells
	}
	l := &Launcher{
		cfg:       cfg,
		groups:    make(map[int]*groupState),
		jobIndex:  make(map[scheduler.JobID]*groupState),
		done:      make(chan groupDone, 1024),
		reconns:   make(chan reconnectEvent, 1024),
		maxCI:     make(map[int]float64),
		qtel:      make(map[int][2]int64),
		reporters: reporters,
	}
	for g := 0; g < cfg.Design.N(); g++ {
		l.addGroup(g)
	}
	return l, nil
}

// addGroup appends a fresh group to the submission order.
func (l *Launcher) addGroup(id int) {
	g := &groupState{id: id, pos: len(l.order), finishedBy: make(map[int]bool)}
	l.groups[id] = g
	l.order = append(l.order, id)
	l.refresh(g)
}

// classify derives a group's class bits from its state.
func (l *Launcher) classify(g *groupState) uint8 {
	var c uint8
	if g.jobRunning {
		c |= 1 << classRunning
	}
	if g.givenUp || g.abandoned {
		return c
	}
	switch {
	case g.finished(l.reporters):
		c |= 1 << classFinished
	case g.job != 0:
		c |= 1<<classPending | 1<<classInFlight
	case !g.completedOK:
		c |= 1<<classPending | 1<<classEligible
	default:
		c |= 1 << classPending
	}
	return c
}

// refresh re-counts a group after its state changed: every operation that
// mutates a group's job, completion, finish or give-up state ends with it.
// A group that becomes eligible behind the submit frontier moves the
// frontier back to it, so submission order stays the order of l.order.
func (l *Launcher) refresh(g *groupState) {
	c := l.classify(g)
	for k, diff := 0, c^g.class; diff != 0; k, diff = k+1, diff>>1 {
		if diff&1 == 0 {
			continue
		}
		if c&(1<<k) != 0 {
			l.counts[k]++
		} else {
			l.counts[k]--
		}
	}
	g.class = c
	if c&(1<<classEligible) != 0 && g.pos < l.next {
		l.next = g.pos
	}
}

// Run executes the study to completion and returns the assembled result.
func (l *Launcher) Run() (*server.Result, Stats, error) {
	var err error
	l.recv, err = l.cfg.Network.Listen("")
	if err != nil {
		return nil, l.stats, fmt.Errorf("launcher: %w", err)
	}
	msgs, stopReceiving := l.receive()
	defer stopReceiving()

	if l.cfg.MetricsAddr != "" {
		ep, err := obs.Serve(l.cfg.MetricsAddr, nil)
		if err != nil {
			return nil, l.stats, fmt.Errorf("launcher: telemetry endpoint: %w", err)
		}
		defer ep.Close()
		olog.Infow("launcher.telemetry", "addr", ep.Addr())
	}
	obs.SetStatus("study", func() any { return l.snapshotStatus() })

	l.start = time.Now()
	l.tel.startNano.Store(l.start.UnixNano())
	l.lastHeartbeat = l.start
	olog.Infow("launcher.study_start",
		"groups", l.cfg.Design.N(), "parameters", l.cfg.Design.P(),
		"cells", l.cfg.Cells, "timesteps", l.cfg.Timesteps,
		"server_procs", l.cfg.ServerProcs)
	if err := l.startServer(false); err != nil {
		return nil, l.stats, err
	}

	ticker := time.NewTicker(l.cfg.TickInterval)
	defer ticker.Stop()
	now := time.Now()
	lastSample := now

	for {
		l.drainReconnects()
		l.drainMessages(msgs, now)
		l.drainDone(now)
		l.injectServerCrash(now)
		l.checkServer(now)
		l.submitEligible(now)
		l.tickCluster(now)
		l.checkZombies(now)

		if now.Sub(lastSample) >= 10*time.Millisecond {
			lastSample = now
			l.sample(now)
		}
		l.publishStatus(now)
		var finished bool
		if l.convergedEarly() {
			l.stats.Converged = true
			l.cancelOutstanding(now)
			finished = true
		} else {
			finished = l.studyComplete()
		}
		if passCheck != nil {
			passCheck(l)
		}
		if finished {
			break
		}
		now = l.wait(msgs, ticker.C)
	}
	l.sample(time.Now())
	l.drainReconnects()

	// Final drain so in-flight messages reach the statistics, then stop.
	l.srv.Stop(l.cfg.CheckpointDir != "")
	l.stats.WallClock = time.Since(l.start)
	l.stats.PeakNodes = l.cfg.Cluster.PeakUsedNodes()
	l.publishStatus(time.Now())
	olog.Infow("launcher.study_complete",
		"wall_clock", l.stats.WallClock,
		"groups_finished", l.stats.GroupsFinished,
		"groups_given_up", l.stats.GroupsGivenUp,
		"restarts", l.stats.Restarts,
		"server_restarts", l.stats.ServerRestarts,
		"converged", l.stats.Converged)
	res := l.srv.Result()
	return res, l.stats, nil
}

// receive starts the one goroutine that owns the launcher inbox: it blocks in
// Recv and hands each server message's payload to the supervision loop. The
// returned stop function closes the inbox, recycles every message still
// queued, and returns once the goroutine has exited.
func (l *Launcher) receive() (<-chan []byte, func()) {
	recv := l.recv
	msgs := make(chan []byte)
	quit := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		for {
			msg, err := recv.Recv(0)
			if err != nil {
				return // closed, and everything buffered handed out
			}
			select {
			case msgs <- msg.Payload:
			case <-quit:
				transport.Recycle(msg.Payload)
			}
		}
	}()
	return msgs, func() {
		close(quit)
		recv.Close()
		<-exited
	}
}

// wait blocks until something changes the study — an attempt exits, a server
// message arrives, a group reports a reconnect — or the ticker fires for the
// time-based checks. It applies the event that woke it and returns the clock
// reading the next pass decides by.
func (l *Launcher) wait(msgs <-chan []byte, tick <-chan time.Time) time.Time {
	select {
	case d := <-l.done:
		now := time.Now()
		wakeDone.Inc()
		l.handleDone(d, now)
		return now
	case payload := <-msgs:
		now := time.Now()
		wakeReport.Inc()
		l.handleMessage(payload, now)
		return now
	case ev := <-l.reconns:
		wakeReconnect.Inc()
		l.noteReconnect(ev)
	case <-tick:
		wakeTick.Inc()
	}
	return time.Now()
}

// startServer creates (or re-creates) the parallel server, optionally
// restoring from the last checkpoint (Sec. 4.2.3).
func (l *Launcher) startServer(restore bool) error {
	// Batching stretches a healthy group's inter-message gap by the batch
	// factor; scale the liveness timeout so batched groups are not falsely
	// declared unresponsive.
	groupTimeout := l.cfg.GroupTimeout
	if l.cfg.BatchSteps > 1 {
		groupTimeout *= time.Duration(l.cfg.BatchSteps)
	}
	l.groupTimeout = groupTimeout
	// On a restart, rebind the previous per-process data addresses so the
	// connections live groups are retrying become valid again the moment the
	// new server listens.
	var addrs []string
	if restore {
		addrs = l.srvAddrs
	}
	l.srvEpoch++
	srv, err := server.New(server.Config{
		Epoch:              l.srvEpoch,
		Procs:              l.cfg.ServerProcs,
		FoldWorkers:        l.cfg.FoldWorkers,
		Cells:              l.cfg.Cells,
		Timesteps:          l.cfg.Timesteps,
		P:                  l.cfg.Design.P(),
		Stats:              l.cfg.Stats,
		Network:            l.cfg.Network,
		Addrs:              addrs,
		GroupTimeout:       groupTimeout,
		CheckpointInterval: l.cfg.CheckpointInterval,
		CheckpointDir:      l.cfg.CheckpointDir,
		WireCodec:          l.cfg.WireCodec,
		LauncherAddr:       l.recv.Addr(),
		ReportInterval:     max(l.cfg.TickInterval*4, 20*time.Millisecond),
		ConvergenceReports: l.cfg.ConvergenceTarget > 0,
	})
	if err != nil {
		return fmt.Errorf("launcher: creating server: %w", err)
	}
	if restore {
		if err := srv.Restore(); err != nil {
			return fmt.Errorf("launcher: restoring server: %w", err)
		}
	}
	job, err := l.cfg.Cluster.Submit("melissa-server", l.cfg.ServerNodes, 0, time.Now())
	if err != nil {
		return fmt.Errorf("launcher: submitting server job: %w", err)
	}
	l.srv = srv
	l.srvJob = job.ID
	l.srvAddrs = srv.Addrs()
	// Not the pass's clock: stopping the old incarnation and restoring the
	// checkpoint can outlast HeartbeatTimeout, and the new incarnation's
	// liveness clock starts when it does.
	l.lastHeartbeat = time.Now()
	srv.Start()
	return nil
}

// sample appends one point to the resource-usage time series.
func (l *Launcher) sample(now time.Time) {
	l.stats.Series = append(l.stats.Series, Sample{
		Elapsed:       now.Sub(l.start),
		RunningGroups: l.runningGroups(),
		UsedNodes:     l.cfg.Cluster.UsedNodes(),
	})
}

// submitEligible queues group jobs up to the in-flight cap, in group order.
func (l *Launcher) submitEligible(now time.Time) {
	for l.counts[classInFlight] < l.cfg.MaxInFlight {
		g := l.nextEligible()
		if g == nil {
			return
		}
		if err := l.submitGroup(g, now); err != nil {
			olog.Errorw("launcher.submit_failed", "group", g.id, "err", err)
			g.givenUp = true
			l.stats.GroupsGivenUp++
		}
		l.refresh(g)
	}
}

// nextEligible advances the submit frontier to the lowest position in
// l.order whose group may be submitted, and returns that group (nil: none).
func (l *Launcher) nextEligible() *groupState {
	for ; l.next < len(l.order); l.next++ {
		if g := l.groups[l.order[l.next]]; g.class&(1<<classEligible) != 0 {
			return g
		}
	}
	return nil
}

func (l *Launcher) submitGroup(g *groupState, now time.Time) error {
	job, err := l.cfg.Cluster.Submit(fmt.Sprintf("group-%d", g.id),
		l.cfg.GroupNodes, l.cfg.GroupWalltime, now)
	if err != nil {
		return err
	}
	g.job = job.ID
	g.jobRunning = false
	l.jobIndex[job.ID] = g
	return nil
}

// clearJob detaches a group from its scheduler job (index entry included)
// and cancels the attempt's injected hang, if one is still sleeping.
func (l *Launcher) clearJob(g *groupState) {
	if g.job != 0 {
		delete(l.jobIndex, g.job)
	}
	g.job = 0
	g.jobRunning = false
	if g.stop != nil {
		close(g.stop)
		g.stop = nil
	}
}

// tickCluster advances the scheduler and launches the jobs it started.
func (l *Launcher) tickCluster(now time.Time) {
	started, killed := l.cfg.Cluster.Tick(now)
	for _, job := range started {
		if job.ID == l.srvJob {
			continue
		}
		g := l.groupByJob(job.ID)
		if g == nil {
			continue
		}
		g.jobRunning = true
		g.attempts++
		g.lastRestart = now
		l.refresh(g)
		l.launchGroup(g, job.ID, g.attempts-1)
	}
	for _, job := range killed {
		g := l.groupByJob(job.ID)
		if g == nil {
			continue
		}
		// Walltime kill: fail the attempt and retry, right here. This loop is
		// l.done's only reader, so it must never send there itself. The
		// attempt's own completion arrives later and is dropped as stale.
		l.handleDone(groupDone{group: g.id, job: job.ID, err: fmt.Errorf("walltime exceeded")}, now)
	}
}

// launchGroup runs one group attempt in its own goroutine ("each simulation
// group is submitted independently to the batch scheduler").
func (l *Launcher) launchGroup(g *groupState, job scheduler.JobID, attempt int) {
	id := g.id
	if l.cfg.Faults.IsZombie(id, attempt) {
		// The job occupies its nodes but never contacts the server; only
		// the launcher's zombie detection can reclaim it.
		return
	}
	rows := l.cfg.Design.GroupRows(id)
	g.stop = make(chan struct{})
	hook := l.cfg.Faults.BeforeStepHook(id, attempt, g.stop)
	mainAddr := l.srv.MainAddr()
	onReconnect := func(serverRank, n int) {
		select { // non-blocking: a full channel only costs grace accuracy
		case l.reconns <- reconnectEvent{group: id, when: time.Now()}:
		default:
		}
	}
	go func() {
		err := client.RunGroup(l.cfg.Network, mainAddr, client.RunConfig{
			ConnectOpts: client.ConnectOpts{
				GroupID:  id,
				SimRanks: l.cfg.SimRanks,
				Timeout:  connectTimeout,
				Retry:    l.cfg.Retry,
				// A restarted attempt recomputes steps the server may already
				// have folded; the resume handshake lets it skip resending them.
				Resume:      l.cfg.Retry.MaxReconnects > 0 && attempt > 0,
				OnReconnect: onReconnect,
				BatchSteps:  l.cfg.BatchSteps,
				WireCodec:   l.cfg.WireCodec,
			},
			Rows:       rows,
			Sim:        l.cfg.Sim,
			BeforeStep: hook,
		})
		l.done <- groupDone{group: id, job: job, err: err}
	}()
}

// drainReconnects applies queued reconnect reports: the grace clock that
// keeps handleTimeout from killing a group mid-backoff, plus study stats.
func (l *Launcher) drainReconnects() {
	for {
		select {
		case ev := <-l.reconns:
			l.noteReconnect(ev)
		default:
			return
		}
	}
}

func (l *Launcher) noteReconnect(ev reconnectEvent) {
	l.stats.Reconnects++
	if g := l.groups[ev.group]; g != nil && ev.when.After(g.lastReconnect) {
		g.lastReconnect = ev.when
	}
}

// drainDone processes finished group attempts.
func (l *Launcher) drainDone(now time.Time) {
	for {
		select {
		case d := <-l.done:
			l.handleDone(d, now)
		default:
			return
		}
	}
}

func (l *Launcher) handleDone(d groupDone, now time.Time) {
	g := l.groups[d.group]
	if g == nil || g.job != d.job {
		return // stale completion from a killed/restarted attempt
	}
	l.clearJob(g)
	if job := l.cfg.Cluster.Job(d.job); job != nil && job.State == scheduler.Running {
		if d.err == nil {
			l.cfg.Cluster.Complete(d.job, now)
		} else {
			l.cfg.Cluster.Fail(d.job, now)
		}
	}
	if d.err == nil {
		g.completedOK = true // server reports will confirm the finish
	} else {
		l.retryOrGiveUp(g, now, d.err)
	}
	l.refresh(g)
}

// retryOrGiveUp applies the Sec. 4.2 failure policy to a failed attempt. The
// caller refreshes g.
func (l *Launcher) retryOrGiveUp(g *groupState, now time.Time, cause error) {
	if g.attempts > l.cfg.MaxRetries {
		g.givenUp = true
		l.stats.GroupsGivenUp++
		olog.Warnw("launcher.group_giveup",
			"group", g.id, "attempts", g.attempts, "cause", cause)
		return
	}
	if l.cfg.ResampleOnFailure {
		// Abandon the row and draw a fresh one (Sec. 4.2.1 alternative).
		g.abandoned = true
		l.stats.GroupsResampled++
		l.addGroup(l.cfg.Design.Extend(1)[0])
		return
	}
	l.stats.Restarts++
	g.completedOK = false
	if err := l.submitGroup(g, now); err != nil {
		g.givenUp = true
		l.stats.GroupsGivenUp++
	}
}

// drainMessages applies the server messages already waiting, without
// blocking.
func (l *Launcher) drainMessages(msgs <-chan []byte, now time.Time) {
	for {
		select {
		case payload := <-msgs:
			l.handleMessage(payload, now)
		default:
			return
		}
	}
}

// handleMessage applies one heartbeat or report from a server process.
func (l *Launcher) handleMessage(payload []byte, now time.Time) {
	decoded, err := wire.Decode(payload)
	transport.Recycle(payload) // Decode copied everything out
	if err != nil {
		return
	}
	switch m := decoded.(type) {
	case *wire.Heartbeat:
		if m.Epoch != l.srvEpoch {
			return // trailing beacon from a dead incarnation
		}
		l.lastHeartbeat = now
	case *wire.Report:
		if m.Epoch != l.srvEpoch {
			// A crashed server's stop drain keeps folding its inbound
			// backlog and reporting progress that the restart rolled back
			// to the durable frontier. Applying it would mark still-running
			// groups finished (breaking MaxInFlight pacing and, worse,
			// letting the study complete without their re-sent folds).
			l.stats.StaleReportsDropped++
			return
		}
		l.lastHeartbeat = now
		l.applyReport(m, now)
	}
}

func (l *Launcher) applyReport(rep *wire.Report, now time.Time) {
	l.tel.backpressure.Store(math.Float64bits(rep.Backpressure))
	l.qtel[rep.ProcRank] = [2]int64{rep.TupleCount, rep.SketchBytes}
	for _, id := range rep.Running {
		if g := l.groups[id]; g != nil {
			g.seen = true
		}
	}
	// Finished lists are cumulative: only a (group, process) pair not seen
	// before changes anything.
	for _, id := range rep.Finished {
		g := l.groups[id]
		if g == nil {
			continue
		}
		g.seen = true
		if g.finishedBy[rep.ProcRank] {
			continue
		}
		g.finishedBy[rep.ProcRank] = true
		if !g.loggedDone && g.finished(l.reporters) {
			g.loggedDone = true
			// Debug: per-group cadence is too chatty for Info at
			// paper scale (thousands of groups per study).
			if olog.Default.Enabled(olog.Debug) {
				olog.Debugw("launcher.group_complete",
					"group", g.id, "attempts", g.attempts)
			}
		}
		l.refresh(g)
	}
	if rep.MaxCIWidth != 0 {
		l.maxCI[rep.ProcRank] = rep.MaxCIWidth
	}
	for _, id := range rep.TimedOut {
		l.handleTimeout(id, now)
	}
}

// handleTimeout implements the unfinished-group protocol: kill the job if
// still known to the scheduler and resubmit (Sec. 4.2.2, case 1).
func (l *Launcher) handleTimeout(id int, now time.Time) {
	g := l.groups[id]
	if g == nil || g.givenUp || g.abandoned || g.finished(l.reporters) {
		return
	}
	// Grace period: ignore stale timeout reports about an attempt we just
	// restarted (its first message may not have arrived yet). The server's
	// timeout is the batch-scaled value, so the grace must be too — with the
	// raw timeout, a batched study's stale reports would outlive the grace
	// and kill freshly restarted groups.
	if now.Sub(g.lastRestart) < l.groupTimeout {
		return
	}
	// A group mid-reconnect is alive: its retry backoff is what silenced the
	// message stream. Only after the budget is exhausted (the attempt then
	// fails and groupDone fires) may the timeout protocol kill it.
	if now.Sub(g.lastReconnect) < l.groupTimeout {
		return
	}
	if g.job != 0 {
		l.cfg.Cluster.Cancel(g.job, now)
		l.clearJob(g)
	}
	l.stats.TimeoutKills++
	l.retryOrGiveUp(g, now, fmt.Errorf("group %d timed out", id))
	l.refresh(g)
}

// checkZombies kills jobs the scheduler sees as running but that never
// contacted any server process (Sec. 4.2.2, case 2). A retry's new job may
// join jobIndex mid-range; it is pending, so the loop skips it.
func (l *Launcher) checkZombies(now time.Time) {
	if l.cfg.ZombieTimeout <= 0 {
		return
	}
	for _, g := range l.jobIndex {
		if !g.jobRunning || g.seen || g.givenUp || g.abandoned {
			continue
		}
		job := l.cfg.Cluster.Job(g.job)
		if job == nil || job.State != scheduler.Running {
			continue
		}
		if now.Sub(job.StartTime) >= l.cfg.ZombieTimeout {
			l.cfg.Cluster.Cancel(g.job, now)
			l.clearJob(g)
			l.stats.ZombieKills++
			l.retryOrGiveUp(g, now, fmt.Errorf("group %d is a zombie", g.id))
			l.refresh(g)
		}
	}
}

// checkServer restarts the server from its last checkpoint when heartbeats
// stop (Sec. 4.2.3), then restarts every unfinished group; replayed data is
// discarded by the restored trackers.
func (l *Launcher) checkServer(now time.Time) {
	if l.cfg.HeartbeatTimeout <= 0 || now.Sub(l.lastHeartbeat) < l.cfg.HeartbeatTimeout {
		return
	}
	olog.Warnw("launcher.server_heartbeat_lost",
		"silent_for", now.Sub(l.lastHeartbeat), "action", "restart from checkpoint")
	l.restartServer(now)
}

func (l *Launcher) injectServerCrash(now time.Time) {
	if l.cfg.Faults.ShouldCrashServer(now.Sub(l.start)) {
		olog.Infow("launcher.fault_server_crash", "elapsed", now.Sub(l.start))
		l.srv.Stop(false) // crash: no final checkpoint
		// Heartbeats cease; the next checkServer pass performs the restart.
		// Speed it up by backdating the last heartbeat.
		l.lastHeartbeat = now.Add(-24 * time.Hour)
	}
}

func (l *Launcher) restartServer(now time.Time) {
	l.stats.ServerRestarts++
	l.srv.Stop(false)
	if job := l.cfg.Cluster.Job(l.srvJob); job != nil && job.State == scheduler.Running {
		l.cfg.Cluster.Cancel(l.srvJob, now)
	}
	// Durable resume — available when there is a checkpoint to restore AND
	// the groups carry a reconnect budget: leave group jobs alive. Their
	// broken connections recover against the restarted server (same data
	// addresses), the resume handshake aligns them with the restored durable
	// frontier, and only the retained steps past it are resent — a server
	// crash costs seconds of re-sent window, not full replays. A group whose
	// retention cannot bridge the rollback fails its attempt (resume gap) and
	// takes the legacy replay path individually. Without budget or
	// checkpoints: the legacy protocol, kill everything running and replay.
	resume := l.cfg.Retry.MaxReconnects > 0 && l.cfg.CheckpointDir != ""
	resumed := 0
	for _, g := range l.groups {
		if g.job != 0 && !resume {
			if job := l.cfg.Cluster.Job(g.job); job != nil &&
				(job.State == scheduler.Running || job.State == scheduler.Pending) {
				l.cfg.Cluster.Cancel(g.job, now)
			}
			l.clearJob(g)
		} else if g.job != 0 && g.jobRunning {
			// Satellite of the recovery protocol: restart the liveness grace
			// clock — the group is mid-backoff against the dead server, and
			// stale timeout reports must not kill it while it reconnects.
			g.lastRestart = now
			resumed++
		}
		// Forget pre-crash completion reports: the restored server re-reports
		// its Finished lists from the checkpointed trackers.
		if !g.givenUp && !g.abandoned {
			g.finishedBy = make(map[int]bool)
			// Legacy path: completed-but-unconfirmed groups must rerun (their
			// queued data died with the old server). Durable path: completion
			// implied a durable drain, so the restored frontier covers them;
			// if a drain had timed out, the restored server's group timeout
			// re-reports the group and the replay fallback heals it.
			if !resume {
				g.completedOK = false
			}
		}
		l.refresh(g)
	}
	l.stats.ResumesAfterServerRestart += resumed
	if err := l.startServer(true); err != nil {
		olog.Errorw("launcher.server_restart_failed", "err", err)
		return
	}
	if resume {
		olog.Infow("launcher.server_resumed",
			"groups_kept", resumed, "addrs", len(l.srvAddrs))
	}
}

func (l *Launcher) groupByJob(id scheduler.JobID) *groupState { return l.jobIndex[id] }

func (g *groupState) finished(procs int) bool { return len(g.finishedBy) >= procs }

func (l *Launcher) runningGroups() int { return l.counts[classRunning] }

// studyComplete reports whether every live group is finished (or given up /
// abandoned), refreshing the finished counter as a side effect.
func (l *Launcher) studyComplete() bool {
	l.stats.GroupsFinished = l.counts[classFinished]
	return l.counts[classPending] == 0
}

// convergedEarly implements the loopback control: all server processes have
// reported a confidence-interval width below the target.
func (l *Launcher) convergedEarly() bool {
	if l.cfg.ConvergenceTarget <= 0 || len(l.maxCI) < l.cfg.ServerProcs {
		return false
	}
	for _, w := range l.maxCI {
		if math.IsInf(w, 1) || w > l.cfg.ConvergenceTarget {
			return false
		}
	}
	return true
}

// cancelOutstanding kills every pending and running group job (used when
// convergence is reached before all groups ran, Sec. 3.4).
func (l *Launcher) cancelOutstanding(now time.Time) {
	for _, g := range l.jobIndex {
		if job := l.cfg.Cluster.Job(g.job); job != nil &&
			(job.State == scheduler.Running || job.State == scheduler.Pending) {
			l.cfg.Cluster.Cancel(g.job, now)
		}
		l.clearJob(g)
		l.refresh(g)
	}
	l.studyComplete() // refresh the finished count
}
