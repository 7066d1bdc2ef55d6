package launcher

import (
	"fmt"
	"time"

	"melissa/internal/client"
	olog "melissa/internal/obs/log"
	"melissa/internal/scheduler"
)

// groupBook is the group-lifecycle state: every group in submission order,
// the per-class counts, the submit frontier and the live-job index.
type groupBook struct {
	groups map[int]*groupState
	order  []int
	// counts holds, per group class, how many groups are in it.
	counts [numClasses]int
	// next is the submit frontier: no group before this position in order
	// is eligible, so submission resumes here, in order.
	next int
	// jobIndex maps live scheduler job ids to their group.
	jobIndex map[scheduler.JobID]*groupState
}

// groupState tracks one simulation group across attempts.
type groupState struct {
	id         int
	pos        int   // index in groupBook.order
	class      uint8 // the class bits last counted into groupBook.counts
	attempts   int
	job        scheduler.JobID
	jobRunning bool
	// finishedBy holds the reporting ranks (those < reporters) that have
	// listed the group finished in the current server incarnation.
	finishedBy map[int]bool
	seen       bool // any server process ever listed it
	// completedOK means the job returned success; its data is queued or
	// folded but the server reports may not have confirmed it yet. Such
	// groups must not be resubmitted (they would run again and be
	// replay-discarded, wasting a full execution).
	completedOK bool
	givenUp     bool
	abandoned   bool // replaced under the resample policy
	// grace is the latest of the attempt's start, a server restart it was
	// kept alive across, and its last reconnect: the group is alive, and
	// timeout reports hold off until GroupTimeout has passed since.
	grace time.Time
	// stop ends the current attempt: closed when the attempt is killed or
	// done, it unwinds an injected hang and stops the run itself.
	stop chan struct{}
}

// Group classes: the counts a pass needs, each a bit of groupState.class.
// refresh keeps every group's cached class and groupBook.counts in step at
// each state transition, so no pass has to scan the groups.
const (
	classInFlight = iota // job submitted, group not finished (the MaxInFlight budget)
	classRunning         // job started by the scheduler
	classFinished        // live, and confirmed by every reporting server process
	classPending         // live and not finished: the study waits on it
	classEligible        // live, unfinished, no job, not completed: may be submitted
	numClasses
)

func (g *groupState) finished(reporters int) bool { return len(g.finishedBy) >= reporters }

// holdTimeouts moves the group's grace clock forward to t.
func (g *groupState) holdTimeouts(t time.Time) {
	if t.After(g.grace) {
		g.grace = t
	}
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

// submitEligible queues group jobs up to the in-flight cap, in group order.
func (l *Launcher) submitEligible(now time.Time) {
	for l.counts[classInFlight] < l.cfg.MaxInFlight {
		g := l.nextEligible()
		if g == nil {
			return
		}
		if err := l.submitGroup(g, now); err != nil {
			olog.Default.Error("launcher.submit_failed", "group", g.id, "err", err)
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

// release ends the running job of a group every reporting process has
// confirmed finished: its data is all folded, so the scheduler completes the
// job and its MaxInFlight slot is free. The attempt may still be waiting for
// durability; it stays in the job index, so its exit is applied as usual and
// the study's end stops it.
func (l *Launcher) release(g *groupState, now time.Time) {
	if g.jobRunning {
		l.cfg.Cluster.Complete(g.job, now)
		g.jobRunning = false
	}
}

// cancelJob cancels the group's job if the scheduler still runs or queues
// it, and detaches the group from it.
func (l *Launcher) cancelJob(g *groupState, now time.Time) {
	if job := l.cfg.Cluster.Job(g.job); job != nil &&
		(job.State == scheduler.Running || job.State == scheduler.Pending) {
		l.cfg.Cluster.Cancel(g.job, now)
	}
	l.clearJob(g)
}

// tickCluster advances the scheduler and launches the jobs it started.
func (l *Launcher) tickCluster(now time.Time) {
	started, killed := l.cfg.Cluster.Tick(now)
	for _, job := range started {
		g := l.jobIndex[job.ID]
		if g == nil {
			continue // the server's job
		}
		g.jobRunning = true
		g.attempts++
		g.holdTimeouts(now)
		l.refresh(g)
		l.launchGroup(g, job.ID, g.attempts-1)
	}
	for _, job := range killed {
		if g := l.jobIndex[job.ID]; g != nil {
			// Walltime kill: fail the attempt and retry, right here. The
			// attempt's own exit arrives later and is dropped as stale.
			l.handleDone(g.id, job.ID, fmt.Errorf("walltime exceeded"), now)
		}
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
		select { // non-blocking: a full queue only costs grace accuracy
		case l.events <- event{kind: evReconnect, group: id}:
		default:
		}
	}
	stop := g.stop
	l.attempts.Add(1)
	go func() {
		defer l.attempts.Done()
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
			Stop:       stop,
		})
		select {
		case l.events <- event{kind: evDone, group: id, job: job, err: err}:
		case <-l.stopped:
		}
	}()
}

// handleDone applies an attempt's exit.
func (l *Launcher) handleDone(id int, job scheduler.JobID, cause error, now time.Time) {
	g := l.groups[id]
	if g == nil || g.job != job {
		return // stale exit of a killed/restarted attempt
	}
	l.clearJob(g)
	if j := l.cfg.Cluster.Job(job); j != nil && j.State == scheduler.Running {
		if cause == nil {
			l.cfg.Cluster.Complete(job, now)
		} else {
			l.cfg.Cluster.Fail(job, now)
		}
	}
	if cause == nil {
		g.completedOK = true // server reports will confirm the finish
	} else {
		l.retryOrGiveUp(g, now, cause)
	}
	l.refresh(g)
}

// retryOrGiveUp applies the Sec. 4.2 failure policy to a failed attempt. The
// caller refreshes g.
func (l *Launcher) retryOrGiveUp(g *groupState, now time.Time, cause error) {
	if g.attempts > l.cfg.MaxRetries {
		g.givenUp = true
		l.stats.GroupsGivenUp++
		olog.Default.Warn("launcher.group_giveup",
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

// kill cancels a group's job, if it has one, and applies the failure policy.
func (l *Launcher) kill(g *groupState, now time.Time, cause error) {
	l.cancelJob(g, now)
	l.retryOrGiveUp(g, now, cause)
	l.refresh(g)
}

// handleTimeout implements the unfinished-group protocol: kill the job if
// still known to the scheduler and resubmit (Sec. 4.2.2, case 1).
func (l *Launcher) handleTimeout(id int, now time.Time) {
	g := l.groups[id]
	if g == nil || g.givenUp || g.abandoned || g.finished(l.reporters) {
		return
	}
	// Grace: a timeout report about an attempt that just started (its first
	// message may not have arrived yet), one kept alive across a server
	// restart, or one mid-reconnect (its retry backoff is what silenced the
	// stream) is stale. Only once the reconnect budget is exhausted — the
	// attempt then fails and exits — may the timeout protocol kill it.
	if now.Sub(g.grace) < l.cfg.GroupTimeout {
		return
	}
	l.stats.TimeoutKills++
	l.kill(g, now, fmt.Errorf("group %d timed out", id))
}

// checkZombies kills jobs the scheduler sees as running but that never
// contacted any server process (Sec. 4.2.2, case 2). It waits while a
// process's reports are stale: a lost report may have held a group's first
// sighting. A retry's new job may join jobIndex mid-range; it is pending, so
// the loop skips it.
func (l *Launcher) checkZombies(now time.Time) {
	if l.cfg.ZombieTimeout <= 0 || l.stale > 0 {
		return
	}
	for _, g := range l.jobIndex {
		if !g.jobRunning || g.seen || g.givenUp || g.abandoned {
			continue
		}
		if job := l.cfg.Cluster.Job(g.job); job != nil && job.State == scheduler.Running &&
			now.Sub(job.StartTime) >= l.cfg.ZombieTimeout {
			l.stats.ZombieKills++
			l.kill(g, now, fmt.Errorf("group %d is a zombie", g.id))
		}
	}
}

// studyComplete reports whether every live group is finished (or given up /
// abandoned), refreshing the finished counter as a side effect.
func (l *Launcher) studyComplete() bool {
	l.stats.GroupsFinished = l.counts[classFinished]
	return l.counts[classPending] == 0
}
