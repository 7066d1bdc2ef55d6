package launcher

import (
	"math"
	"time"

	olog "melissa/internal/obs/log"
	"melissa/internal/transport"
	"melissa/internal/wire"
)

// reportBook is the report-ingest state: what each server process last
// reported about itself. Its slices are indexed by process rank, and only
// after the report's rank is checked against them.
type reportBook struct {
	// reporters is the number of server processes that own a non-empty
	// partition (ranks [0, reporters)): only they fold data, so only their
	// Finished lists finish a group and only their widths decide
	// convergence. A process with an empty partition never scans and
	// reports +Inf forever.
	reporters int
	// maxCI holds each rank's last reported nonzero confidence-interval
	// width (0: none yet).
	maxCI []float64
	// qtel holds each rank's last-reported {tuple count, sketch bytes}.
	qtel         [][2]int64
	backpressure float64 // the last report's fold-queue occupancy
}

// handleMessage applies one report from a server process. A report of the
// current incarnation is also its heartbeat.
func (l *Launcher) handleMessage(payload []byte, now time.Time) {
	decoded, _ := wire.Decode(payload) // nil unless the payload decodes
	transport.Recycle(payload)         // Decode copied everything out
	rep, ok := decoded.(*wire.Report)
	if !ok {
		return
	}
	// A crashed server's last reports claim progress that the restart rolled
	// back to the durable frontier. Applying them would mark still-running
	// groups finished (breaking MaxInFlight pacing and, worse, letting the
	// study complete without their re-sent folds). A rank outside the server
	// names no process at all.
	rank := rep.ProcRank
	if rep.Epoch != l.srvEpoch || rank < 0 || rank >= len(l.maxCI) {
		l.stats.StaleReportsDropped++
		return
	}
	l.lastHeartbeat = now
	l.backpressure = rep.Backpressure
	l.qtel[rank] = [2]int64{rep.TupleCount, rep.SketchBytes}
	if rep.MaxCIWidth != 0 {
		l.maxCI[rank] = rep.MaxCIWidth
	}
	for _, id := range rep.Running {
		if g := l.groups[id]; g != nil {
			g.seen = true
		}
	}
	// Finished lists are cumulative: only a (group, reporting rank) pair not
	// seen before changes anything.
	for _, id := range rep.Finished {
		g := l.groups[id]
		if g == nil {
			continue
		}
		g.seen = true
		if rank >= l.reporters || g.finishedBy[rank] {
			continue
		}
		g.finishedBy[rank] = true
		// Debug: per-group cadence is too chatty for Info at paper scale
		// (thousands of groups per study).
		if g.finished(l.reporters) && olog.Default.Enabled(olog.Debug) {
			olog.Debugw("launcher.group_complete", "group", g.id, "attempts", g.attempts)
		}
		l.refresh(g)
	}
	for _, id := range rep.TimedOut {
		l.handleTimeout(id, now)
	}
}

// worstCI is the widest confidence interval the reporting ranks last
// reported: +Inf until each has reported one.
func (l *Launcher) worstCI() float64 {
	worst := 0.0
	for _, w := range l.maxCI[:l.reporters] {
		if w == 0 || math.IsNaN(w) {
			return math.Inf(1)
		}
		worst = max(worst, w)
	}
	return worst
}

// convergedEarly implements the loopback control: every reporting server
// process has reported a confidence-interval width within the target.
func (l *Launcher) convergedEarly() bool {
	return l.cfg.ConvergenceTarget > 0 && l.worstCI() <= l.cfg.ConvergenceTarget
}
