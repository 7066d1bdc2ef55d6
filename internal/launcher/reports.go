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
	// links holds each rank's report sequence state in the current epoch;
	// stale counts the ranks marked stale.
	links []reportLink
	stale int
}

// reportLink follows one server process's report stream within an epoch.
// Reports carry deltas, so a lost one would lose the finishes it listed.
// The stream numbers its reports and counts its finishes; a report that
// skips a number, or whose finished count does not continue the last one,
// marks the rank stale. Loss happens only with a broken connection, and the
// process then redials and sends its whole finished set: the first chunk
// after the gap restarts the stream, and once its last chunk arrives
// without a gap, nothing is missing any more. A rank starts stale: each
// epoch begins with a full set. While any rank is stale the zombie check
// waits, since the lost reports may have been a group's first sighting.
type reportLink struct {
	next     int64 // the sequence number expected next
	finished int64 // the finished count as of the last report in order
	stale    bool
	syncing  bool // a full set is arriving with no gap since its first chunk
}

// resetLinks marks every rank stale for a new epoch.
func (l *Launcher) resetLinks() {
	for i := range l.links {
		l.links[i] = reportLink{stale: true}
	}
	l.stale = len(l.links)
}

// follow advances rank's link over one report.
func (l *Launcher) follow(rank int, rep *wire.Report) {
	k := &l.links[rank]
	if rep.Seq < k.next {
		return // a late frame of a broken connection: its ids still count
	}
	first := rep.Sync&wire.SyncFirst != 0
	if rep.Seq > k.next || !first && rep.FinishedCount-int64(len(rep.Finished)) != k.finished {
		k.syncing = false
		if !k.stale {
			l.stats.ReportGaps++
			olog.Default.Warn("launcher.report_gap", "rank", rank, "seq", rep.Seq, "expected", k.next)
			k.stale = true
			l.stale++
		}
	}
	if first {
		k.syncing = true
	}
	k.next, k.finished = rep.Seq+1, rep.FinishedCount
	if k.syncing && rep.Sync&wire.SyncLast != 0 {
		k.syncing = false
		if k.stale {
			k.stale = false
			l.stale--
		}
	}
}

// handleMessage applies one report from a server process, at a cost of
// O(ids it lists). A report of the current incarnation is also its
// heartbeat.
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
	l.follow(rank, rep)
	l.lastHeartbeat = now
	l.backpressure = rep.Backpressure
	l.qtel[rank] = [2]int64{rep.TupleCount, rep.SketchBytes}
	if rep.MaxCIWidth != 0 {
		l.maxCI[rank] = rep.MaxCIWidth
	}
	for _, id := range rep.Started {
		if g := l.groups[id]; g != nil {
			g.seen = true
		}
	}
	// Only a (group, reporting rank) pair not seen before changes anything:
	// a full set repeats finishes the launcher already has.
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
		if g.finished(l.reporters) {
			l.release(g, now)
			// Debug: per-group cadence is too chatty for Info at paper scale
			// (thousands of groups per study).
			if olog.Default.Enabled(olog.Debug) {
				olog.Default.Debug("launcher.group_complete", "group", g.id, "attempts", g.attempts)
			}
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
