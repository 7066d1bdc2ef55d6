package server

import (
	"melissa/internal/core"
	"melissa/internal/transport"
	"melissa/internal/wire"
)

// liaison is the launcher-facing stage: the lazily dialed launcher
// connection and the periodic and final status reports. The periodic report
// goes out every ReportInterval whether or not the process is busy, so it is
// also the process's liveness beacon. Run-loop goroutine only.
//
// A report carries what changed since the previous one. On a fresh
// connection — the first dial of an epoch, or a redial after a broken one
// lost frames — the liaison first sends the whole finished set (and the
// running groups), in chunks of at most wire.MaxReportIDs ids, and then only
// deltas. Every frame carries the next sequence number of this incarnation,
// so the launcher sees a gap when frames were lost; the redial's full set
// is what heals it.
type liaison struct {
	cfg   *procConfig
	route *router
	fold  *foldPool

	launcher transport.Sender // nil until dialed, and again after a failed send
	// seq numbers the next report frame of this incarnation.
	seq int64
	// sent is how much of the router's finished log the current connection
	// has carried.
	sent int
	// rep is the report scratch: wire.Encode serializes it before Send
	// returns, so its lists may alias the router's. running and timedOut are
	// scratch too.
	rep      wire.Report
	running  []int
	timedOut []int
}

func (l *liaison) close() {
	if l.launcher != nil {
		l.launcher.Close()
	}
}

// report ships the bookkeeping changes of Sec. 4.2.2 and the pipeline
// telemetry to the launcher, dialing first if needed; a launcher that is
// unreachable, or whose connection broke, is retried on the next call.
// final marks the stop-path report, which runs after the fold workers were
// joined and may therefore read the accumulator directly; periodic reports
// must not, because workers are still folding.
func (l *liaison) report(final bool) {
	r := l.route
	if l.cfg.LauncherAddr == "" {
		r.started = r.started[:0]
		return
	}
	l.timedOut = r.timedOut(l.timedOut, wire.MaxReportIDs)
	var sync uint8
	if l.launcher == nil {
		s, err := l.cfg.Network.Dial(l.cfg.LauncherAddr)
		if err != nil {
			r.started = r.started[:0] // the full set after the dial lists them
			return
		}
		l.launcher, l.sent, sync = s, 0, wire.SyncFirst
	}
	started := r.started
	if sync != 0 {
		l.running = l.running[:0]
		for g := range r.lastMsg {
			if r.tracker.State(g) == core.GroupRunning {
				l.running = append(l.running, g)
			}
		}
		started = l.running
	}
	finished, timedOut := r.finishedLog[l.sent:], l.timedOut

	rep := &l.rep
	rep.ProcRank, rep.Epoch = l.cfg.Rank, l.cfg.Epoch
	l.telemetry(rep, final)
	count := int64(l.sent)
	for {
		// Fill one frame with up to MaxReportIDs ids, in list order.
		room := wire.MaxReportIDs
		rep.Started, started, room = cut(started, room)
		rep.Finished, finished, room = cut(finished, room)
		rep.TimedOut, timedOut, _ = cut(timedOut, room)
		count += int64(len(rep.Finished))
		rep.FinishedCount = count
		rep.Sync = sync
		last := len(started)+len(finished)+len(timedOut) == 0
		if last && sync != 0 {
			rep.Sync |= wire.SyncLast
		}
		rep.Seq = l.seq
		l.seq++
		if err := l.launcher.Send(wire.Encode(rep)); err != nil {
			l.launcher.Close()
			l.launcher = nil
			return
		}
		if last {
			break
		}
		sync &^= wire.SyncFirst
	}
	l.sent = len(r.finishedLog)
	r.started = r.started[:0]
	r.forget(l.timedOut)
}

// cut splits off the first min(len(ids), room) ids and returns them, the
// rest and the room left.
func cut(ids []int, room int) (head, rest []int, left int) {
	n := min(len(ids), room)
	return ids[:n], ids[n:], room - n
}

// telemetry fills the report's non-bookkeeping fields.
func (l *liaison) telemetry(rep *wire.Report, final bool) {
	rep.Messages = l.route.messages.Load()
	// How full the fold-pipeline queues are right now (0 in the final
	// report).
	rep.Backpressure = l.fold.backpressure()
	// Live sketch telemetry from the last completed worker scan (zero
	// without quantile sketches: no scan runs for them), so the launcher
	// (and a future memory governor) sees quantile memory without quiescing
	// the pool.
	rep.TupleCount, rep.SketchBytes = l.fold.sketchTelemetry()
	switch {
	case !l.cfg.ConvergenceReports:
		rep.MaxCIWidth = 0
	case final:
		// An exact scan is safe — and cheap, since only the timesteps
		// dirtied after the last worker scan are rescanned.
		rep.MaxCIWidth = l.fold.accumulator().MaxCIWidth(ciLevel)
	default:
		// Publish the last completed worker scan; the fold pool never
		// stalls. Scans are paced by folds, not by reports: the value lags
		// the stream by at most one group's worth of folds plus queue
		// depth — and by nothing once the inbox has gone idle — which only
		// makes the convergence stop conservative.
		rep.MaxCIWidth = l.fold.ciWidth()
	}
}
