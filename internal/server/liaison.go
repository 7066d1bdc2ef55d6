package server

import (
	"fmt"
	"time"

	"melissa/internal/transport"
	"melissa/internal/wire"
)

// liaison is the launcher-facing stage: the lazily dialed launcher
// connection, heartbeats, and the periodic and final status reports. Run-loop
// goroutine only.
type liaison struct {
	cfg   *procConfig
	route *router
	fold  *foldPool

	launcher transport.Sender // nil until dialed, and again after a failed send
	// rep is the report scratch: wire.Encode serializes it before send
	// returns, so the group-id slices are reused across reports.
	rep wire.Report
}

func (l *liaison) close() {
	if l.launcher != nil {
		l.launcher.Close()
	}
}

// send ships one message to the launcher, dialing first if needed. A launcher
// that is unreachable or whose connection broke is retried on the next call.
func (l *liaison) send(msg any) {
	if l.cfg.LauncherAddr == "" {
		return
	}
	if l.launcher == nil {
		s, err := l.cfg.Network.Dial(l.cfg.LauncherAddr)
		if err != nil {
			return
		}
		l.launcher = s
	}
	if err := l.launcher.Send(wire.Encode(msg)); err != nil {
		l.launcher = nil
	}
}

func (l *liaison) heartbeat(now time.Time) {
	l.send(&wire.Heartbeat{
		Sender:     fmt.Sprintf("server-%d", l.cfg.Rank),
		TimeMillis: now.UnixMilli(),
		Epoch:      l.cfg.Epoch,
	})
}

// report ships the bookkeeping lists of Sec. 4.2.2 and the pipeline
// telemetry to the launcher. final marks the stop-path report, which runs
// after quiesce and may therefore read the accumulator directly; periodic
// reports must not (the flag is a parameter, not a stop-flag read, because
// that can flip mid-iteration while workers are still folding).
func (l *liaison) report(final bool) {
	if l.cfg.LauncherAddr == "" {
		return
	}
	rep := &l.rep
	rep.ProcRank, rep.Epoch = l.cfg.Rank, l.cfg.Epoch
	l.route.fillReport(rep)
	// The congestion hint of the adaptive-batching loop: how full the
	// fold-pipeline queues are right now (0 after the stop-path quiesce).
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
	l.send(rep)
}
