package launcher

import (
	"fmt"
	"os"
	"time"

	"melissa/internal/checkpoint"
	olog "melissa/internal/obs/log"
	"melissa/internal/scheduler"
	"melissa/internal/server"
)

// serverSup is the server supervisor's state: the current incarnation, its
// job, its data addresses and its liveness clock.
type serverSup struct {
	srv    *server.Server
	srvJob scheduler.JobID
	// srvAddrs pins the per-process data addresses across server restarts:
	// live groups recover broken connections by redialing the address they
	// already hold, so a restarted server must listen where its predecessor
	// did.
	srvAddrs []string
	// srvEpoch numbers the incarnations. A stopped server's reports carry
	// the old epoch and are dropped: they must neither refresh the new
	// incarnation's liveness clock nor finish groups whose folds were rolled
	// back to the durable frontier.
	srvEpoch int
	// lastHeartbeat is when the current incarnation started or last reported.
	lastHeartbeat time.Time
}

// startServer creates (or re-creates) the parallel server, optionally
// restoring from the last checkpoint (Sec. 4.2.3).
func (l *Launcher) startServer(restore bool) error {
	l.srvEpoch++
	srv, err := server.New(server.Config{
		Epoch:       l.srvEpoch,
		Procs:       l.cfg.ServerProcs,
		FoldWorkers: l.cfg.FoldWorkers,
		Cells:       l.cfg.Cells,
		Timesteps:   l.cfg.Timesteps,
		P:           l.cfg.Design.P(),
		Stats:       l.cfg.Stats,
		Network:     l.cfg.Network,
		// A restart rebinds the previous incarnation's data addresses (none
		// on the first start), so the connections live groups are retrying
		// become valid again the moment the new server listens.
		Addrs:              l.srvAddrs,
		GroupTimeout:       l.cfg.GroupTimeout,
		CheckpointInterval: l.cfg.CheckpointInterval,
		CheckpointDir:      l.cfg.CheckpointDir,
		WireCodec:          l.cfg.WireCodec,
		LauncherAddr:       l.recv.Addr(),
		ReportInterval:     l.cfg.TickInterval,
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
	l.resetLinks()
	l.srvAddrs = srv.Addrs()
	// Not the pass's clock: stopping the old incarnation and restoring the
	// checkpoint can outlast HeartbeatTimeout, and the new incarnation's
	// liveness clock starts when it does.
	l.lastHeartbeat = time.Now()
	srv.Start()
	return nil
}

// checkServer restarts the server from its last checkpoint when its reports
// stop (Sec. 4.2.3), or crashes and restarts it when the fault plan says so.
func (l *Launcher) checkServer(now time.Time) {
	switch {
	case l.cfg.Faults.ShouldCrashServer(now.Sub(l.start)):
		olog.Default.Info("launcher.fault_server_crash", "elapsed", now.Sub(l.start))
	case l.cfg.HeartbeatTimeout > 0 && now.Sub(l.lastHeartbeat) >= l.cfg.HeartbeatTimeout:
		olog.Default.Warn("launcher.server_heartbeat_lost",
			"silent_for", now.Sub(l.lastHeartbeat), "action", "restart from checkpoint")
	default:
		return
	}
	l.restartServer(now)
}

// clearCheckpoints removes the per-rank checkpoints an earlier study left
// in the checkpoint directory — a server restart would restore them as this
// study's state: the manifests, then (through the sweep, which finds them
// unreferenced) their segments, with any abandoned temp files.
func (l *Launcher) clearCheckpoints() error {
	dir := l.cfg.CheckpointDir
	if dir == "" {
		return nil
	}
	for rank := 0; rank < l.cfg.ServerProcs; rank++ {
		if path := checkpoint.Filename(dir, rank); checkpoint.Exists(path) {
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("launcher: %w", err)
			}
			olog.Default.Warn("launcher.stale_checkpoint_removed", "file", path)
		}
	}
	removed, err := checkpoint.SweepTemps(dir)
	if len(removed) > 0 {
		olog.Default.Warn("launcher.stale_checkpoint_removed", "files", removed)
	}
	return err
}

// restartServer stops the current incarnation without a last checkpoint and
// starts a new one from the last checkpoint; the groups either resume
// against it or replay.
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
	// checkpoints: the legacy protocol, kill everything running and replay;
	// the restored trackers discard the replayed data.
	resume := l.cfg.Retry.MaxReconnects > 0 && l.cfg.CheckpointDir != ""
	resumed := 0
	for _, g := range l.groups {
		if g.job != 0 && !resume {
			l.cancelJob(g, now)
		} else if g.job != 0 && (g.jobRunning || g.finished(l.reporters)) {
			// The group is mid-backoff against the dead server (a released
			// one mid-drain included): stale timeout reports must not kill it
			// while it reconnects.
			g.holdTimeouts(now)
			resumed++
		}
		// Forget pre-crash completion reports: the restored server re-reports
		// its Finished lists from the checkpointed trackers.
		if !g.givenUp && !g.abandoned {
			clear(g.finishedBy)
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
		olog.Default.Error("launcher.server_restart_failed", "err", err)
		return
	}
	if resume {
		olog.Default.Info("launcher.server_resumed",
			"groups_kept", resumed, "addrs", len(l.srvAddrs))
	}
}
