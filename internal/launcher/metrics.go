package launcher

import (
	"math"
	"sync/atomic"
	"time"

	"melissa/internal/obs"
)

// studyTelemetry mirrors the launcher's supervision state into atomics so the
// /status and /metrics scrape goroutines can read a consistent snapshot
// without touching any structure owned by the supervision loop, which calls
// publishStatus once per pass; scrapes only load.
type studyTelemetry struct {
	groupsTotal     atomic.Int64
	groupsRunning   atomic.Int64
	groupsFinished  atomic.Int64
	groupsGivenUp   atomic.Int64
	groupsResampled atomic.Int64
	restarts        atomic.Int64
	reconnects      atomic.Int64
	timeoutKills    atomic.Int64
	zombieKills     atomic.Int64
	serverRestarts  atomic.Int64
	serverResumes   atomic.Int64
	usedNodes       atomic.Int64
	converged       atomic.Bool
	startNano       atomic.Int64
	// backpressure and maxCIWidth are float64 bits (obs.Gauge convention).
	backpressure atomic.Uint64
	maxCIWidth   atomic.Uint64
	// Live quantile-sketch totals summed from the per-rank server reports.
	tupleCount  atomic.Int64
	sketchBytes atomic.Int64
}

// Study-level gauges: one registry-wide set, fed by whichever launcher ran
// last (one study per process in every supported deployment).
var (
	lGroupsRunning = obs.NewGauge("melissa_study_groups_running",
		"Simulation group jobs currently executing on the cluster.")
	lGroupsFinished = obs.NewGauge("melissa_study_groups_finished",
		"Simulation groups confirmed finished by every reporting server process.")
	lGroupsGivenUp = obs.NewGauge("melissa_study_groups_given_up",
		"Simulation groups abandoned after exhausting the retry budget.")
	lRestarts = obs.NewGauge("melissa_study_group_restarts",
		"Group attempts resubmitted after a failure.")
	lReconnects = obs.NewGauge("melissa_study_group_reconnects",
		"Server connections groups re-established in place instead of failing the attempt.")
	lServerRestarts = obs.NewGauge("melissa_study_server_restarts",
		"Server restarts from checkpoint after heartbeat loss.")
	lServerResumes = obs.NewGauge("melissa_study_resumes_after_server_restart",
		"Group jobs kept alive across server restarts to resume against the restored durable frontier (instead of replaying).")
	lUsedNodes = obs.NewGauge("melissa_study_used_nodes",
		"Cluster nodes currently occupied by study jobs.")
	lTupleCount = obs.NewGauge("melissa_study_quantile_tuples",
		"Live quantile-sketch tuples across all server processes (from reports).")
	lSketchBytes = obs.NewGauge("melissa_study_quantile_sketch_bytes",
		"Live quantile-sketch memory across all server processes (from reports).")

	// The supervision loop's wakeups by cause, resolved once so counting a
	// wakeup is one atomic add.
	lWakeups = obs.NewCounterVec("melissa_launcher_wakeups_total",
		"Launcher supervision-loop wakeups, by what woke it: a group attempt exit (done), a server report (report), a group reconnect (reconnect), or the ticker of the time-based checks (tick).",
		"cause")
	wakeDone      = lWakeups.With("done")
	wakeReport    = lWakeups.With("report")
	wakeReconnect = lWakeups.With("reconnect")
	wakeTick      = lWakeups.With("tick")
)

// StudyStatus is the launcher's section of the /status document: the
// supervisor's view of the study — job bookkeeping and fault-tolerance
// actions — complementing the server section's data-plane counters.
type StudyStatus struct {
	GroupsTotal     int64 `json:"groups_total"`
	GroupsRunning   int64 `json:"groups_running"`
	GroupsFinished  int64 `json:"groups_finished"`
	GroupsGivenUp   int64 `json:"groups_given_up"`
	GroupsResampled int64 `json:"groups_resampled"`
	Restarts        int64 `json:"group_restarts"`
	Reconnects      int64 `json:"group_reconnects"`
	TimeoutKills    int64 `json:"timeout_kills"`
	ZombieKills     int64 `json:"zombie_kills"`
	ServerRestarts  int64 `json:"server_restarts"`
	// ResumesAfterServerRestart counts group jobs kept alive across server
	// restarts (the durable-recovery path; zero under the legacy protocol).
	ResumesAfterServerRestart int64 `json:"resumes_after_server_restart"`
	UsedNodes                 int64 `json:"used_nodes"`
	Converged                 bool  `json:"converged"`

	ElapsedSeconds float64 `json:"elapsed_seconds"`

	// MaxCIWidth is the worst confidence-interval width reported by any
	// server process; null until convergence scans produce one.
	MaxCIWidth *float64 `json:"max_ci_width"`

	// Backpressure is the fold-pipeline queue occupancy [0,1] carried by the
	// last server report (monitoring only).
	Backpressure float64 `json:"backpressure"`

	QuantileTuples      int64 `json:"quantile_tuples"`
	QuantileSketchBytes int64 `json:"quantile_sketch_bytes"`
}

// publishStatus refreshes the telemetry mirror from supervision-loop state.
// Called only from the supervision loop.
func (l *Launcher) publishStatus(now time.Time) {
	running := int64(l.runningGroups())
	l.tel.groupsTotal.Store(int64(len(l.groups)))
	l.tel.groupsRunning.Store(running)
	l.tel.groupsFinished.Store(int64(l.stats.GroupsFinished))
	l.tel.groupsGivenUp.Store(int64(l.stats.GroupsGivenUp))
	l.tel.groupsResampled.Store(int64(l.stats.GroupsResampled))
	l.tel.restarts.Store(int64(l.stats.Restarts))
	l.tel.reconnects.Store(int64(l.stats.Reconnects))
	l.tel.timeoutKills.Store(int64(l.stats.TimeoutKills))
	l.tel.zombieKills.Store(int64(l.stats.ZombieKills))
	l.tel.serverRestarts.Store(int64(l.stats.ServerRestarts))
	l.tel.serverResumes.Store(int64(l.stats.ResumesAfterServerRestart))
	l.tel.usedNodes.Store(int64(l.cfg.Cluster.UsedNodes()))
	l.tel.converged.Store(l.stats.Converged)

	worst := math.Inf(1)
	for _, w := range l.maxCI {
		if math.IsInf(worst, 1) || w > worst {
			worst = w
		}
	}
	l.tel.maxCIWidth.Store(math.Float64bits(worst))

	var tuples, bytes int64
	for _, t := range l.qtel {
		tuples += t[0]
		bytes += t[1]
	}
	l.tel.tupleCount.Store(tuples)
	l.tel.sketchBytes.Store(bytes)

	lGroupsRunning.SetInt(running)
	lGroupsFinished.SetInt(int64(l.stats.GroupsFinished))
	lGroupsGivenUp.SetInt(int64(l.stats.GroupsGivenUp))
	lRestarts.SetInt(int64(l.stats.Restarts))
	lReconnects.SetInt(int64(l.stats.Reconnects))
	lServerRestarts.SetInt(int64(l.stats.ServerRestarts))
	lServerResumes.SetInt(int64(l.stats.ResumesAfterServerRestart))
	lUsedNodes.Set(float64(l.cfg.Cluster.UsedNodes()))
	lTupleCount.SetInt(tuples)
	lSketchBytes.SetInt(bytes)
}

// snapshotStatus assembles the scrape-safe StudyStatus from the mirror.
func (l *Launcher) snapshotStatus() StudyStatus {
	st := StudyStatus{
		GroupsTotal:               l.tel.groupsTotal.Load(),
		GroupsRunning:             l.tel.groupsRunning.Load(),
		GroupsFinished:            l.tel.groupsFinished.Load(),
		GroupsGivenUp:             l.tel.groupsGivenUp.Load(),
		GroupsResampled:           l.tel.groupsResampled.Load(),
		Restarts:                  l.tel.restarts.Load(),
		Reconnects:                l.tel.reconnects.Load(),
		TimeoutKills:              l.tel.timeoutKills.Load(),
		ZombieKills:               l.tel.zombieKills.Load(),
		ServerRestarts:            l.tel.serverRestarts.Load(),
		ResumesAfterServerRestart: l.tel.serverResumes.Load(),
		UsedNodes:                 l.tel.usedNodes.Load(),
		Converged:                 l.tel.converged.Load(),
		Backpressure:              math.Float64frombits(l.tel.backpressure.Load()),
		QuantileTuples:            l.tel.tupleCount.Load(),
		QuantileSketchBytes:       l.tel.sketchBytes.Load(),
	}
	if start := l.tel.startNano.Load(); start > 0 {
		st.ElapsedSeconds = time.Since(time.Unix(0, start)).Seconds()
	}
	w := math.Float64frombits(l.tel.maxCIWidth.Load())
	if !math.IsInf(w, 0) && !math.IsNaN(w) && w != 0 {
		st.MaxCIWidth = &w
	}
	return st
}
