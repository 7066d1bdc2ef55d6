package launcher

import (
	"math"
	"time"

	"melissa/internal/obs"
)

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
// actions — complementing the server section's data-plane counters. The
// supervision loop publishes a fresh one every pass and never mutates it.
type StudyStatus struct {
	Stats
	GroupsTotal    int     `json:"groups_total"`
	GroupsRunning  int     `json:"groups_running"`
	UsedNodes      int     `json:"used_nodes"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`

	// MaxCIWidth is the worst confidence-interval width reported by the
	// server processes that fold; null until each has reported one.
	MaxCIWidth *float64 `json:"max_ci_width"`

	// Backpressure is the fold-pipeline queue occupancy [0,1] carried by the
	// last server report (monitoring only).
	Backpressure float64 `json:"backpressure"`

	QuantileTuples      int64 `json:"quantile_tuples"`
	QuantileSketchBytes int64 `json:"quantile_sketch_bytes"`
}

// publishStatus publishes the study's status as of this pass, for /status
// and the gauges. Called only from the supervision loop.
func (l *Launcher) publishStatus(now time.Time) {
	var tuples, bytes int64
	for _, t := range l.qtel {
		tuples += t[0]
		bytes += t[1]
	}
	st := &StudyStatus{
		Stats:               l.stats,
		GroupsTotal:         len(l.groups),
		GroupsRunning:       l.counts[classRunning],
		UsedNodes:           l.cfg.Cluster.UsedNodes(),
		ElapsedSeconds:      now.Sub(l.start).Seconds(),
		Backpressure:        l.backpressure,
		QuantileTuples:      tuples,
		QuantileSketchBytes: bytes,
	}
	if w := l.worstCI(); !math.IsInf(w, 0) && w != 0 {
		st.MaxCIWidth = &w
	}
	l.status.Store(st)

	lGroupsRunning.SetInt(int64(st.GroupsRunning))
	lGroupsFinished.SetInt(int64(st.GroupsFinished))
	lGroupsGivenUp.SetInt(int64(st.GroupsGivenUp))
	lRestarts.SetInt(int64(st.Restarts))
	lReconnects.SetInt(int64(st.Reconnects))
	lServerRestarts.SetInt(int64(st.ServerRestarts))
	lServerResumes.SetInt(int64(st.ResumesAfterServerRestart))
	lUsedNodes.SetInt(int64(st.UsedNodes))
	lTupleCount.SetInt(tuples)
	lSketchBytes.SetInt(bytes)
}
