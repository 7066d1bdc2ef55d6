// Package melissa is a Go implementation of Melissa, the large-scale
// in-transit sensitivity-analysis framework of Terraz et al. (SC'17):
// "Melissa: Large Scale In Transit Sensitivity Analysis Avoiding
// Intermediate Files".
//
// Melissa computes ubiquitous Sobol' indices — first-order and total
// variance-based sensitivity indices for every mesh cell and every timestep
// of a multi-run simulation study — without storing any simulation output.
// Groups of p+2 pick-freeze simulations stream their per-timestep fields to
// a parallel server that folds them into one-pass (iterative) statistics
// and discards the data. The architecture is fault tolerant (liveness
// reports, discard-on-replay, checkpoint/restart) and elastic (groups are
// independent batch jobs that connect dynamically).
//
// Two entry points cover most uses:
//
//   - EstimateSobol runs the iterative Martinez estimator on a scalar
//     function in-process — the algorithmic core with no distribution.
//   - RunStudy executes a full field study through the complete framework:
//     launcher, batch scheduler, parallel server, simulation groups and
//     two-stage data transfers, all inside one process.
//
// The cmd/ binaries run the same components across real TCP sockets.
package melissa

import (
	"fmt"
	"time"

	"melissa/internal/client"
	"melissa/internal/core"
	"melissa/internal/launcher"
	"melissa/internal/obs"
	olog "melissa/internal/obs/log"
	"melissa/internal/sampling"
	"melissa/internal/scheduler"
	"melissa/internal/server"
	"melissa/internal/sobol"
	"melissa/internal/transport"
)

// Distribution describes the probability law of one uncertain input
// parameter (Sec. 2 of the paper: global sensitivity analysis treats inputs
// as random variables).
type Distribution = sampling.Distribution

// Re-exported parameter laws.
type (
	// Uniform is the uniform law on [Low, High].
	Uniform = sampling.Uniform
	// Normal is the Gaussian law.
	Normal = sampling.Normal
	// LogUniform is log-uniform on [Low, High].
	LogUniform = sampling.LogUniform
	// TruncatedNormal is a Gaussian clipped to [Low, High].
	TruncatedNormal = sampling.TruncatedNormal
)

// Interval is a confidence interval (Eq. 8-9 of the paper).
type Interval = sobol.Interval

// Simulation is the solver abstraction: Run integrates one parameter set
// and emits one field per output timestep, in order. Emit returns false
// when the run must abort (e.g. the group was killed).
type Simulation = client.Simulation

// SimFunc adapts a plain function to Simulation.
type SimFunc = client.SimFunc

// StudyConfig describes a full ubiquitous sensitivity study.
type StudyConfig struct {
	// Parameters are the p uncertain inputs.
	Parameters []Distribution
	// Groups is n, the number of pick-freeze rows; the study runs
	// n × (p+2) simulations (Sec. 3.2).
	Groups int
	// Seed makes the parameter sample reproducible.
	Seed uint64
	// Cells and Timesteps define one simulation's output shape.
	Cells, Timesteps int
	// Simulation is the solver run by every group member.
	Simulation Simulation

	// ServerProcs is the number of parallel server processes (default 1);
	// SimRanks the parallel width of one simulation (default 1).
	ServerProcs, SimRanks int

	// FoldWorkers is the per-server-process fold worker-pool width: each
	// process splits its partition into that many cell-range shards and
	// folds incoming groups into all of them concurrently. 0 picks a
	// GOMAXPROCS-aware default; 1 restores the single-threaded fold.
	// Results are bitwise independent of the setting.
	FoldWorkers int
	// BatchSteps, when > 1, makes every simulation group buffer that many
	// timesteps and ship them as one batched wire message per server
	// process, amortizing per-message overhead. GroupTimeout is scaled by
	// the same factor to match the stretched message cadence.
	BatchSteps int
	// WireCodec opts the study into the negotiated compressed field framing:
	// every group delta-XOR + entropy compresses its data frames per
	// fold-shard cell range, and the server's fold workers decompress their
	// own sub-ranges in parallel. The statistics are bitwise identical either
	// way (the codec is lossless on float64 bit patterns); the win is wire
	// and buffer footprint — see FieldResult.WireStats for the measured
	// savings of a run.
	WireCodec bool

	// MinMax, Threshold and HigherMoments enable the optional iterative
	// statistics computed on the A and B samples (Sec. 4.1).
	MinMax        bool
	Threshold     *float64
	HigherMoments bool

	// Quantiles, when non-empty, adds per-cell per-timestep quantile
	// sketches over the pooled A and B samples (Ribés et al., "Large scale
	// in transit computation of quantiles for ensemble runs"): each listed
	// probability becomes a queryable ubiquitous order statistic with
	// bounded memory per cell. QuantileEps is the sketch rank-error ε
	// (0 = the package default, 1%): estimates are within ±εn of the exact
	// rank at O(1/ε) memory per cell.
	Quantiles   []float64
	QuantileEps float64

	// ClusterNodes bounds the virtual cluster (0 = effectively unbounded);
	// GroupNodes/ServerNodes are the per-job footprints (default 1).
	ClusterNodes, GroupNodes, ServerNodes int

	// MaxRetries is the per-group restart budget (default 3).
	MaxRetries int
	// GroupTimeout enables server-side straggler detection.
	GroupTimeout time.Duration
	// CheckpointDir/CheckpointInterval enable server checkpoints (the
	// two-phase pipeline: per-shard snapshot copy on the fold workers,
	// encode+fsync on a background writer overlapped with ingest). The study
	// owns CheckpointDir: it starts by removing the per-rank checkpoint files
	// an earlier study left there, and a completed study leaves only the
	// periodic checkpoints it wrote along the way.
	CheckpointDir      string
	CheckpointInterval time.Duration
	// ConvergenceTarget, when positive, stops the study once every Sobol'
	// index is bracketed by a 95% confidence interval narrower than this
	// (the loopback control of Sec. 3.4/4.1.5).
	ConvergenceTarget float64

	// MetricsAddr, when non-empty, serves the live telemetry endpoint
	// (Prometheus /metrics, JSON /status, /debug/pprof) on this address for
	// the duration of the study. "127.0.0.1:0" binds an ephemeral port.
	MetricsAddr string

	// Retry enables in-place recovery of broken server connections: each
	// group may re-establish a dead connection up to Retry.MaxReconnects
	// times (capped exponential backoff), resume from the server's fold
	// frontier, and resend only its unacknowledged window (a fixed 128-step
	// retention ring per route). With CheckpointDir set, a route that retains
	// 96 steps beyond the server's durable frontier asks for an early
	// checkpoint, and every group waits up to 30 s at completion for a
	// checkpoint to cover its last step — so a server crash resumes out of
	// the retention rings instead of forcing full group replays. A zero
	// MaxReconnects keeps the legacy behavior — no retention, no drain, any
	// connection failure fails the attempt and the launcher replays the
	// whole group.
	Retry RetryPolicy
	// Chaos, when non-nil, wraps the study's transport in a deterministic
	// fault-injecting ChaosNetwork — connection refusals, mid-stream cuts
	// with lost tails, latency, duplicated and corrupted frames, scheduled
	// declaratively and reproduced exactly by the plan seed.
	Chaos *ChaosPlan
}

// RetryPolicy configures client connection recovery (see StudyConfig.Retry).
type RetryPolicy = client.RetryPolicy

// ChaosPlan declares deterministic transport faults for resilience testing;
// ChaosRule is one declarative fault.
type (
	ChaosPlan = transport.ChaosPlan
	ChaosRule = transport.ChaosRule
)

// StudyStats summarizes the execution of a study.
type StudyStats struct {
	WallClock        time.Duration
	GroupsFinished   int
	GroupsGivenUp    int
	Restarts         int
	TimeoutKills     int
	ServerRestarts   int
	Converged        bool
	PeakNodes        int
	MessagesFolded   int64
	ServerMemory     int64
	DataAvoidedBytes int64
	// Reconnects counts server connections groups re-established in place
	// (resume + windowed resend) instead of failing the attempt.
	Reconnects int
	// ResumesAfterServerRestart counts group jobs that survived a server
	// restart: kept running, reconnected, and resumed against the restored
	// durable frontier instead of being killed and replayed (which would
	// count into Restarts).
	ResumesAfterServerRestart int
}

// FieldResult exposes the assembled ubiquitous statistics of a study.
type FieldResult struct {
	res *server.Result
	p   int
}

// P returns the number of input parameters.
func (r *FieldResult) P() int { return r.p }

// Cells returns the mesh size.
func (r *FieldResult) Cells() int { return r.res.Cells }

// Timesteps returns the number of output steps.
func (r *FieldResult) Timesteps() int { return r.res.Timesteps }

// GroupsFolded returns how many groups contributed to timestep t.
func (r *FieldResult) GroupsFolded(t int) int64 { return r.res.GroupsFolded(t) }

// First returns the per-cell first-order Sobol' index field S_k(·, t).
func (r *FieldResult) First(t, k int) []float64 { return r.res.FirstField(t, k) }

// Total returns the per-cell total-order Sobol' index field ST_k(·, t).
func (r *FieldResult) Total(t, k int) []float64 { return r.res.TotalField(t, k) }

// Mean returns the per-cell output mean at timestep t.
func (r *FieldResult) Mean(t int) []float64 { return r.res.MeanField(t) }

// Variance returns the per-cell output variance at timestep t (the Fig. 8
// co-visualization map).
func (r *FieldResult) Variance(t int) []float64 { return r.res.VarianceField(t) }

// Interaction returns the per-cell 1 − ΣS_k field at timestep t, the
// interaction-share diagnostic of Sec. 5.5.
func (r *FieldResult) Interaction(t int) []float64 { return r.res.InteractionField(t) }

// Min returns the per-cell running minimum over the A and B samples at
// timestep t; nil unless StudyConfig.MinMax was set.
func (r *FieldResult) Min(t int) []float64 { return r.res.MinField(t) }

// Max returns the per-cell running maximum; nil unless StudyConfig.MinMax
// was set.
func (r *FieldResult) Max(t int) []float64 { return r.res.MaxField(t) }

// Exceedance returns the per-cell fraction of the A and B samples at
// timestep t that exceeded StudyConfig.Threshold; nil when no threshold was
// set.
func (r *FieldResult) Exceedance(t int) []float64 { return r.res.ExceedanceField(t) }

// Skewness returns the per-cell sample skewness of the pooled A and B
// samples at timestep t; nil unless StudyConfig.HigherMoments was set.
func (r *FieldResult) Skewness(t int) []float64 { return r.res.SkewnessField(t) }

// Kurtosis returns the per-cell sample excess kurtosis; nil unless
// StudyConfig.HigherMoments was set.
func (r *FieldResult) Kurtosis(t int) []float64 { return r.res.KurtosisField(t) }

// Quantile returns the per-cell q-quantile estimate of the pooled A/B
// sample at timestep t (all zeros unless StudyConfig.Quantiles enabled the
// sketches). Any q in [0, 1] may be queried, not only the configured
// probes.
func (r *FieldResult) Quantile(t int, q float64) []float64 { return r.res.QuantileField(t, q) }

// QuantileProbes returns the quantile probe list the study was configured
// with (nil when quantile tracking was off).
func (r *FieldResult) QuantileProbes() []float64 { return r.res.QuantileProbes() }

// QuantileTupleCount returns the total number of retained quantile-sketch
// tuples across the whole study (~24 bytes each) — the telemetry for tuning
// the sketch ε against a memory budget. Zero when quantiles were off.
func (r *FieldResult) QuantileTupleCount() int64 { return r.res.QuantileTupleCount() }

// MaxCIWidth returns the widest 95% confidence interval over all indices.
func (r *FieldResult) MaxCIWidth() float64 { return r.res.MaxCIWidth() }

// WireStats is the wire-byte telemetry of a study's bulk field traffic:
// bytes as they crossed the wire versus what the same payloads cost in the
// raw framing. Equal when the codec was off; the gap is the in-transit
// bandwidth the negotiated compression avoided.
type WireStats = server.WireStats

// WireStats returns the study's aggregated wire-byte telemetry.
func (r *FieldResult) WireStats() WireStats { return r.res.WireStats() }

// CheckpointStats summarizes the server-side checkpoint activity of a study:
// how many checkpoints were written (and how many intervals were skipped
// because a write was still in flight), the total wall time of the writes
// vs the part that actually stalled the fold pipeline (the per-shard
// snapshot copies — encode and fsync run on a background writer, overlapped
// with ingest), read-side restore timing, and bytes made durable.
type CheckpointStats = server.CheckpointStats

// Checkpoints returns the aggregated checkpoint statistics across all server
// processes (all zeros when checkpointing was not enabled).
func (r *FieldResult) Checkpoints() CheckpointStats { return r.res.Checkpoints() }

// TelemetryEndpoint is a live HTTP telemetry server: Prometheus text
// exposition at /metrics, a JSON study snapshot at /status, and the standard
// pprof handlers under /debug/pprof. Close shuts it down.
type TelemetryEndpoint = obs.Endpoint

// ServeTelemetry starts the process-wide telemetry endpoint outside of a
// study (RunStudy starts one itself when StudyConfig.MetricsAddr is set; the
// cmd/ binaries use this for standalone server and client processes).
func ServeTelemetry(addr string) (*TelemetryEndpoint, error) {
	return obs.Serve(addr, nil)
}

// SetLogging configures the process-wide structured logger: level is one of
// "debug", "info", "warn", "error" or "off" (empty = info); jsonLines
// switches the output from human-readable text to JSON lines.
func SetLogging(level string, jsonLines bool) error {
	lvl, err := olog.ParseLevel(level)
	if err != nil {
		return err
	}
	olog.Default.SetLevel(lvl)
	olog.Default.SetJSON(jsonLines)
	return nil
}

// studyNetwork builds the in-process transport for a study, wrapped in the
// configured chaos plan when one is declared.
func studyNetwork(cfg StudyConfig) transport.Network {
	var net transport.Network = transport.NewMemNetwork(transport.ForStudyCodec(
		cfg.Cells, len(cfg.Parameters), cfg.BatchSteps, cfg.WireCodec))
	if cfg.Chaos != nil {
		net = transport.NewChaosNetwork(net, *cfg.Chaos)
	}
	return net
}

// RunStudy executes a complete study in-process: it builds the pick-freeze
// design, starts the parallel server and the launcher, runs every
// simulation group through the two-stage transfer path, and returns the
// assembled ubiquitous Sobol' fields.
func RunStudy(cfg StudyConfig) (*FieldResult, StudyStats, error) {
	var stats StudyStats
	if len(cfg.Parameters) == 0 {
		return nil, stats, fmt.Errorf("melissa: no parameters")
	}
	if cfg.Groups < 1 {
		return nil, stats, fmt.Errorf("melissa: need at least one group")
	}
	if cfg.Simulation == nil {
		return nil, stats, fmt.Errorf("melissa: nil simulation")
	}
	if cfg.Cells < 1 || cfg.Timesteps < 1 {
		return nil, stats, fmt.Errorf("melissa: invalid output shape %dx%d", cfg.Cells, cfg.Timesteps)
	}
	design := sampling.NewDesign(cfg.Parameters, cfg.Groups, cfg.Seed)
	// More server processes than cells would leave processes with empty
	// partitions; clamp (the paper partitions the mesh evenly, Sec. 4.1.1).
	if cfg.ServerProcs > cfg.Cells {
		cfg.ServerProcs = cfg.Cells
	}

	var cluster *scheduler.Cluster
	if cfg.ClusterNodes > 0 {
		cluster = scheduler.New(cfg.ClusterNodes)
	}
	lcfg := launcher.Config{
		Design:    design,
		Sim:       cfg.Simulation,
		Cells:     cfg.Cells,
		Timesteps: cfg.Timesteps,
		SimRanks:  cfg.SimRanks,
		Stats: core.Options{
			MinMax:        cfg.MinMax,
			Threshold:     cfg.Threshold,
			HigherMoments: cfg.HigherMoments,
			Quantiles:     cfg.Quantiles,
			QuantileEps:   cfg.QuantileEps,
		},
		Network:            studyNetwork(cfg),
		Cluster:            cluster,
		ServerProcs:        cfg.ServerProcs,
		FoldWorkers:        cfg.FoldWorkers,
		BatchSteps:         cfg.BatchSteps,
		WireCodec:          cfg.WireCodec,
		ServerNodes:        cfg.ServerNodes,
		GroupNodes:         cfg.GroupNodes,
		MaxRetries:         cfg.MaxRetries,
		GroupTimeout:       cfg.GroupTimeout,
		CheckpointDir:      cfg.CheckpointDir,
		CheckpointInterval: cfg.CheckpointInterval,
		ConvergenceTarget:  cfg.ConvergenceTarget,
		MetricsAddr:        cfg.MetricsAddr,
		Retry:              cfg.Retry,
	}
	l, err := launcher.New(lcfg)
	if err != nil {
		return nil, stats, err
	}
	res, lstats, err := l.Run()
	if err != nil {
		return nil, stats, err
	}
	stats = StudyStats{
		WallClock:                 lstats.WallClock,
		GroupsFinished:            lstats.GroupsFinished,
		GroupsGivenUp:             lstats.GroupsGivenUp,
		Restarts:                  lstats.Restarts,
		TimeoutKills:              lstats.TimeoutKills,
		ServerRestarts:            lstats.ServerRestarts,
		Converged:                 lstats.Converged,
		PeakNodes:                 lstats.PeakNodes,
		MessagesFolded:            res.Messages(),
		ServerMemory:              res.MemoryBytes(),
		Reconnects:                lstats.Reconnects,
		ResumesAfterServerRestart: lstats.ResumesAfterServerRestart,
	}
	// Data volume the study avoided writing: every simulation's every
	// timestep at 8 bytes per cell.
	stats.DataAvoidedBytes = int64(stats.GroupsFinished) * int64(len(cfg.Parameters)+2) *
		int64(cfg.Timesteps) * int64(cfg.Cells) * 8
	return &FieldResult{res: res, p: design.P()}, stats, nil
}
