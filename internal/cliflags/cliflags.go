// Package cliflags is the one place the melissa binaries' shared
// command-line flags are declared: every flag more than one binary accepts
// is registered here exactly once, into one Flags value that also owns the
// conversions into the library's configuration types. The binaries table
// says which flag groups a binary carries and with which defaults; the mains
// add only the flags that are theirs alone.
//
// A flag name registered twice on one FlagSet panics at registration, so a
// conflict between a group and a binary's own flags fails at process start
// (CI runs every binary with -h).
package cliflags

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"time"

	"melissa/internal/client"
	"melissa/internal/core"
	"melissa/internal/quantiles"
	"melissa/internal/transport"
)

// Flags holds the parsed values of the shared flags. Fields of groups a
// binary does not register stay zero.
type Flags struct {
	// Pipeline: -batch-steps, -max-batch-steps, -wire-codec.
	BatchSteps, MaxBatchSteps int
	WireCodec                 bool

	// Server side: -fold-workers, -group-timeout, and -checkpoint-dir /
	// -checkpoint-interval (read through Checkpoints).
	FoldWorkers  int
	GroupTimeout time.Duration
	ckptDir      string
	ckptEvery    time.Duration

	// Optional statistics (read through StatsOptions): -minmax, -threshold,
	// -higher-moments, -quantiles, -quantile-eps, -quantile-memory-budget.
	minMax, higherMoments       bool
	threshold, quantiles        string
	quantileEps, quantileBudget float64

	// Telemetry: -metrics-addr, -log-level, -log-json.
	MetricsAddr, LogLevel string
	LogJSON               bool

	// Study shape: -cells -timesteps (mesh), -nx -ny -groups (grid),
	// -study -seed -sim-ranks (design); -out.
	Cells, Timesteps int
	NX, NY, Groups   int
	Study            string
	Seed             uint64
	SimRanks         int
	Out              string

	// Fault injection (read through ChaosPlan): -chaos-*. The flags declare
	// ONE fault rule plus the plan seed and an optional dial-ordinal scope —
	// enough for CLI smoke runs and CI chaos steps; studies that need
	// multi-rule plans build a transport.ChaosPlan in code.
	chaosSeed uint64
	chaosRule transport.ChaosRule

	// Connection resilience (read through RetryPolicy): -reconnect-budget,
	// -reconnect-base, -reconnect-max.
	reconnectBudget             int
	reconnectBase, reconnectMax time.Duration
}

// binary lists one binary's defaults for the flags whose default differs per
// binary; a zero value means the binary does not carry that flag group.
type binary struct {
	batchSteps   int           // pipeline (every binary)
	logLevel     string        // telemetry (every binary)
	ckptEvery    time.Duration // -fold-workers, -checkpoint-dir, -checkpoint-interval
	groupTimeout time.Duration // -group-timeout
	stats        bool          // the optional-statistics group
	mesh         bool          // -cells, -timesteps
	groups       int           // -nx, -ny, -groups
	simRanks     int           // -study, -seed, -sim-ranks
	retry        bool          // -reconnect-*
	out          string        // -out
}

var binaries = map[string]binary{
	"melissa-server": {batchSteps: 4, logLevel: "info", ckptEvery: 10 * time.Minute,
		groupTimeout: 5 * time.Minute, stats: true, mesh: true},
	"melissa-client": {batchSteps: 1, logLevel: "info", mesh: true, groups: 100, simRanks: 1, retry: true},
	"melissa-launcher": {batchSteps: 1, logLevel: "info", ckptEvery: time.Minute,
		groupTimeout: time.Minute, mesh: true, groups: 64, simRanks: 2, retry: true, out: "out/launcher"},
	"melissa-study": {batchSteps: 1, logLevel: "warn", ckptEvery: 2 * time.Second,
		stats: true, groups: 128, retry: true, out: "out"},
}

// Register registers the named binary's shared flags on fs.
func Register(fs *flag.FlagSet, name string) *Flags {
	b, ok := binaries[name]
	if !ok {
		panic("cliflags: unknown binary " + name)
	}
	f := &Flags{}

	fs.IntVar(&f.BatchSteps, "batch-steps", b.batchSteps,
		"timesteps batched per wire message (on a server: the largest client value expected; sizes the receive buffers)")
	fs.IntVar(&f.MaxBatchSteps, "max-batch-steps", 0,
		"adaptive batching cap: grow batches towards this under server backpressure or a backed-up send path (overrides -batch-steps; on a server: the largest client value expected)")
	fs.BoolVar(&f.WireCodec, "wire-codec", false,
		"negotiate the compressed field framing (delta-XOR + entropy coding per fold shard): a server advertises it, a client uses it when advertised; results are bitwise identical")

	fs.StringVar(&f.MetricsAddr, "metrics-addr", "",
		"serve live telemetry (/metrics, /status, /debug/pprof) on this address (empty = off)")
	fs.StringVar(&f.LogLevel, "log-level", b.logLevel, "structured log level: debug, info, warn, error, off")
	fs.BoolVar(&f.LogJSON, "log-json", false, "emit structured logs as JSON lines")

	fs.Uint64Var(&f.chaosSeed, "chaos-seed", 0, "seed for the injected-fault plan (reproduces the exact fault sequence)")
	fs.IntVar(&f.chaosRule.Dial, "chaos-dial", -1, "restrict injected faults to the n-th dial per address (-1 = every dial)")
	fs.DurationVar(&f.chaosRule.Latency, "chaos-latency", 0, "inject this much latency (plus up to 25% jitter) per frame")
	fs.IntVar(&f.chaosRule.CutAfterFrames, "chaos-cut-frames", 0, "cut matched connections after this many frames (0 = off)")
	fs.IntVar(&f.chaosRule.DropTailFrames, "chaos-drop-tail", 0,
		"silently drop the last n frames before a cut (models a lost kernel-buffer tail)")
	fs.IntVar(&f.chaosRule.CorruptFrame, "chaos-corrupt-frame", 0, "clobber the n-th frame so the receiver rejects it (0 = off)")
	fs.IntVar(&f.chaosRule.DuplicateFrame, "chaos-dup-frame", 0, "deliver the n-th frame twice (0 = off)")
	fs.BoolVar(&f.chaosRule.Refuse, "chaos-refuse", false, "refuse matched dials outright, as if the peer were down")

	if b.ckptEvery > 0 {
		fs.IntVar(&f.FoldWorkers, "fold-workers", 0, "fold workers per server process (0 = GOMAXPROCS-aware)")
		fs.StringVar(&f.ckptDir, "checkpoint-dir", "", "server checkpoint directory (empty = checkpointing off)")
		fs.DurationVar(&f.ckptEvery, "checkpoint-interval", b.ckptEvery, "checkpoint period")
	}
	if b.groupTimeout > 0 {
		fs.DurationVar(&f.GroupTimeout, "group-timeout", b.groupTimeout, "unresponsive-group timeout (paper: 300s)")
	}
	if b.stats {
		// The output named is melissa-study's; a melissa-server folds and
		// checkpoints the statistic for whoever reads its Result.
		fs.BoolVar(&f.minMax, "minmax", false,
			"track per-cell min/max over the A/B samples (melissa-study: fig7/min.pgm, fig7/max.pgm)")
		fs.StringVar(&f.threshold, "threshold", "",
			"track the per-cell fraction of A/B samples above this value (empty = off; melissa-study: fig7/exceedance.pgm)")
		fs.BoolVar(&f.higherMoments, "higher-moments", false,
			"track per-cell skewness/kurtosis of the pooled A/B samples (melissa-study: fig7/skewness.pgm, fig7/kurtosis.pgm)")
		fs.StringVar(&f.quantiles, "quantiles", "", "comma-separated quantile probes, e.g. 0.05,0.5,0.95 (empty = off)")
		fs.Float64Var(&f.quantileEps, "quantile-eps", quantiles.DefaultEpsilon, "quantile sketch rank error ε")
		fs.Float64Var(&f.quantileBudget, "quantile-memory-budget", 0,
			"per-cell-per-timestep sketch memory budget in bytes; derives ε (overrides -quantile-eps)")
	}
	if b.mesh {
		fs.IntVar(&f.Cells, "cells", 1024, "mesh cells per field (synthetic study)")
		fs.IntVar(&f.Timesteps, "timesteps", 10, "output timesteps per simulation (synthetic study)")
	}
	if b.groups > 0 {
		fs.IntVar(&f.NX, "nx", 96, "tubebundle grid x")
		fs.IntVar(&f.NY, "ny", 32, "tubebundle grid y")
		fs.IntVar(&f.Groups, "groups", b.groups, "simulation groups in the design (n)")
	}
	if b.simRanks > 0 {
		fs.StringVar(&f.Study, "study", "synthetic", "study: tubebundle, ishigami or synthetic")
		fs.Uint64Var(&f.Seed, "seed", 2017, "design master seed")
		fs.IntVar(&f.SimRanks, "sim-ranks", b.simRanks, "parallel ranks per simulation")
	}
	if b.retry {
		fs.IntVar(&f.reconnectBudget, "reconnect-budget", 0,
			"per-group reconnect budget for broken server connections (0 = fail the attempt, the legacy behavior)")
		fs.DurationVar(&f.reconnectBase, "reconnect-base", 5*time.Millisecond, "first reconnect backoff delay")
		fs.DurationVar(&f.reconnectMax, "reconnect-max", time.Second, "reconnect backoff cap")
	}
	if b.out != "" {
		fs.StringVar(&f.Out, "out", b.out, "output directory")
	}
	return f
}

// Checkpoints returns the checkpoint directory and period to configure: the
// period only counts when a directory was given.
func (f *Flags) Checkpoints() (dir string, every time.Duration) {
	if f.ckptDir == "" {
		return "", 0
	}
	return f.ckptDir, f.ckptEvery
}

// StatsOptions assembles the parsed statistics selection; a positive memory
// budget derives ε (and logs the derivation). The error names the flag whose
// value did not parse.
func (f *Flags) StatsOptions() (core.Options, error) {
	opts := core.Options{MinMax: f.minMax, HigherMoments: f.higherMoments, QuantileEps: f.quantileEps}
	if f.quantileBudget > 0 {
		opts.QuantileEps = quantiles.EpsForBudget(f.quantileBudget)
		log.Printf("quantile budget %.0f B/cell/step -> eps %.4g (~%.0f tuples/cell/step)",
			f.quantileBudget, opts.QuantileEps, quantiles.TuplesPerCell(opts.QuantileEps))
	}
	if f.threshold != "" {
		th, err := strconv.ParseFloat(f.threshold, 64)
		if err != nil {
			return opts, fmt.Errorf("-threshold: %w", err)
		}
		opts.Threshold = &th
	}
	probes, err := quantiles.ParseList(f.quantiles)
	if err != nil {
		return opts, fmt.Errorf("-quantiles: %w", err)
	}
	opts.Quantiles = probes
	return opts, nil
}

// ChaosPlan assembles the declared fault plan; nil when no fault flag was set
// and the transport should stay unwrapped.
func (f *Flags) ChaosPlan() *transport.ChaosPlan {
	r := f.chaosRule
	if !r.Refuse && r.Latency == 0 && r.CutAfterFrames == 0 && r.CorruptFrame == 0 && r.DuplicateFrame == 0 {
		return nil
	}
	return &transport.ChaosPlan{Seed: f.chaosSeed, Rules: []transport.ChaosRule{r}}
}

// RetryPolicy assembles the client retry policy (zero value when
// -reconnect-budget is 0, preserving the legacy fail-fast path).
func (f *Flags) RetryPolicy() client.RetryPolicy {
	if f.reconnectBudget <= 0 {
		return client.RetryPolicy{}
	}
	return client.RetryPolicy{MaxReconnects: f.reconnectBudget, BaseDelay: f.reconnectBase, MaxDelay: f.reconnectMax}
}

// TCPNetwork builds the binary's TCP transport: per-connection buffers sized
// from the study shape and the batching/codec flags so a whole batched data
// frame fits the kernel and user-space buffers, wrapped in a ChaosNetwork
// when a fault flag was set.
func (f *Flags) TCPNetwork(cells, params int) transport.Network {
	var net transport.Network = transport.NewTCPNetwork(transport.ForStudyCodec(
		cells, params, max(f.BatchSteps, f.MaxBatchSteps), f.WireCodec))
	if plan := f.ChaosPlan(); plan != nil {
		net = transport.NewChaosNetwork(net, *plan)
	}
	return net
}
