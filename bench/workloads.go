package main

import (
	"fmt"
	"os"
	"time"

	"melissa/internal/client"
	"melissa/internal/core"
	"melissa/internal/faults"
	"melissa/internal/launcher"
	"melissa/internal/sampling"
	"melissa/internal/transport"
)

// Every workload is a closed loop of two group slots: the launcher starts a
// slot's next group only when the previous one has completed.
const (
	serverProcs = 2
	simRanks    = 2
	maxInFlight = 2
)

// workload is one named study configuration. The names are cited by later
// issues; do not rename them.
type workload struct {
	name, why string

	tcp          bool
	cells, steps int
	p            int
	groups       int
	batchSteps   int
	codec        bool
	stats        core.Options
	ckptEvery    time.Duration // checkpoint interval; 0 = no checkpoints
	stepSleep    time.Duration // per-member think time per step ("a solver running on other nodes")
	durable      bool          // resilient client path: reconnect budget, retention, durable drain
	crashAt      time.Duration // one server kill, this long into the study
}

var exceedLevel = 20.0

var workloads = []workload{
	{
		name:  "flood_mem",
		why:   "ingest CPU path at its plainest: single-step raw Data frames over the in-memory transport, Sobol' only",
		cells: 16384, steps: 32, p: 4, groups: 32, batchSteps: 1,
	},
	{
		name: "flood_tcp",
		why:  "same fold work over TCP loopback with DataBatch framing: the transport rung a mem-only change must not move",
		tcp:  true, cells: 16384, steps: 32, p: 4, groups: 24, batchSteps: 4,
	},
	{
		name: "codec_tcp",
		why:  "flood_tcp with the negotiated wire codec: the only workload where compress/decompress and DataBatchC run",
		tcp:  true, cells: 16384, steps: 32, p: 4, groups: 16, batchSteps: 4, codec: true,
	},
	{
		name:  "churn_mem",
		why:   "1000 tiny groups: per-group fixed cost only (submit, tick, handshake, tracker, reports); fold and codec idle",
		cells: 256, steps: 4, p: 2, groups: 1000, batchSteps: 1,
	},
	{
		name:  "trackers_ckpt_mem",
		why:   "widest per-cell record (min/max, threshold, moments) folded beside snapshot reads and background checkpoint writes",
		cells: 16384, steps: 32, p: 4, groups: 14, batchSteps: 1,
		stats:     core.Options{MinMax: true, Threshold: &exceedLevel, HigherMoments: true},
		ckptEvery: 250 * time.Millisecond,
	},
	{
		name:  "paced_durable_mem",
		why:   "the paper's Fig. 6d regime: paced groups well under server capacity on the fault-free resilient path",
		cells: 4096, steps: 40, p: 4, groups: 10, batchSteps: 1,
		stepSleep: 10 * time.Millisecond, ckptEvery: 250 * time.Millisecond, durable: true,
	},
	{
		name:  "crash_resume_mem",
		why:   "paced_durable_mem with one server kill mid-stream: durable resume, zero replays expected",
		cells: 4096, steps: 40, p: 4, groups: 10, batchSteps: 1,
		stepSleep: 10 * time.Millisecond, ckptEvery: 250 * time.Millisecond, durable: true,
		crashAt: 800 * time.Millisecond,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fieldBytes is the float64 payload of the whole study.
func (w workload) fieldBytes() float64 {
	return float64(w.groups) * float64(w.p+2) * float64(w.steps) * float64(w.cells) * 8
}

// study is one prepared run: the generated inputs and the launcher built on
// them. The program under test receives only sim, design and network.
type study struct {
	w       workload
	sim     *linfield
	design  *sampling.Design
	ckptDir string
	l       *launcher.Launcher
}

// newNetwork builds the workload's transport the way melissa.RunStudy and the
// binaries do: buffers derived from the study shape.
func (w workload) newNetwork() transport.Network {
	opts := transport.ForStudyCodec(w.cells, w.p, w.batchSteps, w.codec)
	if w.tcp {
		return transport.NewTCPNetwork(opts)
	}
	return transport.NewMemNetwork(opts)
}

// setUp performs everything setup_s covers: fixture, design, network,
// checkpoint directory and launcher.New. wrap, when non-nil, interposes the
// traced run's network wrapper.
func setUp(w workload, seed uint64, wrap func(transport.Network) transport.Network) (*study, error) {
	s := &study{w: w}
	s.sim = newLinfield(seed, w.cells, w.steps)
	s.sim.stepSleep = w.stepSleep
	s.design = sampling.NewDesign(uniformParams(w.p), w.groups, seed)
	network := w.newNetwork()
	if wrap != nil {
		network = wrap(network)
	}
	cfg := launcher.Config{
		Design: s.design, Sim: s.sim,
		Cells: w.cells, Timesteps: w.steps,
		SimRanks: simRanks, ServerProcs: serverProcs, MaxInFlight: maxInFlight,
		Stats:      w.stats,
		Network:    network,
		BatchSteps: w.batchSteps,
		WireCodec:  w.codec,
	}
	if w.ckptEvery > 0 {
		dir, err := os.MkdirTemp(scratchDir, "ckpt-")
		if err != nil {
			return nil, fmt.Errorf("checkpoint dir: %w", err)
		}
		s.ckptDir = dir
		cfg.CheckpointDir = dir
		cfg.CheckpointInterval = w.ckptEvery
	}
	if w.durable {
		cfg.Retry = client.RetryPolicy{
			MaxReconnects: 64,
			BaseDelay:     2 * time.Millisecond,
			MaxDelay:      40 * time.Millisecond,
			AckTimeout:    150 * time.Millisecond,
			Seed:          int64(seed),
		}
	}
	if w.crashAt > 0 {
		cfg.Faults = faults.NewPlan().WithServerCrash(w.crashAt)
		cfg.HeartbeatTimeout = 250 * time.Millisecond
	}
	l, err := launcher.New(cfg)
	if err != nil {
		s.discard()
		return nil, err
	}
	s.l = l
	return s, nil
}

// discard removes what a set-up left on disk.
func (s *study) discard() {
	if s.ckptDir != "" {
		os.RemoveAll(s.ckptDir)
	}
}
