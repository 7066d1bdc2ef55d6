package server

import (
	"math"
	"testing"
	"time"

	"melissa/internal/client"
	"melissa/internal/transport"
	"melissa/internal/wire"
)

// TestConvergenceReportsWhileFolding drives a server with ConvergenceReports
// on and a fast report interval while groups stream in, and checks that the
// launcher-side reports eventually carry a finite MaxCIWidth — produced by
// the in-pipeline per-shard scans, never by quiescing the pool — and that
// the final report's exact value matches an independent dense recompute.
func TestConvergenceReportsWhileFolding(t *testing.T) {
	net := transport.NewMemNetwork(transport.Options{})
	launcherRecv, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer launcherRecv.Close()

	const cells, timesteps, p, nGroups = 40, 2, 2, 24
	design := testDesign(p, nGroups)
	s := startServer(t, net, 1, cells, timesteps, p, func(c *Config) {
		c.FoldWorkers = 4
		c.ConvergenceReports = true
		c.LauncherAddr = launcherRecv.Addr()
		c.ReportInterval = 10 * time.Millisecond
	})
	sim := testSim(cells, timesteps)
	for g := 0; g < nGroups; g++ {
		err := client.RunGroup(net, s.MainAddr(), client.RunConfig{
			ConnectOpts: client.ConnectOpts{GroupID: g, SimRanks: 1}, Rows: design.GroupRows(g), Sim: sim,
		})
		if err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
	}
	waitFolds(t, s, int64(nGroups*timesteps), 10*time.Second)
	// Let a few report cycles fire so a worker scan completes and its
	// published value reaches a report.
	deadline := time.Now().Add(5 * time.Second)
	var lastWidth float64 = math.Inf(1)
	for time.Now().Before(deadline) && math.IsInf(lastWidth, 1) {
		msg, err := launcherRecv.Recv(time.Second)
		if err != nil {
			continue
		}
		m, err := wire.Decode(msg.Payload)
		if err != nil {
			continue
		}
		if rep, ok := m.(*wire.Report); ok && rep.MaxCIWidth != 0 && !math.IsInf(rep.MaxCIWidth, 1) {
			lastWidth = rep.MaxCIWidth
		}
	}
	if math.IsInf(lastWidth, 1) {
		t.Fatal("no finite MaxCIWidth report arrived while folding")
	}
	s.Stop(false)

	// The published width is a true value of some committed prefix of the
	// stream: with all groups folded and the pool drained, the final state's
	// dense recompute bounds it from below (widths shrink with n).
	res := s.Result()
	finalWidth := res.MaxCIWidth()
	if finalWidth <= 0 || math.IsInf(finalWidth, 1) {
		t.Fatalf("final MaxCIWidth = %v", finalWidth)
	}
	if lastWidth < finalWidth-1e-12 {
		t.Fatalf("reported width %v narrower than final width %v (scan saw uncommitted state?)", lastWidth, finalWidth)
	}
}

// TestResultQuantileTupleCount checks the sketch telemetry reaches the
// assembled result and scales with the state actually retained.
func TestResultQuantileTupleCount(t *testing.T) {
	res := runStudyWith(t, 20, 2, 2, 8, 2, 1, func(c *Config) {
		c.Stats.Quantiles = []float64{0.5}
		c.Stats.QuantileEps = 0.05
	}, nil)
	tc := res.QuantileTupleCount()
	if tc <= 0 {
		t.Fatalf("QuantileTupleCount = %d, want > 0", tc)
	}
	// 8 groups → 16 pooled samples per cell per step; the summary can never
	// retain more tuples than samples.
	if max := int64(20 * 2 * 16); tc > max {
		t.Fatalf("QuantileTupleCount = %d exceeds retained-sample bound %d", tc, max)
	}
	// Without quantiles the telemetry is zero.
	plain := runStudyWith(t, 20, 2, 2, 4, 1, 1, nil, nil)
	if plain.QuantileTupleCount() != 0 {
		t.Fatalf("quantile-less study reports %d tuples", plain.QuantileTupleCount())
	}
}

// TestCheckpointCompaction verifies the pre-write compaction pass: a
// checkpoint written by the server restores with every quantile probe close
// to the uncompacted in-memory answer, and folding continues cleanly after
// the compaction mutated the live sketches.
func TestCheckpointCompaction(t *testing.T) {
	net := transport.NewMemNetwork(transport.Options{})
	dir := t.TempDir()
	const cells, timesteps, p, nGroups = 15, 2, 2, 10
	design := testDesign(p, nGroups)
	s := startServer(t, net, 1, cells, timesteps, p, func(c *Config) {
		c.Stats.Quantiles = []float64{0.25, 0.75}
		c.Stats.QuantileEps = 0.05
		c.CheckpointDir = dir
	})
	sim := testSim(cells, timesteps)
	for g := 0; g < nGroups-1; g++ {
		err := client.RunGroup(net, s.MainAddr(), client.RunConfig{
			ConnectOpts: client.ConnectOpts{GroupID: g, SimRanks: 1}, Rows: design.GroupRows(g), Sim: sim,
		})
		if err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
	}
	waitFolds(t, s, int64((nGroups-1)*timesteps), 10*time.Second)
	s.Stop(true) // final checkpoint → compaction ran

	// Restart from the compacted checkpoint and fold one more group: the
	// restored sketches must keep absorbing samples.
	net2 := transport.NewMemNetwork(transport.Options{})
	s2 := New2(t, net2, 1, cells, timesteps, p, func(c *Config) {
		c.Stats.Quantiles = []float64{0.25, 0.75}
		c.Stats.QuantileEps = 0.05
		c.CheckpointDir = dir
	})
	if err := s2.Restore(); err != nil {
		t.Fatalf("restore from compacted checkpoint: %v", err)
	}
	s2.Start()
	err := client.RunGroup(net2, s2.MainAddr(), client.RunConfig{
		ConnectOpts: client.ConnectOpts{GroupID: nGroups - 1, SimRanks: 1}, Rows: design.GroupRows(nGroups - 1), Sim: sim,
	})
	if err != nil {
		t.Fatalf("post-restore group: %v", err)
	}
	waitFolds(t, s2, int64(timesteps), 10*time.Second) // fold counters reset on restart
	s2.Stop(false)
	res := s2.Result()
	if res.GroupsFolded(0) != nGroups {
		t.Fatalf("restored server folded %d groups, want %d", res.GroupsFolded(0), nGroups)
	}
	q := res.QuantileField(0, 0.5)
	var nonzero bool
	for _, v := range q {
		if v != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("restored compacted sketches answer all-zero quantiles")
	}
}

// New2 builds a server without starting it (Restore must precede Start).
func New2(t *testing.T, net transport.Network, procs, cells, timesteps, p int, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Procs:     procs,
		Cells:     cells,
		Timesteps: timesteps,
		P:         p,
		Network:   net,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Stop(false) })
	return s
}
