package server

import (
	"math"
	"testing"
	"time"

	"melissa/internal/client"
	"melissa/internal/core"
	"melissa/internal/obs"
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

// scanStudy is the shape the demand and pacing tests share: one process, two
// fold workers, groups fed one at a time so a dense replay folds them in the
// same order.
const scanCells, scanSteps, scanP = 48, 3, 2

// awaitNoScrape waits out any /metrics scrape an earlier test made against the
// process-wide registry, so it cannot count as demand in this one.
func awaitNoScrape(window time.Duration) {
	for time.Now().UnixNano()-obs.Default.ScrapedAt() < int64(window) {
		time.Sleep(time.Millisecond)
	}
}

func startScanStudy(t *testing.T, report time.Duration, mutate func(*Config)) (transport.Network, *Server) {
	t.Helper()
	awaitNoScrape(2 * report)
	net := transport.NewMemNetwork(transport.Options{})
	s := startServer(t, net, 1, scanCells, scanSteps, scanP, func(c *Config) {
		c.FoldWorkers = 2
		c.ReportInterval = report
		if mutate != nil {
			mutate(c)
		}
	})
	t.Cleanup(func() { s.Stop(false) })
	return net, s
}

func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for g := lo; g < hi; g++ {
		out = append(out, g)
	}
	return out
}

// awaitCIWidth polls the published width (without asking for it) until ok.
func awaitCIWidth(t *testing.T, f *foldPool, what string, ok func(float64) bool) float64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		w := f.ciWidth()
		if ok(w) {
			return w
		}
		if time.Now().After(deadline) {
			t.Fatalf("published CI width is %v, never %s", w, what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNoScanWithoutReader: with convergence reports off and nobody reading
// /status or /metrics, the fold workers are never handed a scan — and the
// result's width, computed after the stop, is the dense recompute's.
func TestNoScanWithoutReader(t *testing.T) {
	const nGroups = 12
	net, s := startScanStudy(t, 10*time.Millisecond, nil)
	design := testDesign(scanP, nGroups)
	runGroupsSequential(t, net, s, design, scanCells, scanSteps, 1, seq(0, nGroups))
	time.Sleep(50 * time.Millisecond) // idle passes: a trailing scan would start here
	s.Stop(false)

	f := s.procs[0].fold
	if f.scansStarted != 0 || f.ciScansDone.Load() != 0 || f.scanning.Load() {
		t.Fatalf("%d scans started, %d done without a reader", f.scansStarted, f.ciScansDone.Load())
	}
	if w := f.ciWidth(); !math.IsInf(w, 1) {
		t.Fatalf("published width %v without a scan, want +Inf", w)
	}
	ref := referenceAccumulator(scanCells, scanSteps, scanP, core.Options{}, design, seq(0, nGroups))
	got, want := s.Result().MaxCIWidth(), ref.MaxCIWidth(ciLevel)
	if got != want || math.IsInf(got, 1) || got <= 0 {
		t.Fatalf("Result.MaxCIWidth = %v, dense recompute %v", got, want)
	}
}

// TestScanOnDemand: one Status() call turns scanning on — the snapshot that
// asks still reads null, the width appears without a second ask — and two
// report intervals after the last ask scanning is off again.
func TestScanOnDemand(t *testing.T) {
	const report = 250 * time.Millisecond
	net, s := startScanStudy(t, report, nil)
	design := testDesign(scanP, 24)
	f := s.procs[0].fold
	runGroupsSequential(t, net, s, design, scanCells, scanSteps, 1, seq(0, 8))
	if st := s.Status(); st.MaxCIWidth != nil || st.ProcStatus[0].MaxCIWidth != nil {
		t.Fatal("first snapshot reads a width before any scan")
	}
	asked := time.Now()
	runGroupsSequential(t, net, s, design, scanCells, scanSteps, 1, seq(8, 10))
	awaitCIWidth(t, f, "finite", func(w float64) bool { return !math.IsInf(w, 1) })
	if since := time.Since(asked); since > 2*report {
		t.Logf("width appeared %v after the ask (demand window %v): slow host", since, 2*report)
	}

	// Past the demand window: more folds, no more scans.
	time.Sleep(time.Until(asked.Add(2*report + report/2)))
	done := f.ciScansDone.Load()
	runGroupsSequential(t, net, s, design, scanCells, scanSteps, 1, seq(10, 16))
	time.Sleep(report / 2) // a few idle passes
	if now := f.ciScansDone.Load(); now != done {
		t.Fatalf("%d scans completed after demand lapsed", now-done)
	}
	stale := f.ciWidth()

	// The next snapshot returns the last scanned value and asks again; the
	// fresh one follows and is the dense recompute over all 16 groups.
	st := s.Status()
	if st.MaxCIWidth == nil || *st.MaxCIWidth != stale {
		t.Fatalf("snapshot after the pause reads %v, want the last scanned %v", st.MaxCIWidth, stale)
	}
	want := referenceAccumulator(scanCells, scanSteps, scanP, core.Options{}, design, seq(0, 16)).MaxCIWidth(ciLevel)
	awaitCIWidth(t, f, "the fresh value", func(w float64) bool { return w == want })
}

// TestTrailingScanIsExact: with convergence reports on, a stream that pauses
// leaves the exact width of everything folded published — the idle pass
// starts the scan a group-paced loop would still be waiting for — and the
// pool was handed at most one scan per finished group plus that trailing one.
func TestTrailingScanIsExact(t *testing.T) {
	const nGroups = 10
	net, s := startScanStudy(t, 200*time.Millisecond, func(c *Config) { c.ConvergenceReports = true })
	design := testDesign(scanP, nGroups)
	runGroupsSequential(t, net, s, design, scanCells, scanSteps, 1, seq(0, nGroups))
	want := referenceAccumulator(scanCells, scanSteps, scanP, core.Options{}, design, seq(0, nGroups)).MaxCIWidth(ciLevel)
	f := s.procs[0].fold
	awaitCIWidth(t, f, "the exact post-pause width", func(w float64) bool { return w == want })
	s.Stop(false)
	if f.scansStarted > nGroups+1 || f.scansStarted != f.ciScansDone.Load() {
		t.Fatalf("%d scans started (%d done) for %d groups, want at most %d",
			f.scansStarted, f.ciScansDone.Load(), nGroups, nGroups+1)
	}
	if got := s.Result().MaxCIWidth(); got != want {
		t.Fatalf("Result.MaxCIWidth = %v, published %v", got, want)
	}
}

// TestSketchScanWithoutConvergence: quantile sketches keep their telemetry
// moving with convergence off and no reader, and that barrier leaves the
// convergence state alone.
func TestSketchScanWithoutConvergence(t *testing.T) {
	const nGroups = 8
	net, s := startScanStudy(t, 10*time.Millisecond, func(c *Config) {
		c.Stats.Quantiles = []float64{0.5}
		c.Stats.QuantileEps = 0.05
	})
	design := testDesign(scanP, nGroups)
	f := s.procs[0].fold
	runGroupsSequential(t, net, s, design, scanCells, scanSteps, 1, seq(0, nGroups))
	// Sketches are a function of the update sequence, so the dense replay
	// holds the tuple count the trailing scan must publish.
	want := referenceAccumulator(scanCells, scanSteps, scanP, s.cfg.Stats, design, seq(0, nGroups)).QuantileTupleCount()
	deadline := time.Now().Add(5 * time.Second)
	for {
		tuples, bytes := f.sketchTelemetry()
		if tuples == want && bytes > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sketch telemetry at %d tuples, %d bytes; want %d tuples", tuples, bytes, want)
		}
		time.Sleep(time.Millisecond)
	}
	s.Stop(false)
	if f.scansStarted != 0 || f.ciScansDone.Load() != 0 {
		t.Fatalf("%d convergence scans started with convergence off", f.scansStarted)
	}
	for i := range f.ciWidths {
		if bits := f.ciWidths[i].Load(); bits != 0 {
			t.Fatalf("shard %d width slot written (%#x) by a sketch-only scan", i, bits)
		}
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
