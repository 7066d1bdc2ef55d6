// melissa-study regenerates every table and figure of the paper's
// evaluation (Sec. 5) and writes them under -out:
//
//   - Fig. 6a-d: the two Curie-scale studies (15- and 32-node server),
//     replayed by the discrete-event performance model — ASCII plots on
//     stdout, CSV series on disk;
//   - Sec. 5.3: the aggregate study numbers, paper vs measured;
//   - Sec. 5.4: the fault-tolerance numbers (checkpoint cadence/overhead,
//     measured live checkpoint write/read at a scaled size);
//   - Fig. 7/8: the live tube-bundle study with the six first-order Sobol'
//     maps and the variance map, plus one map per optional statistic enabled
//     (-minmax, -threshold, -higher-moments, -quantiles) (ASCII + PGM);
//   - Sec. 3.4: confidence-interval convergence on Ishigami.
//
// Run everything (a few minutes, dominated by the live CFD study):
//
//	melissa-study -out out
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"melissa"
	"melissa/internal/cliflags"
	"melissa/internal/core"
	"melissa/internal/des"
	"melissa/internal/harness"
	"melissa/internal/server"
	"melissa/internal/sobol"
	"melissa/internal/transport"
)

func main() {
	fig6 := flag.Bool("fig6", true, "replay Fig. 6 / Sec. 5.3")
	sec54 := flag.Bool("sec54", true, "fault-tolerance numbers (Sec. 5.4)")
	fig7 := flag.Bool("fig7", true, "live tube-bundle study (Fig. 7/8)")
	conv := flag.Bool("convergence", true, "CI convergence (Sec. 3.4)")
	f := cliflags.Register(flag.CommandLine, "melissa-study")
	flag.Parse()
	out := f.Out

	if err := melissa.SetLogging(f.LogLevel, f.LogJSON); err != nil {
		log.Fatalf("melissa-study: -log-level: %v", err)
	}
	stats, err := f.StatsOptions()
	if err != nil {
		log.Fatalf("melissa-study: %v", err)
	}

	if *fig6 {
		runFig6(out)
	}
	if *sec54 {
		runSec54(out)
	}
	if *fig7 {
		runFig7(out, f, stats)
	}
	if *conv {
		runConvergence(out)
	}
	fmt.Printf("\nall outputs under %s\n", out)
}

func runFig6(out string) {
	fmt.Println("================ Fig. 6 / Sec. 5.3: Curie-scale replay ================")
	r15 := des.Run(des.CurieStudy(15))
	r32 := des.Run(des.CurieStudy(32))

	for _, tc := range []struct {
		name string
		r    *des.Result
	}{{"study1_15nodes", r15}, {"study2_32nodes", r32}} {
		var ts, groups, cores, exec []float64
		for _, s := range tc.r.Series {
			ts = append(ts, s.T)
			groups = append(groups, float64(s.RunningGroups))
			cores = append(cores, float64(s.Cores))
			exec = append(exec, s.InstantExec)
		}
		rows := make([][]float64, len(ts))
		for i := range ts {
			rows[i] = []float64{ts[i], groups[i], cores[i], exec[i],
				tc.r.ClassicalGroupSeconds, tc.r.NoOutputGroupSeconds}
		}
		path := filepath.Join(out, "fig6", tc.name+".csv")
		if err := harness.WriteCSV(path,
			[]string{"t", "running_groups", "cores", "melissa_exec", "classical", "no_output"}, rows); err != nil {
			log.Fatal(err)
		}

		dx, dg := harness.Downsample(ts, groups, 100)
		fmt.Println(harness.LinePlot(
			fmt.Sprintf("Fig. 6 (left) — running groups, %s", tc.name),
			"elapsed (s)", "# groups", 100, 14,
			harness.Series{Name: "groups", X: dx, Y: dg, Marker: '*'}))
		dex, dey := harness.Downsample(ts, exec, 100)
		classical := make([]float64, len(dex))
		noout := make([]float64, len(dex))
		for i := range dex {
			classical[i] = tc.r.ClassicalGroupSeconds
			noout[i] = tc.r.NoOutputGroupSeconds
		}
		fmt.Println(harness.LinePlot(
			fmt.Sprintf("Fig. 6 (right) — avg group exec time, %s", tc.name),
			"elapsed (s)", "seconds", 100, 14,
			harness.Series{Name: "melissa(inst)", X: dex, Y: dey, Marker: 'm'},
			harness.Series{Name: "classical", X: dex, Y: classical, Marker: 'c'},
			harness.Series{Name: "no-output", X: dex, Y: noout, Marker: 'n'}))
	}

	speedup := r15.WallClockSeconds / r32.WallClockSeconds
	fmt.Println(harness.Table("Sec. 5.3 — paper vs measured (model)", []harness.Row{
		{Name: "study 1 wall clock", Paper: "2h30 (9000s)", Measured: fmtDur(r15.WallClockSeconds), Verdict: verdict(r15.WallClockSeconds, 9000, 0.35)},
		{Name: "study 2 wall clock", Paper: "1h27 (5220s)", Measured: fmtDur(r32.WallClockSeconds), Verdict: verdict(r32.WallClockSeconds, 5220, 0.35)},
		{Name: "speed-up study1/study2", Paper: "~1.72", Measured: fmt.Sprintf("%.2f", speedup), Verdict: verdict(speedup, 1.72, 0.3)},
		{Name: "study 1 sim CPU hours", Paper: "56487", Measured: fmt.Sprintf("%.0f", r15.SimCPUHours), Verdict: verdict(r15.SimCPUHours, 56487, 0.35)},
		{Name: "study 2 sim CPU hours", Paper: "34082", Measured: fmt.Sprintf("%.0f", r32.SimCPUHours), Verdict: verdict(r32.SimCPUHours, 34082, 0.35)},
		{Name: "study 1 server CPU share", Paper: "1.0%", Measured: fmt.Sprintf("%.1f%%", r15.ServerCPUPercent), Verdict: verdict(r15.ServerCPUPercent, 1.0, 0.8)},
		{Name: "study 2 server CPU share", Paper: "2.1%", Measured: fmt.Sprintf("%.1f%%", r32.ServerCPUPercent), Verdict: verdict(r32.ServerCPUPercent, 2.1, 0.8)},
		{Name: "study 1 peak groups", Paper: "56", Measured: fmt.Sprintf("%d", r15.PeakGroups), Verdict: exact(r15.PeakGroups == 56)},
		{Name: "study 1 peak cores", Paper: "28912", Measured: fmt.Sprintf("%d", r15.PeakCores), Verdict: exact(r15.PeakCores == 28912)},
		{Name: "study 2 peak groups", Paper: "55", Measured: fmt.Sprintf("%d", r32.PeakGroups), Verdict: exact(r32.PeakGroups == 55)},
		{Name: "study 2 peak cores", Paper: "28672", Measured: fmt.Sprintf("%d", r32.PeakCores), Verdict: exact(r32.PeakCores == 28672)},
		{Name: "msgs/min per server proc", Paper: "~1000", Measured: fmt.Sprintf("%.0f", r32.MsgsPerMinPerProc), Verdict: verdict(r32.MsgsPerMinPerProc, 1000, 1.0)},
		{Name: "in-transit data (TB)", Paper: "48", Measured: fmt.Sprintf("%.1f", r32.DataBytes/1e12), Verdict: verdict(r32.DataBytes/1e12, 48, 0.15)},
		{Name: "server memory (GB)", Paper: "491 (Melissa layout)", Measured: fmt.Sprintf("%.0f (shared-mean layout)", float64(r32.ServerMemoryBytes)/1e9), Verdict: "same order"},
		{Name: "15-node server saturates", Paper: "yes", Measured: fmt.Sprintf("%v", r15.Saturated), Verdict: exact(r15.Saturated)},
		{Name: "32-node server saturates", Paper: "no", Measured: fmt.Sprintf("%v", r32.Saturated), Verdict: exact(!r32.Saturated)},
	}))

	two := des.TwoPhase(des.CurieStudy(32))
	fmt.Println(harness.Table("Ablation — one-pass in-transit vs two-phase burst buffer", []harness.Row{
		{Name: "one-pass wall clock", Paper: "(the Melissa way)", Measured: fmtDur(r32.WallClockSeconds), Verdict: ""},
		{Name: "two-phase wall clock", Paper: "\"would still be slower\"", Measured: fmtDur(two.WallClockSeconds), Verdict: exact(two.WallClockSeconds > r32.WallClockSeconds)},
	}))

	fmt.Println("Ablation — server node sweep (wall clock / saturated):")
	for _, nodes := range []int{8, 15, 24, 32, 48, 64} {
		r := des.Run(des.CurieStudy(nodes))
		fmt.Printf("  %2d nodes: %9s  saturated=%v\n", nodes, fmtDur(r.WallClockSeconds), r.Saturated)
	}
	fmt.Println()
}

func runSec54(out string) {
	fmt.Println("================ Sec. 5.4: fault tolerance ================")
	cfg := des.CurieStudy(32)
	overhead := 100 * cfg.CheckpointPauseSeconds / cfg.CheckpointPeriodSeconds

	// Live measurement through the server's one checkpoint path — snapshot
	// barrier, streamed write, restore into a fresh server — of one
	// server-process state at the paper's full per-process scale: 9.6M cells
	// over 512 server processes = 18757 cells x 100 steps x (4+4p) floats ≈
	// 420 MB with our shared-mean layout (the original Melissa stores 959
	// MB/process).
	dir, err := os.MkdirTemp("", "melissa-ckpt")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	scfg := server.Config{Procs: 1, Cells: 9603840 / 512, Timesteps: 100, P: 6,
		Network: transport.NewMemNetwork(transport.Options{}), CheckpointDir: dir}
	writer, err := server.New(scfg)
	if err != nil {
		log.Fatal(err)
	}
	writer.Start()
	writer.Stop(true)
	wrote := writer.Result().Checkpoints()
	reader, err := server.New(scfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := reader.Restore(); err != nil {
		log.Fatal(err)
	}
	readDur := reader.Result().Checkpoints().ReadDuration

	fmt.Println(harness.Table("Sec. 5.4 — paper vs measured", []harness.Row{
		{Name: "group timeout", Paper: "300 s", Measured: "300 s (configurable)", Verdict: "same mechanism"},
		{Name: "checkpoint period", Paper: "600 s", Measured: "600 s (configurable)", Verdict: "same"},
		{Name: "checkpoint pause", Paper: "2.75 s/process", Measured: "modeled 2.75 s", Verdict: "input"},
		{Name: "checkpoint overhead", Paper: "~0.5%", Measured: fmt.Sprintf("%.2f%%", overhead), Verdict: verdict(overhead, 0.5, 0.3)},
		{Name: "ckpt size/process", Paper: "959 MB", Measured: fmt.Sprintf("%.0f MB (leaner shared-mean layout)", float64(wrote.LastBytes)/1e6), Verdict: "same order"},
		{Name: "ckpt write/process", Paper: "2.75 s (Lustre)", Measured: fmt.Sprintf("%v, ingest stalled %v (local disk)", wrote.WriteDuration.Round(time.Millisecond), wrote.StallDuration.Round(time.Millisecond)), Verdict: "measured live"},
		{Name: "ckpt read/process", Paper: "7.24 s (Lustre)", Measured: readDur.Round(time.Millisecond).String() + " (local disk)", Verdict: "measured live"},
		{Name: "replay exactness", Paper: "discard on replay", Measured: "bit-exact (TestDiscardOnReplay*)", Verdict: "verified"},
	}))
	_ = out
}

// runFig7 runs the live tube-bundle study with the pipeline, statistics,
// checkpoint, telemetry and resilience selections of the command line.
func runFig7(out string, f *cliflags.Flags, opts core.Options) {
	fmt.Println("================ Fig. 7/8: tube-bundle Sobol' maps (live) ================")
	nx, ny, groups := f.NX, f.NY, f.Groups
	study, grid, err := melissa.TubeBundleStudy(nx, ny, groups, 2017)
	if err != nil {
		log.Fatal(err)
	}
	study.ServerProcs = 4
	study.SimRanks = 4
	study.FoldWorkers = f.FoldWorkers
	study.BatchSteps = f.BatchSteps
	study.WireCodec = f.WireCodec
	study.MinMax = opts.MinMax
	study.Threshold = opts.Threshold
	study.HigherMoments = opts.HigherMoments
	study.Quantiles = opts.Quantiles
	study.QuantileEps = opts.QuantileEps
	study.CheckpointDir, study.CheckpointInterval = f.Checkpoints()
	study.MetricsAddr = f.MetricsAddr
	study.Chaos = f.ChaosPlan()
	study.Retry = f.RetryPolicy()
	start := time.Now()
	res, stats, err := melissa.RunStudy(study)
	if err != nil {
		log.Fatal(err)
	}
	if study.Chaos != nil {
		fmt.Printf("chaos plan absorbed: %d reconnects, %d group restarts, %d given up\n",
			stats.Reconnects, stats.Restarts, stats.GroupsGivenUp)
	}
	fmt.Printf("live study: %dx%d cells, %d groups x 8 sims in %v (%d messages, %.1f GB avoided)\n\n",
		nx, ny, groups, time.Since(start).Round(time.Millisecond),
		stats.MessagesFolded, float64(stats.DataAvoidedBytes)/1e9)
	if ws := res.WireStats(); study.WireCodec && ws.Messages > 0 {
		fmt.Printf("field traffic: %.1f MB on the wire vs %.1f MB raw (%.2fx, %.1f MB saved)\n\n",
			float64(ws.WireBytes)/1e6, float64(ws.RawBytes)/1e6, ws.Ratio(), float64(ws.Saved())/1e6)
	}
	if ck := res.Checkpoints(); ck.Writes > 0 {
		fmt.Printf("checkpoints: %d written (%d skipped), %.1f MB durable; ingest stalled %v of %v total write time\n\n",
			ck.Writes, ck.Skipped, float64(ck.BytesWritten)/1e6,
			ck.StallDuration.Round(time.Microsecond), ck.WriteDuration.Round(time.Microsecond))
	}

	// Every map is the same two outputs: an ASCII heatmap on stdout and a PGM
	// under fig7/. A nil field is a statistic that was not enabled; it writes
	// nothing.
	const step = 79
	writeMap := func(title, file string, field []float64, lo, hi float64) {
		if field == nil {
			return
		}
		fmt.Printf("%s at timestep %d:\n%s\n", title, step+1, harness.Heatmap(field, nx, ny, lo, hi))
		if err := harness.WritePGM(filepath.Join(out, "fig7", file+".pgm"), field, nx, ny, lo, hi); err != nil {
			log.Fatal(err)
		}
	}
	for k, name := range melissa.TubeBundleParamNames() {
		masked := res.First(step, k)
		for i := range masked {
			if grid.Solid(i) {
				masked[i] = 0
			}
		}
		writeMap(fmt.Sprintf("Fig. 7(%c) — S[%s]", 'a'+k, name), name, masked, 0, 1)
	}
	writeMap("Fig. 8 — Var(Y)", "variance", res.Variance(step), 0, 0)

	// The optional trackers over the A/B samples (-minmax, -threshold,
	// -higher-moments), at the same timestep as Fig. 7/8.
	writeMap("Min(Y)", "min", res.Min(step), 0, 0)
	writeMap("Max(Y)", "max", res.Max(step), 0, 0)
	writeMap("P(Y > threshold)", "exceedance", res.Exceedance(step), 0, 1)
	writeMap("Skewness(Y)", "skewness", res.Skewness(step), 0, 0)
	writeMap("Excess kurtosis(Y)", "kurtosis", res.Kurtosis(step), 0, 0)

	// Ubiquitous quantile maps (the in-transit order statistics of Ribés
	// et al.), one per configured probe.
	if probes := res.QuantileProbes(); len(probes) > 0 {
		tuples := res.QuantileTupleCount()
		perCellStep := float64(tuples) / float64(res.Cells()*res.Timesteps())
		fmt.Printf("Quantile sketches: %d retained tuples (%.1f per cell·step, ≈%.1f KiB/cell·step at ε tuning)\n",
			tuples, perCellStep, perCellStep*24/1024)
	}
	for _, q := range res.QuantileProbes() {
		writeMap(fmt.Sprintf("Quantile map — q=%g", q), fmt.Sprintf("quantile_q%g", q), res.Quantile(step, q), 0, 0)
	}
}

func runConvergence(out string) {
	fmt.Println("================ Sec. 3.4: confidence-interval convergence ================")
	fn := sobol.Ishigami()
	var rows [][]float64
	marks := map[int]bool{16: true, 64: true, 256: true, 1024: true, 4096: true}
	// Stream independent groups one at a time, recording the CI width at
	// logarithmic checkpoints.
	full := sobol.NewMartinez(fn.P())
	for streamed := 1; streamed <= 4096; streamed++ {
		sobol.Estimate(fn, 1, uint64(1000+streamed), full)
		if marks[streamed] {
			iv := full.FirstCI(0, 0.95)
			rows = append(rows, []float64{float64(streamed), full.First(0), iv.Low, iv.High, iv.Width()})
			fmt.Printf("  n=%5d  S1=%7.4f  CI width %.4f\n", streamed, full.First(0), iv.Width())
		}
	}
	if err := harness.WriteCSV(filepath.Join(out, "convergence", "ishigami_s1.csv"),
		[]string{"n", "s1", "ci_low", "ci_high", "ci_width"}, rows); err != nil {
		log.Fatal(err)
	}
	fmt.Println()
}

func fmtDur(seconds float64) string {
	return time.Duration(seconds * float64(time.Second)).Round(time.Second).String()
}

func verdict(got, want, tolerance float64) string {
	rel := got/want - 1
	if rel < 0 {
		rel = -rel
	}
	if rel <= tolerance {
		return fmt.Sprintf("within %.0f%%", rel*100+1)
	}
	return fmt.Sprintf("off by %.0f%%", rel*100)
}

func exact(ok bool) string {
	if ok {
		return "matches"
	}
	return "MISMATCH"
}
