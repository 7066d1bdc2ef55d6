// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md for the experiment index). Each benchmark runs the
// corresponding experiment and publishes the paper's headline quantities as
// custom metrics, so `go test -bench=.` prints the same rows/series the
// paper reports. CSV series land under out/bench/ (written once).
//
//	go test -bench=Fig6 -benchmem .
//	go test -bench=. -benchmem ./...
package melissa

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"melissa/internal/des"
	"melissa/internal/harness"
	"melissa/internal/server"
	"melissa/internal/sobol"
	"melissa/internal/transport"
)

// writeSeriesOnce dumps a DES series to CSV the first time a bench runs.
var seriesOnce sync.Once

func writeFig6Series(r15, r32 *des.Result) {
	seriesOnce.Do(func() {
		for _, tc := range []struct {
			name string
			r    *des.Result
		}{{"fig6ab_15nodes", r15}, {"fig6cd_32nodes", r32}} {
			rows := make([][]float64, len(tc.r.Series))
			for i, s := range tc.r.Series {
				rows[i] = []float64{s.T, float64(s.RunningGroups), float64(s.Cores),
					s.InstantExec, tc.r.ClassicalGroupSeconds, tc.r.NoOutputGroupSeconds}
			}
			harness.WriteCSV("out/bench/"+tc.name+".csv",
				[]string{"t", "groups", "cores", "melissa_exec", "classical", "no_output"}, rows)
		}
	})
}

// BenchmarkFig6aServer15Nodes replays the first Curie study (server on 15
// nodes) and reports the Fig. 6a elasticity series' peaks.
func BenchmarkFig6aServer15Nodes(b *testing.B) {
	var r *des.Result
	for i := 0; i < b.N; i++ {
		r = des.Run(des.CurieStudy(15))
	}
	b.ReportMetric(float64(r.PeakGroups), "peak-groups")
	b.ReportMetric(float64(r.PeakCores), "peak-cores")
	b.ReportMetric(r.WallClockSeconds, "wallclock-s")
	r32 := des.Run(des.CurieStudy(32))
	writeFig6Series(r, r32)
}

// BenchmarkFig6bExecTime15Nodes reports the Fig. 6b saturation: the worst
// instantaneous group exec time versus the classical and no-output
// baselines (the paper observed "up to doubling").
func BenchmarkFig6bExecTime15Nodes(b *testing.B) {
	var r *des.Result
	for i := 0; i < b.N; i++ {
		r = des.Run(des.CurieStudy(15))
	}
	worst := 0.0
	for _, s := range r.Series {
		if s.InstantExec > worst {
			worst = s.InstantExec
		}
	}
	b.ReportMetric(worst, "melissa-worst-s")
	b.ReportMetric(r.ClassicalGroupSeconds, "classical-s")
	b.ReportMetric(r.NoOutputGroupSeconds, "no-output-s")
	b.ReportMetric(worst/r.NoOutputGroupSeconds, "slowdown-x")
}

// BenchmarkFig6cServer32Nodes replays the second study (32 server nodes).
func BenchmarkFig6cServer32Nodes(b *testing.B) {
	var r *des.Result
	for i := 0; i < b.N; i++ {
		r = des.Run(des.CurieStudy(32))
	}
	b.ReportMetric(float64(r.PeakGroups), "peak-groups")
	b.ReportMetric(float64(r.PeakCores), "peak-cores")
	b.ReportMetric(r.WallClockSeconds, "wallclock-s")
}

// BenchmarkFig6dExecTime32Nodes reports the unsaturated regime of Fig. 6d:
// Melissa between no-output (+18.5%) and classical (−13%).
func BenchmarkFig6dExecTime32Nodes(b *testing.B) {
	var r *des.Result
	for i := 0; i < b.N; i++ {
		r = des.Run(des.CurieStudy(32))
	}
	b.ReportMetric(r.MeanGroupSeconds, "melissa-mean-s")
	b.ReportMetric(r.ClassicalGroupSeconds, "classical-s")
	b.ReportMetric(r.NoOutputGroupSeconds, "no-output-s")
	b.ReportMetric(100*(r.MeanGroupSeconds/r.NoOutputGroupSeconds-1), "overhead-vs-noout-pct")
	b.ReportMetric(100*(1-r.MeanGroupSeconds/r.ClassicalGroupSeconds), "gain-vs-classical-pct")
}

// BenchmarkSec53StudySummary reproduces the Sec. 5.3 aggregate rows.
func BenchmarkSec53StudySummary(b *testing.B) {
	var r15, r32 *des.Result
	for i := 0; i < b.N; i++ {
		r15 = des.Run(des.CurieStudy(15))
		r32 = des.Run(des.CurieStudy(32))
	}
	b.ReportMetric(r15.WallClockSeconds, "study1-wall-s")
	b.ReportMetric(r32.WallClockSeconds, "study2-wall-s")
	b.ReportMetric(r15.WallClockSeconds/r32.WallClockSeconds, "speedup-x")
	b.ReportMetric(r15.SimCPUHours, "study1-sim-cpuh")
	b.ReportMetric(r32.SimCPUHours, "study2-sim-cpuh")
	b.ReportMetric(r15.ServerCPUPercent, "study1-server-pct")
	b.ReportMetric(r32.ServerCPUPercent, "study2-server-pct")
	b.ReportMetric(r32.DataBytes/1e12, "data-avoided-TB")
	b.ReportMetric(r32.MsgsPerMinPerProc, "msgs-per-min-per-proc")
	b.ReportMetric(float64(r32.ServerMemoryBytes)/1e9, "server-memory-GB")
}

// BenchmarkSec54FaultTolerance measures the server's one checkpoint path
// (snapshot barrier, streamed write, restore into a fresh server) at the
// paper's full per-process state size (9.6M cells over 512 server processes),
// and reports the cadence-overhead model.
func BenchmarkSec54FaultTolerance(b *testing.B) {
	cfg := server.Config{Procs: 1, Cells: 9603840 / 512, Timesteps: 100, P: 6,
		Network: transport.NewMemNetwork(transport.Options{}), CheckpointDir: b.TempDir()}
	var ck server.CheckpointStats
	for i := 0; i < b.N; i++ {
		writer, err := server.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		writer.Start()
		writer.Stop(true)
		wrote := writer.Result().Checkpoints()
		reader, err := server.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := reader.Restore(); err != nil {
			b.Fatal(err)
		}
		ck.WriteDuration += wrote.WriteDuration
		ck.StallDuration += wrote.StallDuration
		ck.ReadDuration += reader.Result().Checkpoints().ReadDuration
		ck.LastBytes = wrote.LastBytes
	}
	n := float64(b.N)
	b.ReportMetric(ck.WriteDuration.Seconds()*1e3/n, "write-ms")
	b.ReportMetric(ck.StallDuration.Seconds()*1e3/n, "stall-ms")
	b.ReportMetric(ck.ReadDuration.Seconds()*1e3/n, "read-ms")
	b.ReportMetric(float64(ck.LastBytes)/1e6, "ckpt-MB")
	dcfg := des.CurieStudy(32)
	b.ReportMetric(100*dcfg.CheckpointPauseSeconds/dcfg.CheckpointPeriodSeconds, "overhead-pct")
}

// benchTubeBundle runs one live tube-bundle study (shared by the Fig. 7 and
// Fig. 8 benches).
func benchTubeBundle(b *testing.B, groups int) *FieldResult {
	b.Helper()
	study, _, err := TubeBundleStudy(48, 16, groups, 2017)
	if err != nil {
		b.Fatal(err)
	}
	study.ServerProcs = 2
	study.SimRanks = 2
	res, stats, err := RunStudy(study)
	if err != nil {
		b.Fatal(err)
	}
	if stats.GroupsFinished != groups {
		b.Fatalf("finished %d of %d", stats.GroupsFinished, groups)
	}
	return res
}

// BenchmarkFig7SobolMaps runs the live use case end to end and reports the
// quantitative content of the Fig. 7 interpretation: cross-influence of
// upper parameters on the lower half, and the duration left/right contrast.
func BenchmarkFig7SobolMaps(b *testing.B) {
	var res *FieldResult
	for i := 0; i < b.N; i++ {
		res = benchTubeBundle(b, 64)
	}
	const step, nx, ny = 79, 48, 16
	mean := func(field []float64, keep func(ix, iy int) bool) float64 {
		var sum float64
		n := 0
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				if keep(ix, iy) {
					sum += math.Abs(field[ix+iy*nx])
					n++
				}
			}
		}
		return sum / float64(n)
	}
	kc, _ := TubeBundleParamIndex("conc-upper")
	kd, _ := TubeBundleParamIndex("dur-upper")
	sc := res.First(step, kc)
	sd := res.First(step, kd)
	b.ReportMetric(mean(sc, func(ix, iy int) bool { return iy < ny/4 }), "conc-up-S-bottom")
	b.ReportMetric(mean(sc, func(ix, iy int) bool { return iy >= ny/2 }), "conc-up-S-top")
	b.ReportMetric(mean(sd, func(ix, iy int) bool { return iy >= ny/2 && ix < nx/4 }), "dur-up-S-left")
	b.ReportMetric(mean(sd, func(ix, iy int) bool { return iy >= ny/2 && ix >= 3*nx/4 }), "dur-up-S-right")
}

// BenchmarkFig8VarianceMap reports the variance-map contrast of Fig. 8.
func BenchmarkFig8VarianceMap(b *testing.B) {
	var res *FieldResult
	for i := 0; i < b.N; i++ {
		res = benchTubeBundle(b, 48)
	}
	variance := res.Variance(79)
	maxVar, sum := 0.0, 0.0
	for _, v := range variance {
		sum += v
		if v > maxVar {
			maxVar = v
		}
	}
	b.ReportMetric(maxVar, "max-variance")
	b.ReportMetric(sum/float64(len(variance)), "mean-variance")
}

// BenchmarkSec34Convergence streams Ishigami groups through the Martinez
// estimator and reports the Eq. 8 interval width at n = 1024 and 4096.
func BenchmarkSec34Convergence(b *testing.B) {
	fn := sobol.Ishigami()
	var w1024, w4096 float64
	for i := 0; i < b.N; i++ {
		m := sobol.NewMartinez(fn.P())
		sobol.Estimate(fn, 1024, 42, m)
		w1024 = m.FirstCI(0, 0.95).Width()
		sobol.Estimate(fn, 3072, 43, m)
		w4096 = m.FirstCI(0, 0.95).Width()
	}
	b.ReportMetric(w1024, "ci-width-n1024")
	b.ReportMetric(w4096, "ci-width-n4096")
	b.ReportMetric(w1024/w4096, "shrink-4x-expected-2x")
}

// BenchmarkAblationEstimators compares Martinez (the paper's choice),
// Jansen and Saltelli on Ishigami at n = 4096: accuracy and update cost.
func BenchmarkAblationEstimators(b *testing.B) {
	fn := sobol.Ishigami()
	for _, name := range []string{"martinez", "jansen", "saltelli"} {
		b.Run(name, func(b *testing.B) {
			var worst float64
			for i := 0; i < b.N; i++ {
				est, err := sobol.NewEstimator(name, fn.P())
				if err != nil {
					b.Fatal(err)
				}
				sobol.Estimate(fn, 4096, 7, est)
				worst = 0
				for k := 0; k < fn.P(); k++ {
					if d := math.Abs(est.First(k) - fn.ExactFirst[k]); d > worst {
						worst = d
					}
					if d := math.Abs(est.Total(k) - fn.ExactTotal[k]); d > worst {
						worst = d
					}
				}
			}
			b.ReportMetric(worst, "max-abs-error")
		})
	}
}

// BenchmarkAblationServerNodes sweeps the server size around the paper's
// two operating points (15 saturated, 32 unsaturated).
func BenchmarkAblationServerNodes(b *testing.B) {
	for _, nodes := range []int{8, 15, 32, 64} {
		b.Run(fmt.Sprintf("nodes-%d", nodes), func(b *testing.B) {
			var r *des.Result
			for i := 0; i < b.N; i++ {
				r = des.Run(des.CurieStudy(nodes))
			}
			b.ReportMetric(r.WallClockSeconds, "wallclock-s")
			sat := 0.0
			if r.Saturated {
				sat = 1
			}
			b.ReportMetric(sat, "saturated")
		})
	}
}

// BenchmarkAblationTwoPhase compares the one-pass in-transit pipeline with
// the two-phase burst-buffer alternative dismissed in Sec. 5.3.
func BenchmarkAblationTwoPhase(b *testing.B) {
	var one, two *des.Result
	for i := 0; i < b.N; i++ {
		one = des.Run(des.CurieStudy(32))
		two = des.TwoPhase(des.CurieStudy(32))
	}
	b.ReportMetric(one.WallClockSeconds, "one-pass-s")
	b.ReportMetric(two.WallClockSeconds, "two-phase-s")
	b.ReportMetric(two.WallClockSeconds/one.WallClockSeconds, "two-phase-slowdown-x")
}

// BenchmarkEndToEndStudyThroughput measures the full framework's group
// throughput on a synthetic field study (messages through the real
// client/server path, in-memory transport). Variants sweep the server fold
// worker-pool width and the client wire batching; "fold1-batch1" is the
// pre-pipeline baseline.
func BenchmarkEndToEndStudyThroughput(b *testing.B) {
	for _, bc := range []struct {
		name        string
		foldWorkers int
		batchSteps  int
	}{
		{"fold1-batch1", 1, 1},
		{"fold4-batch1", 4, 1},
		{"fold4-batch4", 4, 4},
	} {
		b.Run(bc.name, func(b *testing.B) {
			benchEndToEndStudy(b, bc.foldWorkers, bc.batchSteps)
		})
	}
}

func benchEndToEndStudy(b *testing.B, foldWorkers, batchSteps int) {
	const cells, timesteps, groups = 512, 4, 32
	for i := 0; i < b.N; i++ {
		cfg := StudyConfig{
			Parameters: []Distribution{Uniform{Low: -1, High: 1}, Uniform{Low: -1, High: 1}},
			Groups:     groups,
			Seed:       uint64(i),
			Cells:      cells,
			Timesteps:  timesteps,
			Simulation: SimFunc(func(row []float64, emit func(int, []float64) bool) {
				f := make([]float64, cells)
				for t := 0; t < timesteps; t++ {
					for c := range f {
						f[c] = row[0]*float64(c) + row[1]
					}
					if !emit(t, f) {
						return
					}
				}
			}),
			ServerProcs: 2,
			SimRanks:    2,
			FoldWorkers: foldWorkers,
			BatchSteps:  batchSteps,
		}
		if _, _, err := RunStudy(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(groups*timesteps*b.N)/b.Elapsed().Seconds(), "group-steps/s")
}
