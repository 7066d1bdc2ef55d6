// melissa-launcher orchestrates a complete study over TCP: it starts the
// parallel server, submits every simulation group to the virtual batch
// scheduler, supervises heartbeats/timeouts/retries, and writes the final
// ubiquitous statistic fields — the full three-tier deployment of Fig. 3 in
// one command.
//
// Example:
//
//	melissa-launcher -study tubebundle -nx 96 -ny 32 -groups 64 \
//	    -server-procs 4 -out out/launcher
package main

import (
	"flag"
	"fmt"
	"log"
	"path/filepath"
	"time"

	"melissa"
	"melissa/internal/cliflags"
	"melissa/internal/core"
	"melissa/internal/harness"
	"melissa/internal/launcher"
	"melissa/internal/scheduler"
	"melissa/internal/studies"
)

func main() {
	serverProcs := flag.Int("server-procs", 2, "parallel server processes")
	clusterNodes := flag.Int("cluster-nodes", 0, "virtual cluster size (0 = unbounded)")
	groupNodes := flag.Int("group-nodes", 1, "nodes per group job")
	convergence := flag.Float64("converge-at", 0, "stop when every 95% CI is narrower than this (0 = off)")
	f := cliflags.Register(flag.CommandLine, "melissa-launcher")
	flag.Parse()

	if err := melissa.SetLogging(f.LogLevel, f.LogJSON); err != nil {
		log.Fatalf("melissa-launcher: -log-level: %v", err)
	}
	st, err := studies.Build(f.Study, f.NX, f.NY, f.Cells, f.Timesteps)
	if err != nil {
		log.Fatalf("melissa-launcher: %v", err)
	}
	var cluster *scheduler.Cluster
	if *clusterNodes > 0 {
		cluster = scheduler.New(*clusterNodes)
	}
	cfg := launcher.Config{
		Design:            st.Design(f.Groups, f.Seed),
		Sim:               st.Sim,
		Cells:             st.Cells,
		Timesteps:         st.Timesteps,
		SimRanks:          f.SimRanks,
		Stats:             core.Options{MinMax: true},
		Network:           f.TCPNetwork(st.Cells, st.P()),
		Cluster:           cluster,
		ServerProcs:       *serverProcs,
		FoldWorkers:       f.FoldWorkers,
		BatchSteps:        f.BatchSteps,
		WireCodec:         f.WireCodec,
		GroupNodes:        *groupNodes,
		GroupTimeout:      f.GroupTimeout,
		ConvergenceTarget: *convergence,
		MetricsAddr:       f.MetricsAddr,
		Retry:             f.RetryPolicy(),
	}
	cfg.CheckpointDir, cfg.CheckpointInterval = f.Checkpoints()

	log.Printf("melissa-launcher: study %q — %d cells x %d timesteps, %d groups x %d simulations, %d server processes, TCP transport",
		st.Name, st.Cells, st.Timesteps, f.Groups, st.P()+2, *serverProcs)

	l, err := launcher.New(cfg)
	if err != nil {
		log.Fatalf("melissa-launcher: %v", err)
	}
	res, stats, err := l.Run()
	if err != nil {
		log.Fatalf("melissa-launcher: %v", err)
	}

	log.Printf("study complete in %v", stats.WallClock.Round(time.Millisecond))
	log.Printf("  groups finished/given-up: %d/%d  restarts: %d  reconnects: %d  timeout kills: %d  server restarts: %d  resumed across restarts: %d",
		stats.GroupsFinished, stats.GroupsGivenUp, stats.Restarts, stats.Reconnects, stats.TimeoutKills, stats.ServerRestarts, stats.ResumesAfterServerRestart)
	log.Printf("  messages folded: %d  server state: %.1f MB", res.Messages(), float64(res.MemoryBytes())/1e6)
	if ws := res.WireStats(); ws.Messages > 0 {
		log.Printf("  field traffic: %.1f MB on the wire vs %.1f MB raw (%.2fx, %.1f MB saved)",
			float64(ws.WireBytes)/1e6, float64(ws.RawBytes)/1e6, ws.Ratio(), float64(ws.Saved())/1e6)
	}
	if ck := res.Checkpoints(); ck.Writes > 0 {
		log.Printf("  checkpoints: %d written (%d skipped), %.1f MB durable; ingest stalled %v of %v total write time",
			ck.Writes, ck.Skipped, float64(ck.BytesWritten)/1e6,
			ck.StallDuration.Round(time.Microsecond), ck.WriteDuration.Round(time.Microsecond))
	}
	if stats.Converged {
		log.Printf("  stopped early on convergence (widest CI %.4f)", res.MaxCIWidth())
	}

	// Write the final statistic fields, mirroring the
	// results.<field>_<statistic>.<timestep> files of the artifact: one CSV
	// per parameter for the Sobol' indices, one per other statistic, each
	// row a cell. A nil column is an optional tracker that is not enabled;
	// its file is not written.
	last := st.Timesteps - 1
	writeFields := func(name string, header []string, cols ...[]float64) {
		if cols[0] == nil {
			return
		}
		rows := make([][]float64, st.Cells)
		for c := range rows {
			rows[c] = []float64{float64(c)}
			for _, col := range cols {
				rows[c] = append(rows[c], col[c])
			}
		}
		path := filepath.Join(f.Out, fmt.Sprintf("results.%s.%d.csv", name, last))
		if err := harness.WriteCSV(path, append([]string{"cell"}, header...), rows); err != nil {
			log.Fatalf("melissa-launcher: %v", err)
		}
	}
	for k := 0; k < st.P(); k++ {
		writeFields(st.ParamNames[k]+"_sobol", []string{"first", "total"}, res.FirstField(last, k), res.TotalField(last, k))
	}
	writeFields("variance", []string{"variance"}, res.VarianceField(last))
	writeFields("minmax", []string{"min", "max"}, res.MinField(last), res.MaxField(last))
	writeFields("exceedance", []string{"probability"}, res.ExceedanceField(last))
	writeFields("moments", []string{"skewness", "kurtosis"}, res.SkewnessField(last), res.KurtosisField(last))
	log.Printf("  statistic fields written under %s", f.Out)
}
