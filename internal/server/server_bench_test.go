package server

import (
	"testing"
	"time"

	"melissa/internal/client"
	"melissa/internal/core"
	"melissa/internal/transport"
)

// BenchmarkServerIngest measures end-to-end assimilation throughput: one
// group at a time streaming through the real client/server path (handshake,
// two-stage transfer, assembly, fold) on the in-memory transport. Variants
// sweep the fold worker-pool width and the client-side timestep batching:
// fold1/batch1 is the pre-pipeline single-threaded baseline. Two sim ranks
// feed the two processes one whole-partition piece each; the ranks3 variants
// split every (group, timestep) of both processes into two pieces.
func BenchmarkServerIngest(b *testing.B) {
	for _, bc := range []struct {
		name        string
		foldWorkers int
		batchSteps  int
		simRanks    int
	}{
		{"fold1-batch1", 1, 1, 2},
		{"fold2-batch1", 2, 1, 2},
		{"fold4-batch1", 4, 1, 2},
		{"fold4-batch8", 4, 8, 2},
		{"ranks3-fold4-batch1", 4, 1, 3},
		{"ranks3-fold4-batch8", 4, 8, 3},
	} {
		b.Run(bc.name, func(b *testing.B) {
			benchServerIngest(b, bc.foldWorkers, bc.batchSteps, bc.simRanks, core.Options{})
		})
	}
}

// BenchmarkServerIngestQuantiles is the same end-to-end path with per-cell
// quantile sketches enabled — compare against BenchmarkServerIngest for the
// cost of the first data-structure-valued ubiquitous statistic, and across
// fold widths for how the sketch work shards.
func BenchmarkServerIngestQuantiles(b *testing.B) {
	stats := core.Options{Quantiles: []float64{0.05, 0.5, 0.95}}
	for _, bc := range []struct {
		name        string
		foldWorkers int
		batchSteps  int
	}{
		{"fold1-batch1", 1, 1},
		{"fold4-batch1", 4, 1},
		{"fold4-batch8", 4, 8},
	} {
		b.Run(bc.name, func(b *testing.B) {
			benchServerIngest(b, bc.foldWorkers, bc.batchSteps, 2, stats)
		})
	}
}

func benchServerIngest(b *testing.B, foldWorkers, batchSteps, simRanks int, stats core.Options) {
	const cells, timesteps, p = 4096, 8, 6
	net := transport.NewMemNetwork(transport.Options{})
	design := testDesign(p, 1<<20)
	sim := testSim(cells, timesteps)

	cfg := Config{
		Procs: 2, FoldWorkers: foldWorkers, Cells: cells, Timesteps: timesteps, P: p,
		Network: net, ReportInterval: time.Hour, Stats: stats,
	}
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.Start()
	defer s.Stop(false)

	b.SetBytes(int64(8 * cells * (p + 2) * timesteps))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.RunGroup(net, s.MainAddr(), client.RunConfig{
			ConnectOpts: client.ConnectOpts{GroupID: i, SimRanks: simRanks, BatchSteps: batchSteps},
			Rows:        design.GroupRows(i % design.N()),
			Sim:         sim,
		}); err != nil {
			b.Fatal(err)
		}
	}
	// Wait until everything queued is folded before stopping the timer.
	want := int64((b.N) * timesteps * 2)
	for s.TotalFolds() < want {
		time.Sleep(time.Millisecond)
	}
}

// BenchmarkServerIngestConcurrent streams several groups at once — the
// saturated operating point of Sec. 5.3 — so the fold pipeline overlaps
// decode/assembly with folding across all workers.
func BenchmarkServerIngestConcurrent(b *testing.B) {
	for _, bc := range []struct {
		name        string
		foldWorkers int
		batchSteps  int
	}{
		{"fold1-batch1", 1, 1},
		{"fold4-batch1", 4, 1},
		{"fold4-batch8", 4, 8},
	} {
		b.Run(bc.name, func(b *testing.B) {
			benchServerIngestConcurrent(b, bc.foldWorkers, bc.batchSteps)
		})
	}
}

func benchServerIngestConcurrent(b *testing.B, foldWorkers, batchSteps int) {
	const cells, timesteps, p, lanes = 4096, 8, 6, 4
	net := transport.NewMemNetwork(transport.Options{})
	design := testDesign(p, 1<<20)
	sim := testSim(cells, timesteps)

	s, err := New(Config{
		Procs: 2, FoldWorkers: foldWorkers, Cells: cells, Timesteps: timesteps, P: p,
		Network: net, ReportInterval: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	s.Start()
	defer s.Stop(false)

	b.SetBytes(int64(8 * cells * (p + 2) * timesteps))
	b.ResetTimer()
	errs := make(chan error, lanes)
	for lane := 0; lane < lanes; lane++ {
		go func(lane int) {
			var err error
			for i := lane; i < b.N; i += lanes {
				if err = client.RunGroup(net, s.MainAddr(), client.RunConfig{
					ConnectOpts: client.ConnectOpts{GroupID: i, SimRanks: 2, BatchSteps: batchSteps},
					Rows:        design.GroupRows(i % design.N()),
					Sim:         sim,
				}); err != nil {
					break
				}
			}
			errs <- err
		}(lane)
	}
	for lane := 0; lane < lanes; lane++ {
		if err := <-errs; err != nil {
			b.Fatal(err)
		}
	}
	want := int64((b.N) * timesteps * 2)
	for s.TotalFolds() < want {
		time.Sleep(time.Millisecond)
	}
}
