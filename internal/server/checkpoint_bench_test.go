package server

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"melissa/internal/core"
	"melissa/internal/mesh"
	"melissa/internal/transport"
)

// benchCheckpointShape is the per-process state the checkpoint benchmarks
// snapshot and write: the ingest-bench study shape, populated with enough
// groups that the quantile sketches (when enabled) reach their steady
// O(1/ε) size.
const (
	benchCkptCells     = 4096
	benchCkptTimesteps = 8
	benchCkptP         = 6
	benchCkptGroups    = 16
)

func benchCkptOptions() []struct {
	name  string
	stats core.Options
} {
	return []struct {
		name  string
		stats core.Options
	}{
		{"plain", core.Options{}},
		{"quantiles", core.Options{Quantiles: []float64{0.05, 0.5, 0.95}}},
	}
}

// fillBenchAccumulator folds deterministic pseudo-random groups into s.
func fillBenchAccumulator(s *core.ShardedAccumulator) {
	rng := rand.New(rand.NewSource(1))
	yA := make([]float64, benchCkptCells)
	yB := make([]float64, benchCkptCells)
	yC := make([][]float64, benchCkptP)
	for k := range yC {
		yC[k] = make([]float64, benchCkptCells)
	}
	for g := 0; g < benchCkptGroups; g++ {
		for t := 0; t < benchCkptTimesteps; t++ {
			for i := 0; i < benchCkptCells; i++ {
				yA[i] = rng.NormFloat64()
				yB[i] = rng.NormFloat64()
				for k := range yC {
					yC[k][i] = rng.NormFloat64()
				}
			}
			s.UpdateGroup(t, yA, yB, yC)
		}
	}
}

// BenchmarkCheckpointSnapshot measures phase 1 of the two-phase checkpoint
// in isolation: the memmove of each shard's interleaved records (tracker
// slots ride inside) plus the O(sketches) copy-on-write freeze of the
// quantile state. This is the *only* work the fold pipeline ever stalls for
// — quantile compaction, encode, CRC, write and fsync all run on the
// background writer from the frozen views. BenchmarkCheckpointWrite reports
// the same stall next to the whole write it no longer blocks for.
func BenchmarkCheckpointSnapshot(b *testing.B) {
	for _, oc := range benchCkptOptions() {
		for _, shards := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s-fold%d", oc.name, shards), func(b *testing.B) {
				acc := core.NewSharded(benchCkptCells, benchCkptTimesteps, benchCkptP, oc.stats, shards)
				fillBenchAccumulator(acc)
				snap := acc.NewSnapshot()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for s := 0; s < acc.NumShards(); s++ {
						acc.SnapshotShard(s, snap)
					}
				}
			})
		}
	}
}

// newBenchProc builds a populated server process with a live fold-worker
// pool and checkpointing into dir, without a run loop — the benchmark
// goroutine plays the inbox role.
func newBenchProc(b *testing.B, workers int, stats core.Options, dir string) *Proc {
	b.Helper()
	net := transport.NewMemNetwork(transport.Options{})
	recv, err := net.Listen("")
	if err != nil {
		b.Fatal(err)
	}
	pr := newProc(procConfig{
		Config: Config{
			Procs: 1, FoldWorkers: workers,
			Cells: benchCkptCells, Timesteps: benchCkptTimesteps, P: benchCkptP,
			Stats: stats, Network: net,
			CheckpointDir: dir, CheckpointInterval: time.Hour,
			ReportInterval: time.Hour,
		},
		Rank:      0,
		Partition: mesh.Partition{Lo: 0, Hi: benchCkptCells},
	}, recv)
	fillBenchAccumulator(pr.Accumulator())
	pr.start()
	b.Cleanup(func() {
		pr.stopStages()
		recv.Close()
	})
	return pr
}

// BenchmarkCheckpointWrite measures one whole checkpoint end to end —
// initiation to durable file — through the real Proc machinery. The
// hot-path blockage is only the snapshot copy, reported as the custom metric
// stall-ns/op: that, not ns/op, is the number ingest pays — the rest of the
// write overlaps folding; `bash bench/run.sh` reports the same split at study
// scale as checkpoint.stall_s and checkpoint.write_s. (The sync-vs-pipelined
// ratio against the deleted quiesced write path is under PR 5 in CHANGES.md.)
func BenchmarkCheckpointWrite(b *testing.B) {
	for _, oc := range benchCkptOptions() {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s-fold%d-pipelined", oc.name, workers), func(b *testing.B) {
				pr := newBenchProc(b, workers, oc.stats, b.TempDir())
				before := pr.Checkpoints()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pr.ckpt.begin(true, pr.route)
					pr.ckpt.wait() // durable before the next iteration
				}
				b.StopTimer()
				ck := pr.Checkpoints()
				writes := ck.Writes - before.Writes
				if writes != b.N {
					b.Fatalf("%d writes for %d iterations", writes, b.N)
				}
				stall := ck.StallDuration - before.StallDuration
				b.ReportMetric(float64(stall.Nanoseconds())/float64(b.N), "stall-ns/op")
				b.SetBytes(ck.LastBytes)
			})
		}
	}
}
