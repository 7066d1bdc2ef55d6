package server

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"melissa/internal/checkpoint"
	"melissa/internal/core"
	"melissa/internal/enc"
	"melissa/internal/mesh"
	"melissa/internal/transport"
)

var testProbes = []float64{0.05, 0.5, 0.95}

func quantileStats() core.Options {
	return core.Options{Quantiles: testProbes, QuantileEps: 0.02}
}

func compareQuantilesBitwise(t *testing.T, label string, a, b *Result, timesteps int) {
	t.Helper()
	for step := 0; step < timesteps; step++ {
		for _, q := range testProbes {
			fa, fb := a.QuantileField(step, q), b.QuantileField(step, q)
			for c := range fa {
				if fa[c] != fb[c] {
					t.Fatalf("%s: quantile %v (step %d, cell %d) = %v vs %v", label, q, step, c, fa[c], fb[c])
				}
			}
		}
	}
}

// TestQuantilesFoldWorkerInvariance is the acceptance criterion at the
// server level: per-cell quantile sketches are bitwise identical for any
// FoldWorkers setting, because each cell sees the exact same update
// sequence regardless of sharding.
func TestQuantilesFoldWorkerInvariance(t *testing.T) {
	const cells, timesteps, p, nGroups = 60, 3, 3, 12
	single := runStudyWith(t, cells, timesteps, p, nGroups, 2, 2,
		func(c *Config) { c.FoldWorkers = 1; c.Stats = quantileStats() }, nil)
	if got := single.QuantileProbes(); len(got) != len(testProbes) {
		t.Fatalf("probes not surfaced: %v", got)
	}
	for _, workers := range []int{2, 5} {
		sharded := runStudyWith(t, cells, timesteps, p, nGroups, 2, 2,
			func(c *Config) { c.FoldWorkers = workers; c.Stats = quantileStats() }, nil)
		compareResultsBitwise(t, "quantiles/fold-workers", single, sharded, timesteps, p)
		compareQuantilesBitwise(t, "quantiles/fold-workers", single, sharded, timesteps)
	}
	// The partitioning must be equally invisible: the assembled global
	// field only depends on the per-cell sample stream.
	threeProcs := runStudyWith(t, cells, timesteps, p, nGroups, 3, 2,
		func(c *Config) { c.FoldWorkers = 4; c.Stats = quantileStats() }, nil)
	compareQuantilesBitwise(t, "quantiles/procs", single, threeProcs, timesteps)
}

// TestQuantilesMatchDirectAccumulation compares the served quantile fields
// against a reference accumulator fed the same simulation outputs directly.
func TestQuantilesMatchDirectAccumulation(t *testing.T) {
	const cells, timesteps, p, nGroups = 24, 3, 2, 8
	res := runStudyWith(t, cells, timesteps, p, nGroups, 2, 2,
		func(c *Config) { c.Stats = quantileStats() }, nil)

	ref := core.NewAccumulator(cells, timesteps, p, quantileStats())
	design := testDesign(p, nGroups)
	sim := testSim(cells, timesteps)
	for g := 0; g < nGroups; g++ {
		rows := design.GroupRows(g)
		outs := make([][][]float64, len(rows))
		for si, row := range rows {
			outs[si] = make([][]float64, timesteps)
			sim.Run(row, func(step int, field []float64) bool {
				outs[si][step] = append([]float64(nil), field...)
				return true
			})
		}
		for step := 0; step < timesteps; step++ {
			yC := make([][]float64, p)
			for k := 0; k < p; k++ {
				yC[k] = outs[2+k][step]
			}
			ref.UpdateGroup(step, outs[0][step], outs[1][step], yC)
		}
	}
	for step := 0; step < timesteps; step++ {
		for _, q := range testProbes {
			got := res.QuantileField(step, q)
			want := ref.QuantileField(step, q, nil)
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("quantile %v (step %d, cell %d) = %v, reference %v", q, step, c, got[c], want[c])
				}
			}
		}
	}
}

// writeCheckpointFile writes process 0's checkpoint with the given format
// version in its header: the partition and message count, then whatever
// accumulator and tracker blocks fill appends.
func writeCheckpointFile(t *testing.T, dir string, version int, part mesh.Partition, fill func(w *enc.Writer)) {
	t.Helper()
	sw, err := checkpoint.NewStreamWriter(checkpoint.Filename(dir, 0), version)
	if err != nil {
		t.Fatal(err)
	}
	err = sw.Section(func(w *enc.Writer) {
		w.Int(part.Lo)
		w.Int(part.Hi)
		w.I64(7) // messages
		fill(w)
	})
	if err == nil {
		err = sw.Commit()
	}
	if err != nil {
		sw.Abort()
		t.Fatal(err)
	}
}

// TestRestoreV1Checkpoint: a checkpoint written by a pre-quantile build
// (file version 1, no sketch state) restores cleanly into the current
// server — even one configured with quantiles — and keeps serving. No build
// writes v1 any more, so the file is fabricated from the golden v1
// accumulator payload (13 cells, 3 timesteps, p = 4) and a hand-encoded
// legacy tracker block.
func TestRestoreV1Checkpoint(t *testing.T) {
	const cells, timesteps, p, priorGroups = 13, 3, 4, 9
	dir := t.TempDir()

	raw, err := os.ReadFile(filepath.Join("..", "core", "testdata", "accumulator_v1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	writeCheckpointFile(t, dir, checkpoint.V1, mesh.Partition{Lo: 0, Hi: cells}, func(w *enc.Writer) {
		// The accumulator payload, past the fixture's own file header, then
		// the legacy tracker: final step, count, one (id, last) pair.
		w.Raw(raw[16:])
		for _, v := range []int{timesteps - 1, 1, 3, timesteps - 1} {
			w.Int(v)
		}
	})

	net := transport.NewMemNetwork(transport.Options{})
	s, err := New(Config{
		Procs: 1, Cells: cells, Timesteps: timesteps, P: p,
		Network: net, CheckpointDir: dir, CheckpointInterval: time.Hour,
		Stats: quantileStats(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(); err != nil {
		t.Fatalf("v1 restore: %v", err)
	}
	proc := s.Procs()[0]
	if got := proc.Accumulator().QuantileProbes(); got != nil {
		t.Fatalf("v1 restore resurrected quantile probes %v", got)
	}
	if fin := finishedIDs(proc.route.tracker); len(fin) != 1 || fin[0] != 3 {
		t.Fatalf("tracker not restored: %v", fin)
	}
	// The restored server still folds incoming groups.
	s.Start()
	design := testDesign(p, 1)
	runGroups(t, net, s, design, cells, timesteps, 1, []int{0})
	waitFolds(t, s, timesteps, 5*time.Second)
	s.Stop(false)
	res := s.Result()
	if got := res.GroupsFolded(0); got != priorGroups+1 {
		t.Fatalf("restored server holds %d groups at step 0, want the fixture's %d plus 1", got, priorGroups)
	}
	// The result must agree with the restored state, not the configuration:
	// no probes, so consumers never iterate over all-zero quantile maps.
	if got := res.QuantileProbes(); got != nil {
		t.Fatalf("result reports probes %v after a v1 restore", got)
	}
}

// TestRestoreV2CheckpointKeepsQuantiles: a current-format checkpoint
// restores the sketch state bit-exactly across FoldWorkers settings.
func TestRestoreV2CheckpointKeepsQuantiles(t *testing.T) {
	const cells, timesteps, p, nGroups = 30, 2, 2, 6
	dir := t.TempDir()

	// Run a study with checkpointing enabled and a final checkpoint on stop.
	net := transport.NewMemNetwork(transport.Options{})
	s := startServer(t, net, 1, cells, timesteps, p, func(c *Config) {
		c.Stats = quantileStats()
		c.CheckpointDir = dir
		c.CheckpointInterval = time.Hour
	})
	design := testDesign(p, nGroups)
	runGroups(t, net, s, design, cells, timesteps, 1, []int{0, 1, 2, 3, 4, 5})
	waitFolds(t, s, int64(nGroups*timesteps), 10*time.Second)
	s.Stop(true)
	want := s.Result()

	for _, workers := range []int{1, 3} {
		restored, err := New(Config{
			Procs: 1, FoldWorkers: workers, Cells: cells, Timesteps: timesteps, P: p,
			Network: transport.NewMemNetwork(transport.Options{}),
			Stats:   quantileStats(), CheckpointDir: dir, CheckpointInterval: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.Restore(); err != nil {
			t.Fatalf("v2 restore (workers=%d): %v", workers, err)
		}
		got := restored.Result()
		compareQuantilesBitwise(t, "v2-restore", want, got, timesteps)
	}
}

// TestRestoreUnknownVersionFails: a checkpoint from a future build is a
// clean restore error, not a misdecode.
func TestRestoreUnknownVersionFails(t *testing.T) {
	const cells, timesteps, p = 8, 2, 2
	dir := t.TempDir()
	writeCheckpointFile(t, dir, checkpoint.Version, mesh.Partition{Lo: 0, Hi: cells}, func(w *enc.Writer) {
		core.NewAccumulator(cells, timesteps, p, core.Options{}).Encode(w)
		core.NewGroupTracker(timesteps - 1).Encode(w)
	})
	// Bump the stored header version beyond what this build reads.
	path := checkpoint.Filename(dir, 0)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[4] = checkpoint.ManifestVersion + 1
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{
		Procs: 1, Cells: cells, Timesteps: timesteps, P: p,
		Network:       transport.NewMemNetwork(transport.Options{}),
		CheckpointDir: dir, CheckpointInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = s.Restore()
	if err == nil {
		t.Fatal("future-version checkpoint restored")
	}
	if !strings.Contains(err.Error(), "unsupported version") {
		t.Fatalf("unhelpful error: %v", err)
	}
}
