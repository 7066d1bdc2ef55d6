package server

import (
	"math"
	"testing"
	"time"

	"melissa/internal/client"
	"melissa/internal/core"
	"melissa/internal/transport"
)

// runStudyWith feeds the given groups sequentially through a fresh server
// configured by mutate, and returns the assembled result.
func runStudyWith(t *testing.T, cells, timesteps, p, nGroups, procs, simRanks int,
	mutate func(*Config), rcMutate func(*client.RunConfig)) *Result {
	t.Helper()
	net := transport.NewMemNetwork(transport.Options{})
	design := testDesign(p, nGroups)
	sim := testSim(cells, timesteps)
	s := startServer(t, net, procs, cells, timesteps, p, mutate)
	folded := int64(0)
	for g := 0; g < nGroups; g++ {
		rc := client.RunConfig{
			ConnectOpts: client.ConnectOpts{GroupID: g, SimRanks: simRanks},
			Rows:        design.GroupRows(g),
			Sim:         sim,
		}
		if rcMutate != nil {
			rcMutate(&rc)
		}
		if err := client.RunGroup(net, s.MainAddr(), rc); err != nil {
			t.Fatalf("group %d failed: %v", g, err)
		}
		folded += int64(timesteps * len(s.procs))
		waitFolds(t, s, folded, 10*time.Second)
	}
	s.Stop(false)
	return s.Result()
}

func compareResultsBitwise(t *testing.T, label string, a, b *Result, timesteps, p int) {
	t.Helper()
	for step := 0; step < timesteps; step++ {
		if a.GroupsFolded(step) != b.GroupsFolded(step) {
			t.Fatalf("%s: step %d folded %d vs %d", label, step, a.GroupsFolded(step), b.GroupsFolded(step))
		}
		for k := 0; k < p; k++ {
			fa, fb := a.FirstField(step, k), b.FirstField(step, k)
			ta, tb := a.TotalField(step, k), b.TotalField(step, k)
			for c := range fa {
				if fa[c] != fb[c] {
					t.Fatalf("%s: S%d(step %d, cell %d) = %v vs %v", label, k, step, c, fa[c], fb[c])
				}
				if ta[c] != tb[c] {
					t.Fatalf("%s: ST%d(step %d, cell %d) = %v vs %v", label, k, step, c, ta[c], tb[c])
				}
			}
		}
	}
}

// TestFoldWorkersMatchSingleThreaded: the sharded worker-pool fold must be
// bitwise identical to the single-threaded fold on the same ordered message
// stream — the server-level half of the equivalence guarantee.
func TestFoldWorkersMatchSingleThreaded(t *testing.T) {
	const cells, timesteps, p, nGroups = 60, 4, 3, 10
	single := runStudyWith(t, cells, timesteps, p, nGroups, 2, 2,
		func(c *Config) { c.FoldWorkers = 1 }, nil)
	for _, workers := range []int{2, 4, 7} {
		sharded := runStudyWith(t, cells, timesteps, p, nGroups, 2, 2,
			func(c *Config) { c.FoldWorkers = workers }, nil)
		compareResultsBitwise(t, "fold-workers", single, sharded, timesteps, p)
	}
}

// TestFoldWorkersResolved checks the worker-count resolution and clamping.
func TestFoldWorkersResolved(t *testing.T) {
	net := transport.NewMemNetwork(transport.Options{})
	s := startServer(t, net, 2, 6, 2, 1, func(c *Config) { c.FoldWorkers = 64 })
	defer s.Stop(false)
	for _, pr := range s.Procs() {
		// 6 cells over 2 procs = 3 cells per partition: at most 3 shards.
		if got := pr.FoldWorkers(); got != 3 {
			t.Fatalf("proc %d resolved %d fold workers, want 3", pr.cfg.Rank, got)
		}
	}
}

// TestFoldWorkersConcurrentHammer drives many concurrent groups through a
// wide worker pool and checks the statistics against direct accumulation —
// the -race stress test for the inbox/worker/assembly-pool machinery.
func TestFoldWorkersConcurrentHammer(t *testing.T) {
	net := transport.NewMemNetwork(transport.Options{})
	const cells, timesteps, p, nGroups = 48, 5, 3, 24
	const procs, simRanks = 2, 3
	design := testDesign(p, nGroups)

	s := startServer(t, net, procs, cells, timesteps, p, func(c *Config) {
		c.FoldWorkers = 4
	})
	groups := make([]int, nGroups)
	for i := range groups {
		groups[i] = i
	}
	runGroups(t, net, s, design, cells, timesteps, simRanks, groups)
	waitFolds(t, s, int64(nGroups*timesteps*procs), 10*time.Second)
	s.Stop(false)
	res := s.Result()

	ref := core.NewAccumulator(cells, timesteps, p, core.Options{})
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
				yC[k] = outs[k+2][step]
			}
			ref.UpdateGroup(step, outs[0][step], outs[1][step], yC)
		}
	}
	for step := 0; step < timesteps; step++ {
		for k := 0; k < p; k++ {
			got := res.FirstField(step, k)
			for c := 0; c < cells; c++ {
				if d := math.Abs(got[c] - ref.FirstAt(step, k, c)); d > 1e-9 {
					t.Fatalf("S%d(step %d, cell %d) off by %v", k, step, c, d)
				}
			}
		}
	}
}

// TestBatchedStepsMatchUnbatched: clients shipping DataBatch messages must
// produce bitwise-identical statistics and strictly fewer wire messages.
// BatchSteps deliberately does not divide timesteps, exercising the partial
// final flush.
func TestBatchedStepsMatchUnbatched(t *testing.T) {
	const cells, timesteps, p, nGroups = 60, 5, 3, 8
	plain := runStudyWith(t, cells, timesteps, p, nGroups, 2, 2, nil, nil)
	batched := runStudyWith(t, cells, timesteps, p, nGroups, 2, 2, nil,
		func(rc *client.RunConfig) { rc.BatchSteps = 3 })
	compareResultsBitwise(t, "batched", plain, batched, timesteps, p)
	if plain.Messages() <= batched.Messages() {
		t.Fatalf("batching did not reduce messages: %d vs %d", plain.Messages(), batched.Messages())
	}
	// 5 steps at BatchSteps=3 → 2 batches per (rank, server) pair vs 5
	// plain messages.
	if want := plain.Messages() * 2 / 5; batched.Messages() != want {
		t.Fatalf("batched messages = %d, want %d", batched.Messages(), want)
	}
}

// TestCheckpointAcrossFoldWorkers: a checkpoint written by a sharded server
// must restore into a server with a different FoldWorkers setting (the
// checkpoint format is the dense layout), and finishing the study there
// must match an uninterrupted single-threaded run bitwise.
func TestCheckpointAcrossFoldWorkers(t *testing.T) {
	const cells, timesteps, p, nGroups = 40, 3, 2, 8
	design := testDesign(p, nGroups)
	dir := t.TempDir()

	net1 := transport.NewMemNetwork(transport.Options{})
	s1 := startServer(t, net1, 2, cells, timesteps, p, func(c *Config) {
		c.FoldWorkers = 3
		c.CheckpointInterval = time.Hour
		c.CheckpointDir = dir
	})
	runGroupsSequential(t, net1, s1, design, cells, timesteps, 2, []int{0, 1, 2, 3})
	s1.Stop(true)

	net2 := transport.NewMemNetwork(transport.Options{})
	s2, err := New(Config{
		Procs: 2, FoldWorkers: 1, Cells: cells, Timesteps: timesteps, P: p,
		Network: net2, CheckpointInterval: time.Hour, CheckpointDir: dir,
		ReportInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Restore(); err != nil {
		t.Fatal(err)
	}
	s2.Start()
	runGroupsSequential(t, net2, s2, design, cells, timesteps, 2, []int{4, 5, 6, 7})
	s2.Stop(false)

	reference := runStudyWith(t, cells, timesteps, p, nGroups, 2, 2,
		func(c *Config) { c.FoldWorkers = 1 }, nil)
	compareResultsBitwise(t, "ckpt-across-workers", reference, s2.Result(), timesteps, p)
}
