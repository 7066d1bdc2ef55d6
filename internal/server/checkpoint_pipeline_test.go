package server

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"melissa/internal/checkpoint"
	"melissa/internal/core"
	"melissa/internal/enc"
	"melissa/internal/transport"
)

// runCheckpointedStudy folds groups sequentially (deterministic fold order)
// through a fresh server checkpointing into dir, and stops with a final
// checkpoint.
func runCheckpointedStudy(t *testing.T, dir string, procs, cells, timesteps, p int,
	groups []int, mutate func(*Config)) *Server {
	t.Helper()
	net := transport.NewMemNetwork(transport.Options{})
	design := testDesign(p, 16)
	s := startServer(t, net, procs, cells, timesteps, p, func(c *Config) {
		c.CheckpointInterval = time.Hour // periodic off; final checkpoint on Stop
		c.CheckpointDir = dir
		if mutate != nil {
			mutate(c)
		}
	})
	runGroupsSequential(t, net, s, design, cells, timesteps, 2, groups)
	s.Stop(true)
	return s
}

func readCheckpointFiles(t *testing.T, dir string, procs int) [][]byte {
	t.Helper()
	out := make([][]byte, procs)
	for rank := 0; rank < procs; rank++ {
		raw, err := os.ReadFile(checkpoint.Filename(dir, rank))
		if err != nil {
			t.Fatal(err)
		}
		out[rank] = raw
	}
	return out
}

// quiescedCheckpoint is the byte-identity reference for the checkpoint
// pipeline: the image of a stopped (hence quiesced) process encoded in one
// shot — partition header, the dense accumulator with its quantile sketches
// compacted, the tracker — through checkpoint.Write and Accumulator.Encode,
// i.e. through neither the snapshot copy nor the streaming section writer the
// server uses.
func quiescedCheckpoint(t *testing.T, p *Proc) []byte {
	t.Helper()
	dense := p.Accumulator().Dense()
	dense.CompactQuantiles()
	path := checkpoint.Filename(t.TempDir(), p.cfg.Rank)
	err := checkpoint.Write(path, func(w *enc.Writer) {
		w.Int(p.cfg.Partition.Lo)
		w.Int(p.cfg.Partition.Hi)
		w.I64(p.Messages())
		dense.Encode(w)
		p.route.tracker.Encode(w)
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestPipelinedCheckpointMatchesSync: the two-phase checkpoint pipeline must
// write files byte-identical to a quiesced one-shot encode of the same fold
// state — swept over every Options combination and FoldWorkers {1, 4}. This
// is the restart-compatibility contract: a checkpoint is a pure function of
// the fold state, independent of how it reached the disk.
func TestPipelinedCheckpointMatchesSync(t *testing.T) {
	const procs, cells, timesteps, p = 2, 30, 2, 2
	groups := []int{0, 1, 2}
	for ci, opts := range optionCombos() {
		for _, workers := range []int{1, 4} {
			opts, workers := opts, workers
			dir := t.TempDir()
			s := runCheckpointedStudy(t, dir, procs, cells, timesteps, p, groups, func(c *Config) {
				c.Stats = opts
				c.FoldWorkers = workers
			})

			got := readCheckpointFiles(t, dir, procs)
			for rank, pr := range s.Procs() {
				want := quiescedCheckpoint(t, pr)
				if !bytes.Equal(want, got[rank]) {
					t.Fatalf("combo %d fold%d rank %d: pipelined checkpoint differs from quiesced (%d vs %d bytes)",
						ci, workers, rank, len(got[rank]), len(want))
				}
			}
			// The pipelined write recorded its stall separately from (and no
			// larger than) the total.
			ck := s.Result().Checkpoints()
			if ck.Writes != procs {
				t.Fatalf("combo %d fold%d: %d pipelined writes, want %d", ci, workers, ck.Writes, procs)
			}
			if ck.StallDuration > ck.WriteDuration {
				t.Fatalf("combo %d fold%d: stall %v exceeds total %v", ci, workers, ck.StallDuration, ck.WriteDuration)
			}
			if ck.BytesWritten == 0 || ck.LastBytes == 0 {
				t.Fatalf("combo %d fold%d: checkpoint bytes not recorded: %+v", ci, workers, ck)
			}
		}
	}
}

// TestCheckpointCrashMidWriteRestoresPrevious: a background writer dying
// mid-file must leave the previous complete checkpoint as the restart point;
// the stale temp it abandons is swept on restore, and finishing the study
// from the restored state matches an uninterrupted run bitwise.
func TestCheckpointCrashMidWriteRestoresPrevious(t *testing.T) {
	const cells, timesteps, p, nGroups = 40, 3, 2, 5
	design := testDesign(p, nGroups)
	dir := t.TempDir()

	// Phase 1: fold groups 0-2 and write a good checkpoint.
	net1 := transport.NewMemNetwork(transport.Options{})
	s1 := startServer(t, net1, 1, cells, timesteps, p, func(c *Config) {
		c.FoldWorkers = 2
		c.CheckpointInterval = time.Hour
		c.CheckpointDir = dir
	})
	runGroupsSequential(t, net1, s1, design, cells, timesteps, 2, []int{0, 1, 2})
	s1.Stop(true)
	good, err := os.ReadFile(checkpoint.Filename(dir, 0))
	if err != nil {
		t.Fatal(err)
	}

	// Phase 2: restore, fold groups 3-4, and crash the writer mid-file on
	// the next (final) checkpoint — after at least one section has hit the
	// temp file, so a partial image really exists on disk.
	injected := errors.New("injected writer crash")
	checkpoint.SetWriteFault(func(written int64) error { return injected })
	defer checkpoint.SetWriteFault(nil)

	net2 := transport.NewMemNetwork(transport.Options{})
	s2, err := New(Config{
		Procs: 1, FoldWorkers: 2, Cells: cells, Timesteps: timesteps, P: p,
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
	runGroupsSequential(t, net2, s2, design, cells, timesteps, 2, []int{3, 4})
	s2.Stop(true) // final checkpoint write fails mid-file

	after, err := os.ReadFile(checkpoint.Filename(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(good, after) {
		t.Fatal("failed background write damaged the previous checkpoint")
	}

	// Phase 3: restore again (fault cleared): the previous checkpoint loads,
	// the stale temp is swept, and refolding groups 3-4 matches an
	// uninterrupted run of all five groups bitwise. An I/O failure aborts
	// cleanly (temp removed); a hard crash — the process dying between write
	// and cleanup — leaves the temp behind, which we model by planting one.
	checkpoint.SetWriteFault(nil)
	if err := os.WriteFile(filepath.Join(dir, ".ckpt-crashed"), []byte("partial image"), 0o644); err != nil {
		t.Fatal(err)
	}
	net3 := transport.NewMemNetwork(transport.Options{})
	s3, err := New(Config{
		Procs: 1, FoldWorkers: 2, Cells: cells, Timesteps: timesteps, P: p,
		Network: net3, CheckpointInterval: time.Hour, CheckpointDir: dir,
		ReportInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.Restore(); err != nil {
		t.Fatalf("restore after writer crash: %v", err)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".ckpt-") {
			t.Fatalf("stale temp %s survived restore", e.Name())
		}
	}
	s3.Start()
	runGroupsSequential(t, net3, s3, design, cells, timesteps, 2, []int{3, 4})
	s3.Stop(false)

	net4 := transport.NewMemNetwork(transport.Options{})
	s4 := startServer(t, net4, 1, cells, timesteps, p, func(c *Config) { c.FoldWorkers = 2 })
	runGroupsSequential(t, net4, s4, design, cells, timesteps, 2, []int{0, 1, 2, 3, 4})
	s4.Stop(false)
	compareResultsBitwise(t, "crash-restore", s4.Result(), s3.Result(), timesteps, p)
}

// TestCheckpointSkipWhileWriteInFlight: when checkpoint intervals fire
// faster than the background writer drains, the overflow interval is skipped
// and counted — never queued, and never a stall of the fold pipeline.
func TestCheckpointSkipWhileWriteInFlight(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	released := false
	checkpoint.SetWriteFault(func(written int64) error {
		<-gate // first write parks here until the test releases it
		return nil
	})
	defer checkpoint.SetWriteFault(nil)

	net := transport.NewMemNetwork(transport.Options{})
	s := startServer(t, net, 1, 12, 2, 1, func(c *Config) {
		c.CheckpointInterval = 20 * time.Millisecond
		c.CheckpointDir = dir
	})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ck := s.Procs()[0].Checkpoints(); ck.Skipped >= 1 {
			released = true
			close(gate)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !released {
		close(gate)
		t.Fatal("no checkpoint interval was skipped while the writer was blocked")
	}
	s.Stop(false)
	ck := s.Procs()[0].Checkpoints()
	if ck.Writes == 0 {
		t.Fatalf("writer never completed a checkpoint after release: %+v", ck)
	}
	if ck.Skipped == 0 {
		t.Fatalf("skip not recorded: %+v", ck)
	}
}

// TestPeriodicPipelinedCheckpointRestores: periodic checkpoints written
// concurrently with ingest must restore into a state that, refolding only
// the groups committed after the snapshot, cannot be told apart from the
// synchronous design — the file itself is complete, verified and loadable.
func TestPeriodicPipelinedCheckpointRestores(t *testing.T) {
	const cells, timesteps, p, nGroups = 24, 2, 2, 12
	dir := t.TempDir()
	net := transport.NewMemNetwork(transport.Options{})
	design := testDesign(p, nGroups)
	s := startServer(t, net, 2, cells, timesteps, p, func(c *Config) {
		c.FoldWorkers = 2
		c.CheckpointInterval = 10 * time.Millisecond
		c.CheckpointDir = dir
	})
	groups := make([]int, nGroups)
	for i := range groups {
		groups[i] = i
	}
	runGroups(t, net, s, design, cells, timesteps, 2, groups)
	waitFolds(t, s, int64(nGroups*timesteps*2), 10*time.Second)
	// Let a few periodic checkpoints land while idle too.
	time.Sleep(100 * time.Millisecond)
	s.Stop(false)
	ck := s.Result().Checkpoints()
	if ck.Writes < 2 {
		t.Fatalf("expected several periodic pipelined checkpoints, got %+v", ck)
	}
	if ck.StallDuration > ck.WriteDuration {
		t.Fatalf("stall %v exceeds total %v", ck.StallDuration, ck.WriteDuration)
	}

	// Every file on disk is a complete, CRC-verified checkpoint.
	for rank := 0; rank < 2; rank++ {
		if _, _, err := checkpoint.Read(checkpoint.Filename(dir, rank)); err != nil {
			t.Fatalf("periodic checkpoint %d unreadable: %v", rank, err)
		}
	}
	s2, err := New(Config{
		Procs: 2, Cells: cells, Timesteps: timesteps, P: p,
		Network:            transport.NewMemNetwork(transport.Options{}),
		CheckpointInterval: time.Hour, CheckpointDir: dir,
		ReportInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Restore(); err != nil {
		t.Fatalf("restore from periodic pipelined checkpoint: %v", err)
	}
}

// TestFinalCheckpointQuantilesCompacted: the per-shard snapshot task runs
// sketch compaction inside the shard worker, so a pipelined checkpoint
// carries compacted quantile state — decode one and verify its tuple count
// matches a compacted reference.
func TestFinalCheckpointQuantilesCompacted(t *testing.T) {
	const cells, timesteps, p = 20, 2, 2
	dir := t.TempDir()
	opts := core.Options{Quantiles: []float64{0.1, 0.5, 0.9}}
	s := runCheckpointedStudy(t, dir, 1, cells, timesteps, p, []int{0, 1, 2, 3}, func(c *Config) {
		c.Stats = opts
		c.FoldWorkers = 2
	})
	want := s.Procs()[0].Accumulator().QuantileTupleCount()

	r, version, err := checkpoint.Read(checkpoint.Filename(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	r.Int() // partition lo
	r.Int() // partition hi
	r.I64() // messages
	acc, err := core.DecodeAccumulatorVersion(r, version)
	if err != nil {
		t.Fatal(err)
	}
	if got := acc.QuantileTupleCount(); got != want {
		t.Fatalf("checkpoint carries %d quantile tuples, live compacted state has %d", got, want)
	}
}
