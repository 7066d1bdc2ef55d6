package server

import (
	"errors"
	"testing"
	"time"

	"melissa/internal/checkpoint"
	"melissa/internal/core"
	"melissa/internal/transport"
	"melissa/internal/wire"
)

// TestDurableFrontierCrashMidCheckpoint pins the two-phase publication rule:
// the durable frontier advances only after a checkpoint's phase-2 Commit
// (fsync + rename) succeeds. A writer crashing mid-file must leave the
// frontier — live and restored — at the previous complete checkpoint, never
// at the snapshot that failed to reach the disk.
func TestDurableFrontierCrashMidCheckpoint(t *testing.T) {
	const cells, timesteps, p, nGroups = 24, 3, 2, 5
	design := testDesign(p, nGroups)
	dir := t.TempDir()

	// Phase 1: fold groups 0-2 and commit a good checkpoint on Stop.
	net1 := transport.NewMemNetwork(transport.Options{})
	s1 := startServer(t, net1, 1, cells, timesteps, p, func(c *Config) {
		c.CheckpointInterval = time.Hour
		c.CheckpointDir = dir
	})
	proc1 := s1.Procs()[0]
	if got := proc1.ckpt.durableStep(0); got != -1 {
		t.Fatalf("group 0 durable at %d before any checkpoint", got)
	}
	runGroupsSequential(t, net1, s1, design, cells, timesteps, 2, []int{0, 1, 2})
	s1.Stop(true)
	for g := 0; g < 3; g++ {
		if got := proc1.ckpt.durableStep(g); got != timesteps-1 {
			t.Fatalf("group %d durable at %d after commit, want %d", g, got, timesteps-1)
		}
	}

	// Phase 2: restore, fold groups 3-4, and crash the writer mid-file on the
	// final checkpoint. The frontier must stay exactly where the restored
	// checkpoint put it: groups 0-2 durable, groups 3-4 folded but not.
	injected := errors.New("injected writer crash")
	checkpoint.SetWriteFault(func(written int64) error { return injected })
	defer checkpoint.SetWriteFault(nil)

	net2 := transport.NewMemNetwork(transport.Options{})
	s2, err := New(Config{
		Procs: 1, Cells: cells, Timesteps: timesteps, P: p,
		Network: net2, CheckpointInterval: time.Hour, CheckpointDir: dir,
		ReportInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Restore(); err != nil {
		t.Fatal(err)
	}
	proc2 := s2.Procs()[0]
	// Restore republishes the checkpointed frontier before any new folds.
	for g := 0; g < 3; g++ {
		if got := proc2.ckpt.durableStep(g); got != timesteps-1 {
			t.Fatalf("restored group %d durable at %d, want %d", g, got, timesteps-1)
		}
	}
	s2.Start()
	runGroupsSequential(t, net2, s2, design, cells, timesteps, 2, []int{3, 4})
	s2.Stop(true) // final checkpoint write fails mid-file

	if got := proc2.ckpt.durableStep(3); got != -1 {
		t.Fatalf("failed checkpoint advanced group 3's durable frontier to %d", got)
	}
	if got := proc2.ckpt.durableStep(0); got != timesteps-1 {
		t.Fatalf("failed checkpoint rolled group 0's durable frontier to %d", got)
	}

	// Phase 3: restore again with the fault cleared — the durable frontier is
	// the previous complete checkpoint, and the groups whose folds were lost
	// read as not durable so their clients resend from the top.
	checkpoint.SetWriteFault(nil)
	s3, err := New(Config{
		Procs: 1, Cells: cells, Timesteps: timesteps, P: p,
		Network:            transport.NewMemNetwork(transport.Options{}),
		CheckpointInterval: time.Hour, CheckpointDir: dir,
		ReportInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.Restore(); err != nil {
		t.Fatalf("restore after writer crash: %v", err)
	}
	proc3 := s3.Procs()[0]
	for g := 0; g < 3; g++ {
		if got := proc3.ckpt.durableStep(g); got != timesteps-1 {
			t.Fatalf("after crash, group %d durable at %d, want %d", g, got, timesteps-1)
		}
	}
	for g := 3; g < 5; g++ {
		if got := proc3.ckpt.durableStep(g); got != -1 {
			t.Fatalf("after crash, group %d durable at %d, want -1", g, got)
		}
	}
}

// TestMidStreamRestoreBitwise pins the recovery contract at the server layer:
// a server killed mid-study (no final checkpoint) and restored from periodic
// pipelined checkpoints, then fed the remaining groups, produces statistics
// bitwise identical to an uninterrupted run — including every optional
// tracker (min/max, exceedance, skewness/kurtosis) and the quantile sketches,
// whose serialization is the most state-heavy part of a snapshot.
func TestMidStreamRestoreBitwise(t *testing.T) {
	const cells, timesteps, p, nGroups = 16, 6, 2, 6
	design := testDesign(p, nGroups)
	dir := t.TempDir()
	threshold := 0.2
	opts := core.Options{MinMax: true, Threshold: &threshold, HigherMoments: true, Quantiles: []float64{0.25, 0.75}}

	net1 := transport.NewMemNetwork(transport.Options{})
	s1 := startServer(t, net1, 2, cells, timesteps, p, func(c *Config) {
		c.CheckpointInterval = 5 * time.Millisecond
		c.CheckpointDir = dir
		c.Stats = opts
	})
	runGroupsSequential(t, net1, s1, design, cells, timesteps, 2, []int{0, 1, 2})
	// Wait until every proc's durable frontier covers groups 0-2 fully, so the
	// kill below cannot cost folds (this test pins restore fidelity, not the
	// client resend path).
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok := true
		for _, pr := range s1.Procs() {
			for g := 0; g < 3; g++ {
				if pr.ckpt.durableStep(g) != timesteps-1 {
					ok = false
				}
			}
		}
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("durable frontier never covered groups 0-2")
		}
		time.Sleep(2 * time.Millisecond)
	}
	s1.Stop(false) // crash: no final checkpoint

	net2 := transport.NewMemNetwork(transport.Options{})
	s2, err := New(Config{
		Procs: 2, Cells: cells, Timesteps: timesteps, P: p,
		Network: net2, CheckpointInterval: 5 * time.Millisecond, CheckpointDir: dir,
		ReportInterval: 50 * time.Millisecond, Stats: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Restore(); err != nil {
		t.Fatal(err)
	}
	s2.Start()
	runGroupsSequential(t, net2, s2, design, cells, timesteps, 2, []int{3, 4, 5})
	s2.Stop(false)
	restored := s2.Result()

	net3 := transport.NewMemNetwork(transport.Options{})
	s3 := startServer(t, net3, 2, cells, timesteps, p, func(c *Config) { c.Stats = opts })
	runGroupsSequential(t, net3, s3, design, cells, timesteps, 2, []int{0, 1, 2, 3, 4, 5})
	s3.Stop(false)
	reference := s3.Result()

	for step := 0; step < timesteps; step++ {
		for k := 0; k < p; k++ {
			a, b := reference.FirstField(step, k), restored.FirstField(step, k)
			for c := range a {
				if a[c] != b[c] {
					t.Fatalf("S%d differs at (t=%d, cell=%d): %v vs %v", k, step, c, a[c], b[c])
				}
			}
		}
		for name, get := range map[string]func(*Result, int) []float64{
			"variance": (*Result).VarianceField, "min": (*Result).MinField, "max": (*Result).MaxField,
			"exceedance": (*Result).ExceedanceField, "skewness": (*Result).SkewnessField, "kurtosis": (*Result).KurtosisField,
		} {
			av, bv := get(reference, step), get(restored, step)
			if len(av) != cells || len(bv) != cells {
				t.Fatalf("%s field has %d/%d cells at t=%d, want %d", name, len(av), len(bv), step, cells)
			}
			for c := range av {
				if av[c] != bv[c] {
					t.Fatalf("%s differs at (t=%d, cell=%d): %v vs %v", name, step, c, av[c], bv[c])
				}
			}
		}
		for _, q := range []float64{0.25, 0.75} {
			aq, bq := reference.QuantileField(step, q), restored.QuantileField(step, q)
			for c := range aq {
				if aq[c] != bq[c] {
					t.Fatalf("q%.2f differs at (t=%d, cell=%d): %v vs %v", q, step, c, aq[c], bq[c])
				}
			}
		}
	}
}

// TestDurableStepWithoutCheckpointing pins the no-durability sentinel: a
// server without a checkpoint directory answers every durable query with
// wire.NoDurability so clients fall back to drop-on-fold-ack retention.
func TestDurableStepWithoutCheckpointing(t *testing.T) {
	net := transport.NewMemNetwork(transport.Options{})
	s := startServer(t, net, 1, 8, 2, 1, nil)
	defer s.Stop(false)
	if got := s.Procs()[0].ckpt.durableStep(0); got != wire.NoDurability {
		t.Fatalf("durableStep without checkpointing = %d, want %d", got, wire.NoDurability)
	}
}
