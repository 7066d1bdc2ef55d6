package launcher

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"melissa/internal/checkpoint"
	"melissa/internal/client"
	"melissa/internal/faults"
	"melissa/internal/sampling"
	"melissa/internal/server"
)

// TestCompletedStudyWritesNoCheckpoint: a completed study is never restored,
// so with no checkpoint interval elapsing during it no checkpoint is written.
func TestCompletedStudyWritesNoCheckpoint(t *testing.T) {
	cfg := baseConfig(t, 4)
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointInterval = time.Hour
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.GroupsFinished != 4 {
		t.Fatalf("%d groups finished, want 4", stats.GroupsFinished)
	}
	if w := res.Checkpoints().Writes; w != 0 {
		t.Fatalf("a completed study wrote %d checkpoints", w)
	}
}

// TestFreshRunClearsStaleCheckpoint: a study owns its checkpoint directory. A
// server crash in study B must restart from B's own (here: no) checkpoint,
// not from the one study A left in the same directory — restoring A's
// trackers would discard B's data as replays and report A's statistics. A's
// manifest goes, and with it its segments and an orphaned one.
func TestFreshRunClearsStaleCheckpoint(t *testing.T) {
	dir := t.TempDir()
	slow := func(cfg Config) client.SimFunc {
		return func(row []float64, emit func(step int, field []float64) bool) {
			quadSim(cfg.Cells, cfg.Timesteps)(row, func(step int, field []float64) bool {
				time.Sleep(20 * time.Millisecond)
				return emit(step, field)
			})
		}
	}
	run := func(cfg Config) *server.Result {
		t.Helper()
		l, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := l.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Study A leaves its periodic checkpoints behind.
	a := baseConfig(t, 8)
	a.CheckpointDir, a.CheckpointInterval = dir, 10*time.Millisecond
	a.Sim = slow(a)
	run(a)
	if !checkpoint.Exists(checkpoint.Filename(dir, 0)) {
		t.Fatal("study A left no checkpoint to be stale")
	}
	// A's manifest names its segments; a crash between a segment's fsync
	// and its manifest's rename would leave one more nobody names.
	segs, _ := filepath.Glob(filepath.Join(dir, "melissa-server-*.seg-*"))
	if len(segs) == 0 {
		t.Fatal("study A's checkpoint has no segments")
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "melissa-server-0000.seg-999"), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	studyB := func() Config {
		cfg := baseConfig(t, 8)
		cfg.Design = sampling.NewDesign([]sampling.Distribution{
			sampling.Uniform{Low: -1, High: 1},
			sampling.Uniform{Low: -1, High: 1},
		}, 8, 7)
		return cfg
	}
	clean := run(studyB())

	b := studyB()
	b.CheckpointDir, b.CheckpointInterval = dir, time.Hour
	b.HeartbeatTimeout = 100 * time.Millisecond
	b.Faults = faults.NewPlan().WithServerCrash(30 * time.Millisecond)
	b.Sim = slow(b)
	crashed := run(b)

	for step := 0; step < b.Timesteps; step++ {
		for k := 0; k < b.Design.P(); k++ {
			want, got := clean.FirstField(step, k), crashed.FirstField(step, k)
			for c := range want {
				if math.Abs(want[c]-got[c]) > 1e-9 {
					t.Fatalf("step %d S_%d cell %d: %v after the crash, %v in a clean run", step, k, c, got[c], want[c])
				}
			}
		}
	}
	if _, err := os.Stat(checkpoint.Filename(dir, 0)); err == nil {
		t.Fatal("study B, which never checkpointed, left a checkpoint file")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "melissa-server-*.seg-*")); len(left) > 0 {
		t.Fatalf("study A's segments survived study B: %v", left)
	}
}
