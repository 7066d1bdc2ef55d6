package launcher

import (
	"testing"
	"time"

	"melissa/internal/wire"
)

// TestLauncherFeedsBatchController: server reports must drive the study-wide
// adaptive-batching controller — congested reports grow the effective batch
// size handed to group connections, clear reports decay it.
func TestLauncherFeedsBatchController(t *testing.T) {
	cfg := baseConfig(t, 2)
	cfg.MaxBatchSteps = 6
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if l.batchCtl == nil {
		t.Fatal("MaxBatchSteps > 1 did not arm the batch controller")
	}
	for i := 0; i < 6; i++ {
		l.applyReport(&wire.Report{ProcRank: 0, Backpressure: 1}, time.Now())
	}
	if got := l.batchCtl.Steps(cfg.MaxBatchSteps); got != cfg.MaxBatchSteps {
		t.Fatalf("congested reports grew batch to %d, want %d", got, cfg.MaxBatchSteps)
	}
	for i := 0; i < 8; i++ {
		l.applyReport(&wire.Report{ProcRank: 0, Backpressure: 0}, time.Now())
	}
	if got := l.batchCtl.Steps(cfg.MaxBatchSteps); got != 1 {
		t.Fatalf("clear reports decayed batch to %d, want 1", got)
	}

	// Without the knob no controller exists and reports must not panic.
	cfg = baseConfig(t, 2)
	l2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if l2.batchCtl != nil {
		t.Fatal("controller armed without MaxBatchSteps")
	}
	l2.applyReport(&wire.Report{ProcRank: 0, Backpressure: 1}, time.Now())
}

// TestLauncherAdaptiveStudyMatchesStatic: a whole study run with adaptive
// batching must produce bitwise-identical statistics to the plain study —
// batching shapes the wire traffic, never the results. MaxInFlight = 1
// serializes the groups so the fold order (and thus round-off) is
// deterministic across both runs.
func TestLauncherAdaptiveStudyMatchesStatic(t *testing.T) {
	const nGroups = 5
	results := make(map[int][][]float64)
	for _, maxBatch := range []int{0, 4} {
		cfg := baseConfig(t, nGroups)
		cfg.MaxInFlight = 1
		cfg.MaxBatchSteps = maxBatch
		l, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, stats, err := l.Run()
		if err != nil {
			t.Fatal(err)
		}
		if stats.GroupsFinished != nGroups {
			t.Fatalf("maxBatch %d: %d groups finished, want %d", maxBatch, stats.GroupsFinished, nGroups)
		}
		var fields [][]float64
		for step := 0; step < cfg.Timesteps; step++ {
			for k := 0; k < cfg.Design.P(); k++ {
				fields = append(fields, res.FirstField(step, k), res.TotalField(step, k))
			}
		}
		results[maxBatch] = fields
	}
	for i, a := range results[0] {
		b := results[4][i]
		for c := range a {
			if a[c] != b[c] {
				t.Fatalf("adaptive batching changed field %d cell %d: %v vs %v", i, c, a[c], b[c])
			}
		}
	}
}
