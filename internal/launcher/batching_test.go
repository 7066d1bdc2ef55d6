package launcher

import (
	"testing"
	"time"
)

// TestLauncherBatchedStudyMatchesUnbatched: a whole study run with static
// BatchSteps must produce bitwise-identical statistics to the unbatched
// study — batching shapes the wire traffic, never the results. MaxInFlight =
// 1 serializes the groups so the fold order (and thus round-off) is
// deterministic across both runs. The batched run must also stretch the
// server's group timeout by the batch factor.
func TestLauncherBatchedStudyMatchesUnbatched(t *testing.T) {
	const nGroups = 5
	const groupTimeout = 2 * time.Second
	results := make(map[int][][]float64)
	for _, batch := range []int{1, 4} {
		cfg := baseConfig(t, nGroups)
		cfg.MaxInFlight = 1
		cfg.BatchSteps = batch
		cfg.GroupTimeout = groupTimeout
		l, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, stats, err := l.Run()
		if err != nil {
			t.Fatal(err)
		}
		if stats.GroupsFinished != nGroups {
			t.Fatalf("batch %d: %d groups finished, want %d", batch, stats.GroupsFinished, nGroups)
		}
		if want := time.Duration(batch) * groupTimeout; l.groupTimeout != want {
			t.Fatalf("batch %d: server group timeout %v, want %v", batch, l.groupTimeout, want)
		}
		var fields [][]float64
		for step := 0; step < cfg.Timesteps; step++ {
			for k := 0; k < cfg.Design.P(); k++ {
				fields = append(fields, res.FirstField(step, k), res.TotalField(step, k))
			}
		}
		results[batch] = fields
	}
	for i, a := range results[1] {
		b := results[4][i]
		for c := range a {
			if a[c] != b[c] {
				t.Fatalf("batching changed field %d cell %d: %v vs %v", i, c, a[c], b[c])
			}
		}
	}
}
