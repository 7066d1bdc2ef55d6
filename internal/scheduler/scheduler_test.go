package scheduler

import (
	"testing"
	"time"
)

var t0 = time.Date(2017, 11, 12, 9, 0, 0, 0, time.UTC)

func at(d time.Duration) time.Time { return t0.Add(d) }

func TestSubmitAndStart(t *testing.T) {
	c := New(10)
	j1, err := c.Submit("server", 4, 0, at(0))
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := c.Submit("group-0", 4, 0, at(0))
	j3, _ := c.Submit("group-1", 4, 0, at(0))

	started, killed := c.Tick(at(time.Second))
	if len(killed) != 0 {
		t.Fatalf("killed %v", killed)
	}
	if len(started) != 2 || started[0].ID != j1.ID || started[1].ID != j2.ID {
		t.Fatalf("started %v", started)
	}
	if j3.State != Pending || c.UsedNodes() != 8 || c.QueueLen() != 1 {
		t.Fatalf("state: used=%d queue=%d", c.UsedNodes(), c.QueueLen())
	}

	// Completing a job frees nodes; next tick starts the queued one.
	if err := c.Complete(j1.ID, at(2*time.Second)); err != nil {
		t.Fatal(err)
	}
	started, _ = c.Tick(at(3 * time.Second))
	if len(started) != 1 || started[0].ID != j3.ID {
		t.Fatalf("started %v", started)
	}
	if c.PeakUsedNodes() != 8 {
		t.Fatalf("peak %d", c.PeakUsedNodes())
	}
}

func TestRejectsOversizedAndInvalidJobs(t *testing.T) {
	c := New(5)
	if _, err := c.Submit("too-big", 6, 0, at(0)); err == nil {
		t.Fatal("oversized job accepted")
	}
	if _, err := c.Submit("zero", 0, 0, at(0)); err == nil {
		t.Fatal("zero-node job accepted")
	}
}

func TestBackfillAllowsSmallJobsPast(t *testing.T) {
	c := New(10)
	c.Submit("big", 8, 0, at(0))
	c.Tick(at(0)) // big runs; 2 nodes free
	c.Submit("blocked", 6, 0, at(0))
	small, _ := c.Submit("small", 2, 0, at(0))

	started, _ := c.Tick(at(time.Second))
	if len(started) != 1 || started[0].ID != small.ID {
		t.Fatalf("backfill failed: started %v", started)
	}
}

func TestWalltimeKill(t *testing.T) {
	c := New(4)
	j, _ := c.Submit("g", 4, 10*time.Second, at(0))
	c.Tick(at(0))
	_, killed := c.Tick(at(5 * time.Second))
	if len(killed) != 0 {
		t.Fatal("killed before walltime")
	}
	_, killed = c.Tick(at(10 * time.Second))
	if len(killed) != 1 || killed[0].ID != j.ID || j.State != Killed {
		t.Fatalf("walltime kill failed: %v (state %v)", killed, j.State)
	}
	if c.UsedNodes() != 0 {
		t.Fatalf("nodes not released: %d", c.UsedNodes())
	}
	// Freed nodes are reusable in the same tick sequence.
	c.Submit("next", 4, 0, at(11*time.Second))
	started, _ := c.Tick(at(11 * time.Second))
	if len(started) != 1 {
		t.Fatal("freed nodes not reusable")
	}
}

func TestCancelPendingAndRunning(t *testing.T) {
	c := New(4)
	run, _ := c.Submit("run", 2, 0, at(0))
	c.Tick(at(0))
	pend, _ := c.Submit("pend", 4, 0, at(0))

	if err := c.Cancel(pend.ID, at(time.Second)); err != nil {
		t.Fatal(err)
	}
	if pend.State != Killed || c.QueueLen() != 0 {
		t.Fatalf("pending cancel failed: %v", pend.State)
	}
	if err := c.Cancel(run.ID, at(time.Second)); err != nil {
		t.Fatal(err)
	}
	if run.State != Killed || c.UsedNodes() != 0 {
		t.Fatalf("running cancel failed")
	}
	if err := c.Cancel(run.ID, at(time.Second)); err == nil {
		t.Fatal("double cancel accepted")
	}
	if err := c.Cancel(999, at(time.Second)); err == nil {
		t.Fatal("cancel of unknown job accepted")
	}
}

func TestFailAndAccounting(t *testing.T) {
	c := New(8)
	j, _ := c.Submit("g", 4, 0, at(0))
	c.Tick(at(0))
	if err := c.Fail(j.ID, at(30*time.Second)); err != nil {
		t.Fatal(err)
	}
	if j.State != Failed {
		t.Fatalf("state %v", j.State)
	}
	if got, want := j.EndTime.Sub(j.StartTime), 30*time.Second; got != want {
		t.Fatalf("ran %v, want %v", got, want)
	}
	if err := c.Complete(j.ID, at(time.Minute)); err == nil {
		t.Fatal("completing a failed job accepted")
	}
}

// The elasticity scenario behind Fig. 6 (left): many fixed-size group jobs
// on a bounded cluster ramp up to the capacity ceiling, hold a plateau, and
// drain — never exceeding the node count.
func TestElasticRampAndDrain(t *testing.T) {
	const nodes, groupNodes = 100, 8 // 12 concurrent groups max
	c := New(nodes)
	duration := 50 * time.Second
	for i := 0; i < 40; i++ {
		c.Submit("group", groupNodes, 0, at(0))
	}
	type sample struct{ running, used int }
	var history []sample
	now := at(0)
	ends := map[JobID]time.Time{}
	for step := 0; step < 1000 && (c.QueueLen() > 0 || c.RunningCount() > 0); step++ {
		started, _ := c.Tick(now)
		for _, j := range started {
			ends[j.ID] = now.Add(duration)
		}
		for id, end := range ends {
			if !now.Before(end) {
				c.Complete(id, now)
				delete(ends, id)
			}
		}
		history = append(history, sample{c.RunningCount(), c.UsedNodes()})
		if c.UsedNodes() > nodes {
			t.Fatalf("overcommitted: %d nodes", c.UsedNodes())
		}
		now = now.Add(time.Second)
	}
	if c.QueueLen() != 0 || c.RunningCount() != 0 {
		t.Fatal("cluster did not drain")
	}
	peak := 0
	for _, s := range history {
		if s.running > peak {
			peak = s.running
		}
	}
	if peak != nodes/groupNodes {
		t.Fatalf("peak concurrency %d, want %d", peak, nodes/groupNodes)
	}
	if c.PeakUsedNodes() != peak*groupNodes {
		t.Fatalf("peak nodes %d", c.PeakUsedNodes())
	}
}
