package server

import (
	"os"
	"testing"
	"time"

	"melissa/internal/checkpoint"
	"melissa/internal/transport"
)

// TestStopIsPrompt: an idle process sleeps until its next report, a second
// away, yet Stop returns at once — closing the inbox wakes the loop, and
// nothing waits for the inbox to stay quiet. A second Stop, as the launcher's
// crash path issues, returns at once too.
func TestStopIsPrompt(t *testing.T) {
	s := startServer(t, transport.NewMemNetwork(transport.Options{}), 1, 8, 2, 1,
		func(c *Config) { c.ReportInterval = time.Second })
	time.Sleep(20 * time.Millisecond) // the loop is waiting on its deadline
	t0 := time.Now()
	s.Stop(false)
	if d := time.Since(t0); d > 25*time.Millisecond {
		t.Fatalf("Stop of an idle server took %v", d)
	}
	t0 = time.Now()
	s.Stop(false)
	if d := time.Since(t0); d > 10*time.Millisecond {
		t.Fatalf("second Stop took %v", d)
	}
}

// TestIdleServerWakesOnlyForDeadlines: with nothing to fold, the run loop
// wakes once per report and does not poll.
func TestIdleServerWakesOnlyForDeadlines(t *testing.T) {
	msgs, deadlines := wakeMessage.Value(), wakeDeadline.Value()
	s := startServer(t, transport.NewMemNetwork(transport.Options{}), 1, 8, 2, 1,
		func(c *Config) { c.ReportInterval = 50 * time.Millisecond })
	time.Sleep(time.Second)
	s.Stop(false)
	msgs, deadlines = wakeMessage.Value()-msgs, wakeDeadline.Value()-deadlines
	if msgs != 0 || deadlines > 25 || deadlines < 10 {
		t.Fatalf("idle second at a 50ms report interval: %d message and %d deadline wakeups, want 0 and 10..25",
			msgs, deadlines)
	}
}

// TestRetiredTagsAreUndecodable: frames carrying the retired heartbeat (4)
// and stop (6) tags are dropped as undecodable — neither stops the process —
// folding goes on, and every payload is recycled.
func TestRetiredTagsAreUndecodable(t *testing.T) {
	const cells, timesteps, p = 16, 3, 2
	pool := transport.ReadPoolStats()
	drops := mDrops.With("undecodable").Value()
	net := transport.NewMemNetwork(transport.Options{})
	s := startServer(t, net, 1, cells, timesteps, p, nil)
	snd, err := net.Dial(s.MainAddr())
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range [][]byte{{4, 's', 0, 0, 0}, {6, 1}} {
		if err := snd.Send(frame); err != nil {
			t.Fatal(err)
		}
	}
	snd.Close()
	runGroupsSequential(t, net, s, testDesign(p, 2), cells, timesteps, 1, []int{0, 1})
	s.Stop(false)

	if got := mDrops.With("undecodable").Value() - drops; got != 2 {
		t.Fatalf("%d undecodable drops, want 2", got)
	}
	if got := len(finishedIDs(trackers(s.Result())...)); got != 2 {
		t.Fatalf("%d groups finished, want 2", got)
	}
	if d := transport.ReadPoolStats().Outstanding() - pool.Outstanding(); d != 0 {
		t.Fatalf("payload pool leaked %d buffers", d)
	}
}

// TestStopAbandonsCheckpointInFlight: a stop without a last checkpoint does
// not wait out a write in flight. The write ends at its next section, leaves
// no file and no temp behind, and does not count as a write.
func TestStopAbandonsCheckpointInFlight(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	parked := make(chan struct{}, 1)
	checkpoint.SetWriteFault(func(written int64) error {
		select {
		case parked <- struct{}{}:
			<-gate // the first section write parks here
		default:
		}
		return nil
	})
	defer checkpoint.SetWriteFault(nil)

	s := startServer(t, transport.NewMemNetwork(transport.Options{}), 1, 12, 4, 1, func(c *Config) {
		c.CheckpointInterval = 20 * time.Millisecond
		c.CheckpointDir = dir
	})
	<-parked
	stopped := make(chan struct{})
	go func() { s.Stop(false); close(stopped) }()
	for !s.Procs()[0].ckpt.abandoned.Load() {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	<-stopped
	if ck := s.Procs()[0].Checkpoints(); ck.Writes != 0 {
		t.Fatalf("abandoned write counted: %+v", ck)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("abandoned write left %s", e.Name())
	}
}
