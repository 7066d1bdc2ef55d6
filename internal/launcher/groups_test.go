package launcher

import (
	"testing"
	"time"

	"melissa/internal/wire"
)

// TestLauncherGraceClock: a reconnect moves the group's one grace clock, and
// a timeout report kills the group only once GroupTimeout has passed since.
func TestLauncherGraceClock(t *testing.T) {
	cfg := baseConfig(t, 2)
	cfg.GroupTimeout = time.Second
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	timedOut := encodeReport(wire.Report{ProcRank: 0, TimedOut: []int{1}})
	t0 := time.Now()
	l.apply(event{kind: evReconnect, group: 1}, t0)
	l.handleMessage(append([]byte(nil), timedOut...), t0.Add(cfg.GroupTimeout/2))
	checkBookkeeping(l)
	if l.stats.Reconnects != 1 || l.stats.TimeoutKills != 0 {
		t.Fatalf("within the grace: %d reconnects, %d timeout kills", l.stats.Reconnects, l.stats.TimeoutKills)
	}
	l.handleMessage(timedOut, t0.Add(cfg.GroupTimeout))
	checkBookkeeping(l)
	if l.stats.TimeoutKills != 1 || l.stats.Restarts != 1 {
		t.Fatalf("after the grace: %d timeout kills, %d restarts", l.stats.TimeoutKills, l.stats.Restarts)
	}
}
