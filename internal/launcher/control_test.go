package launcher

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"melissa/internal/client"
	"melissa/internal/server"
	"melissa/internal/transport"
	"melissa/internal/wire"
)

// reportCounter wraps a Network and tallies the Report frames sent over it.
type reportCounter struct {
	transport.Network
	mu                 sync.Mutex
	frames, bytes, ids int
	largest            int
}

func (n *reportCounter) Dial(addr string) (transport.Sender, error) {
	s, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &countingSender{Sender: s, n: n}, nil
}

type countingSender struct {
	transport.Sender
	n *reportCounter
}

func (s *countingSender) Send(payload []byte) error {
	if wire.PayloadType(payload) == wire.TypeReport {
		m, err := wire.Decode(payload)
		n := s.n
		n.mu.Lock()
		n.frames++
		n.bytes += len(payload)
		n.largest = max(n.largest, len(payload))
		if rep, ok := m.(*wire.Report); err == nil && ok {
			n.ids += len(rep.Started) + len(rep.Finished) + len(rep.TimedOut)
		}
		n.mu.Unlock()
	}
	return s.Sender.Send(payload)
}

// TestControlTrafficFlatInGroups: a report carries what changed, so the
// report bytes a study costs grow with its groups, not with their square,
// and no report exceeds the constant bound.
func TestControlTrafficFlatInGroups(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two studies")
	}
	run := func(groups int) (perGroup, idsPerGroup float64, largest int) {
		net := &reportCounter{Network: transport.NewMemNetwork(transport.Options{})}
		cfg := baseConfig(t, groups)
		cfg.Network = net
		cfg.MaxInFlight = 8
		l, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, stats, err := l.Run(); err != nil || stats.GroupsFinished != groups {
			t.Fatalf("%d groups: finished %d, err %v", groups, stats.GroupsFinished, err)
		}
		net.mu.Lock()
		defer net.mu.Unlock()
		t.Logf("%d groups: %d reports, %d bytes (%.1f per group), %d ids, largest %d bytes",
			groups, net.frames, net.bytes, float64(net.bytes)/float64(groups), net.ids, net.largest)
		return float64(net.bytes) / float64(groups), float64(net.ids) / float64(groups), net.largest
	}
	const g = 40
	small, smallIDs, smallMax := run(g)
	large, largeIDs, largeMax := run(10 * g)
	if large > 2*small {
		t.Errorf("report bytes per group grew from %.1f at %d groups to %.1f at %d", small, g, large, 10*g)
	}
	// Each group is started and finished once per process (2 processes),
	// plus the full set each epoch begins with.
	if largeIDs > 4.5 || smallIDs > 4.5 {
		t.Errorf("%.2f and %.2f ids per group, want at most 4 plus resyncs", smallIDs, largeIDs)
	}
	if m := max(smallMax, largeMax); m > wire.MaxReportBytes {
		t.Errorf("a %d-byte report, over the %d-byte bound", m, wire.MaxReportBytes)
	}
}

// TestLauncherLinkSurvivesCut: every connection a server process opens to
// the launcher breaks after a few reports, losing its last ones. Each redial
// resends the full finished set, so the study still completes with every
// group finished once and statistics bitwise equal to the fault-free run.
func TestLauncherLinkSurvivesCut(t *testing.T) {
	run := func(net transport.Network) (*server.Result, Stats, *Launcher) {
		cfg := soakConfig(t, net)
		// Slow enough steps that each process sends dozens of reports.
		sim := quadSim(cfg.Cells, cfg.Timesteps)
		cfg.Sim = client.SimFunc(func(row []float64, emit func(int, []float64) bool) {
			sim(row, func(step int, field []float64) bool {
				time.Sleep(time.Millisecond)
				return emit(step, field)
			})
		})
		l, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, stats, err := l.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, stats, l
	}
	clean, _, _ := run(transport.NewMemNetwork(transport.Options{}))
	// The launcher listens first, so its inbox is the network's first
	// address; only connections dialed to it match the rule.
	chaosNet := transport.NewChaosNetwork(transport.NewMemNetwork(transport.Options{}), transport.ChaosPlan{
		Seed:  11,
		Rules: []transport.ChaosRule{{Addr: "mem://1", Dial: -1, CutAfterFrames: 8, DropTailFrames: 3}},
	})
	faulty, stats, l := run(chaosNet)
	if addr := l.recv.Addr(); addr != "mem://1" {
		t.Fatalf("launcher inbox at %s, the rule names mem://1", addr)
	}
	const nGroups, timesteps, p = 6, 6, 2
	if stats.GroupsFinished != nGroups || stats.GroupsGivenUp != 0 || stats.Restarts != 0 || stats.TimeoutKills != 0 {
		t.Fatalf("study over a cut launcher link: %+v", stats)
	}
	if cs := chaosNet.Stats(); cs.Cuts == 0 || cs.Dropped == 0 {
		t.Fatalf("no report was lost: %+v", cs)
	}
	if stats.ReportGaps == 0 {
		t.Fatal("the launcher saw no gap in the report streams")
	}
	for step := 0; step < timesteps; step++ {
		if n := faulty.GroupsFolded(step); n != nGroups {
			t.Fatalf("step %d folded %d groups", step, n)
		}
		for k := 0; k < p; k++ {
			for _, f := range [2][2][]float64{
				{clean.FirstField(step, k), faulty.FirstField(step, k)},
				{clean.TotalField(step, k), faulty.TotalField(step, k)},
			} {
				for c := range f[0] {
					if f[0][c] != f[1][c] {
						t.Fatalf("index %d differs at (t=%d, cell=%d): %v vs %v", k, step, c, f[0][c], f[1][c])
					}
				}
			}
		}
	}
}

// groupGoroutines counts the goroutines running a group attempt or one of
// its members.
func groupGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "client.RunGroup") {
			n++
		}
	}
	return n
}

// TestRunLeavesNoGroupGoroutines: groups that finish while their durable
// drain still polls are stopped when the study completes, before the server
// goes, so no attempt outlives Run and none reconnects to a stopped server.
// A drain after the confirmed finish holds no job: at most MaxInFlight run.
func TestRunLeavesNoGroupGoroutines(t *testing.T) {
	capRunning(t, 2)
	for range 3 {
		cfg := durableSoakConfig(t, transport.NewMemNetwork(transport.Options{}))
		cfg.MaxInFlight = 2
		cfg.CheckpointDir = t.TempDir()
		cfg.CheckpointInterval = 250 * time.Millisecond
		cfg.Retry = client.RetryPolicy{MaxReconnects: 64, BaseDelay: 2 * time.Millisecond, MaxDelay: 40 * time.Millisecond}
		l, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := l.Run()
		if err != nil {
			t.Fatal(err)
		}
		// A goroutine that has signalled its exit may take a moment to end.
		for deadline := time.Now().Add(200 * time.Millisecond); groupGoroutines() != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d group goroutines alive after Run returned", groupGoroutines())
			}
		}
		if stats.Reconnects != 0 || stats.GroupsFinished != cfg.Design.N() {
			t.Fatalf("fault-free durable study: %+v", stats)
		}
	}
}
