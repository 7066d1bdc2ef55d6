package launcher

import (
	"testing"
	"time"

	"melissa/internal/client"
	"melissa/internal/sampling"
	"melissa/internal/server"
	"melissa/internal/transport"
)

// soakConfig is the shared study shape for the chaos soak: 6 groups, 2 server
// processes, 2 sim ranks, 6 timesteps, run strictly one group at a time so
// fold order — and therefore floating-point accumulation order — is identical
// between the clean and the chaos run.
func soakConfig(t *testing.T, net transport.Network) Config {
	t.Helper()
	const cells, timesteps, nGroups = 16, 6, 6
	design := sampling.NewDesign([]sampling.Distribution{
		sampling.Uniform{Low: -1, High: 1},
		sampling.Uniform{Low: -1, High: 1},
	}, nGroups, 77)
	return Config{
		Design:       design,
		Sim:          quadSim(cells, timesteps),
		Cells:        cells,
		Timesteps:    timesteps,
		SimRanks:     2,
		Network:      net,
		ServerProcs:  2,
		ServerNodes:  1,
		GroupNodes:   2,
		MaxInFlight:  1,
		GroupTimeout: 2 * time.Second, // surface a stall as a kill, not a hang
		TickInterval: 2 * time.Millisecond,
	}
}

// soakPlan injects every recoverable fault class into the study's client data
// connections. Rule ordinals are chosen so only client-side dials can match:
// the launcher report inbox is dialed at most twice (once per server process)
// and each handshake reply inbox exactly once, so ordinals >= 3 never touch
// them. A rule landing on a Hello connection (one frame, then closed) is
// inert, which is also safe.
func soakPlan() transport.ChaosPlan {
	return transport.ChaosPlan{
		Seed: 20177,
		Rules: []transport.ChaosRule{
			// Mid-stream cut with a lost kernel-buffer tail.
			{Dial: 3, CutAfterFrames: 5, DropTailFrames: 2},
			// Clean cut: the very next send fails, nothing lost.
			{Dial: 6, CutAfterFrames: 2},
			// A refused redial: the handshake retry path burns budget too.
			{Dial: 8, Refuse: true},
			// A duplicated frame the replay-discard tracker must swallow.
			{Dial: 9, DuplicateFrame: 3},
			// Plain latency: slow but undamaged.
			{Dial: 11, Latency: 500 * time.Microsecond},
		},
	}
}

// TestLauncherChaosSoakBitwise is the end-to-end resilience soak: a seeded
// chaos plan of cuts, tail drops, refusals, duplicates and latency over a
// full multi-process study. Every fault must be absorbed by in-place
// reconnects — zero group restarts, zero timeout kills — and the final
// statistics must be bitwise identical to the fault-free study.
func TestLauncherChaosSoakBitwise(t *testing.T) {
	run := func(net transport.Network, retry client.RetryPolicy) (*server.Result, Stats) {
		cfg := soakConfig(t, net)
		cfg.Retry = retry
		l, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, stats, err := l.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, stats
	}

	clean, cleanStats := run(transport.NewMemNetwork(transport.Options{}), client.RetryPolicy{})
	if cleanStats.Restarts != 0 || cleanStats.Reconnects != 0 {
		t.Fatalf("clean run not clean: %+v", cleanStats)
	}

	transport.SetPoolDebug(true)
	defer transport.SetPoolDebug(false)
	before := transport.ReadPoolStats()

	chaosNet := transport.NewChaosNetwork(transport.NewMemNetwork(transport.Options{}), soakPlan())
	faulty, stats := run(chaosNet, client.RetryPolicy{
		MaxReconnects: 5,
		BaseDelay:     time.Millisecond,
		MaxDelay:      10 * time.Millisecond,
		Seed:          7,
	})

	const nGroups, timesteps, p = 6, 6, 2
	if stats.GroupsFinished != nGroups || stats.GroupsGivenUp != 0 {
		t.Fatalf("chaos study incomplete: %+v", stats)
	}
	// The whole point: every injected fault healed in place.
	if stats.Restarts != 0 {
		t.Fatalf("recoverable faults caused %d full group replays", stats.Restarts)
	}
	if stats.TimeoutKills != 0 {
		t.Fatalf("recoverable faults tripped %d timeout kills", stats.TimeoutKills)
	}
	if stats.Reconnects == 0 {
		t.Fatal("chaos plan injected no faults the client had to recover from")
	}
	cs := chaosNet.Stats()
	if cs.Cuts == 0 || cs.Dropped == 0 {
		t.Fatalf("plan did not exercise cut+drop: %+v", cs)
	}

	for step := 0; step < timesteps; step++ {
		if clean.GroupsFolded(step) != nGroups || faulty.GroupsFolded(step) != nGroups {
			t.Fatalf("step %d: folded %d clean vs %d chaos", step,
				clean.GroupsFolded(step), faulty.GroupsFolded(step))
		}
		for k := 0; k < p; k++ {
			a, b := clean.FirstField(step, k), faulty.FirstField(step, k)
			for c := range a {
				if a[c] != b[c] {
					t.Fatalf("S%d differs at (t=%d, cell=%d): %v vs %v", k, step, c, a[c], b[c])
				}
			}
			at, bt := clean.TotalField(step, k), faulty.TotalField(step, k)
			for c := range at {
				if at[c] != bt[c] {
					t.Fatalf("ST%d differs at (t=%d, cell=%d): %v vs %v", k, step, c, at[c], bt[c])
				}
			}
		}
	}

	// The recovery paths must not leak refcounted payloads. Active references
	// and the retention rings' holds must balance exactly; outstanding
	// buffers tolerate the small fault-free shutdown residue (final server
	// reports queued in the launcher inbox when Run returns — at most a
	// couple per server process, chaos or not).
	after := transport.ReadPoolStats()
	if d := after.RefsActive() - before.RefsActive(); d != 0 {
		t.Fatalf("chaos recovery leaked %d payload references", d)
	}
	if d := after.Held - before.Held; d != 0 {
		t.Fatalf("chaos recovery left %d retained frames held", d)
	}
	if d := after.Outstanding() - before.Outstanding(); d > 4 {
		t.Fatalf("chaos recovery leaked %d pooled buffers", d)
	}
}

// TestLauncherChaosZeroBudgetRestarts pins the legacy contract: with no retry
// budget a cut connection fails the attempt, and recovery happens exactly the
// old way — the launcher replays the whole group and the replay-discard
// tracker absorbs the duplicates. No reconnects, same final coverage.
func TestLauncherChaosZeroBudgetRestarts(t *testing.T) {
	chaosNet := transport.NewChaosNetwork(transport.NewMemNetwork(transport.Options{}), transport.ChaosPlan{
		Seed: 3,
		Rules: []transport.ChaosRule{
			{Dial: 3, CutAfterFrames: 2}, // no tail drop: the cut surfaces on the next send
		},
	})
	cfg := soakConfig(t, chaosNet)
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	const nGroups, timesteps = 6, 6
	if stats.GroupsFinished != nGroups || stats.GroupsGivenUp != 0 {
		t.Fatalf("study incomplete: %+v", stats)
	}
	if stats.Restarts == 0 {
		t.Fatal("cut connection did not fail the attempt under zero budget")
	}
	if stats.Reconnects != 0 {
		t.Fatalf("zero budget recorded %d reconnects", stats.Reconnects)
	}
	for step := 0; step < timesteps; step++ {
		if res.GroupsFolded(step) != nGroups {
			t.Fatalf("step %d folded %d groups after legacy replay", step, res.GroupsFolded(step))
		}
	}
}
