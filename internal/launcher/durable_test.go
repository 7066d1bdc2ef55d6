package launcher

import (
	"testing"
	"time"

	"melissa/internal/client"
	"melissa/internal/core"
	"melissa/internal/faults"
	"melissa/internal/sampling"
	"melissa/internal/server"
	"melissa/internal/transport"
)

// durableSoakConfig is the study shape for the server-kill soak: multi-process
// server, quantiles on, strictly one group in flight so fold order — and
// therefore floating-point accumulation order — is identical between the
// clean run and the crash run.
func durableSoakConfig(t testing.TB, net transport.Network) Config {
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
		Stats:        core.Options{MinMax: true, Quantiles: []float64{0.25, 0.75}},
		Network:      net,
		ServerProcs:  2,
		ServerNodes:  1,
		GroupNodes:   2,
		MaxInFlight:  1,
		GroupTimeout: 3 * time.Second,
		TickInterval: 2 * time.Millisecond,
	}
}

// TestLauncherServerKillDurableResume is the tentpole soak: kill the server
// mid-study with checkpointing on and a reconnect budget on every group. The
// launcher must restart the server from its checkpoint and keep the group
// jobs alive — they reconnect, align with the restored durable frontier, and
// resend only the retained steps past it. Zero group replays, zero timeout
// kills, and the final statistics are bitwise identical to a fault-free study.
func TestLauncherServerKillDurableResume(t *testing.T) {
	run := func(cfg Config) (*server.Result, Stats) {
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

	clean, cleanStats := run(durableSoakConfig(t, transport.NewMemNetwork(transport.Options{})))
	if cleanStats.Restarts != 0 || cleanStats.ServerRestarts != 0 {
		t.Fatalf("clean run not clean: %+v", cleanStats)
	}

	cfg := durableSoakConfig(t, transport.NewMemNetwork(transport.Options{}))
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointInterval = 15 * time.Millisecond
	cfg.HeartbeatTimeout = 250 * time.Millisecond
	cfg.Faults = faults.NewPlan().WithServerCrash(210 * time.Millisecond)
	cfg.Retry = client.RetryPolicy{
		MaxReconnects: 64, // failed dials during server downtime burn budget too
		BaseDelay:     2 * time.Millisecond,
		MaxDelay:      40 * time.Millisecond,
		// A drain poll racing the crash sends its resume ping into the dying
		// server's inbox and waits this long for the ack that will never come;
		// keep the wait well under the group timeout so recovery beats the
		// unresponsive-group kill.
		AckTimeout: 150 * time.Millisecond,
		Seed:       7,
	}
	// Slow the groups down so the crash lands while a group is mid-stream.
	cfg.Sim = client.SimFunc(func(row []float64, emit func(step int, field []float64) bool) {
		quadSim(cfg.Cells, cfg.Timesteps)(row, func(step int, field []float64) bool {
			time.Sleep(25 * time.Millisecond)
			return emit(step, field)
		})
	})
	before := transport.ReadPoolStats()
	faulty, stats := run(cfg)
	// The crash and the resends must not leak refcounted payloads or leave
	// retained frames held.
	after := transport.ReadPoolStats()
	if d := after.RefsActive() - before.RefsActive(); d != 0 {
		t.Fatalf("server kill leaked %d payload references", d)
	}
	if d := after.Held - before.Held; d != 0 {
		t.Fatalf("server kill left %d retained frames held", d)
	}

	const nGroups, timesteps, p = 6, 6, 2
	if stats.ServerRestarts < 1 {
		t.Fatalf("server never crashed/restarted: %+v", stats)
	}
	if stats.GroupsFinished != nGroups || stats.GroupsGivenUp != 0 {
		t.Fatalf("crash study incomplete: %+v", stats)
	}
	// The whole point: the crash cost a resume, not a replay.
	if stats.Restarts != 0 {
		t.Fatalf("server crash caused %d full group replays", stats.Restarts)
	}
	if stats.ResumesAfterServerRestart < 1 {
		t.Fatalf("no group was kept alive across the restart: %+v", stats)
	}
	if stats.TimeoutKills != 0 {
		t.Fatalf("restart grace failed: %d timeout kills", stats.TimeoutKills)
	}

	for step := 0; step < timesteps; step++ {
		if clean.GroupsFolded(step) != nGroups || faulty.GroupsFolded(step) != nGroups {
			t.Fatalf("step %d: folded %d clean vs %d crash", step,
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
		av, bv := clean.VarianceField(step), faulty.VarianceField(step)
		for c := range av {
			if av[c] != bv[c] {
				t.Fatalf("variance differs at (t=%d, cell=%d): %v vs %v", step, c, av[c], bv[c])
			}
		}
		for _, q := range []float64{0.25, 0.75} {
			aq, bq := clean.QuantileField(step, q), faulty.QuantileField(step, q)
			for c := range aq {
				if aq[c] != bq[c] {
					t.Fatalf("q%.2f differs at (t=%d, cell=%d): %v vs %v", q, step, c, aq[c], bq[c])
				}
			}
		}
	}
}
