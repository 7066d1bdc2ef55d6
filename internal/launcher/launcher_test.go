package launcher

import (
	"math"
	"testing"
	"time"

	"melissa/internal/client"
	"melissa/internal/faults"
	"melissa/internal/sampling"
	"melissa/internal/scheduler"
	"melissa/internal/server"
	"melissa/internal/transport"
)

// quadSim is a cheap deterministic 2-parameter solver whose per-cell output
// is additive in row[0] and quadratic in row[1].
func quadSim(cells, timesteps int) client.SimFunc {
	return func(row []float64, emit func(step int, field []float64) bool) {
		field := make([]float64, cells)
		for t := 0; t < timesteps; t++ {
			for c := range field {
				field[c] = row[0]*float64(c+1) + row[1]*row[1] + 0.01*float64(t)
			}
			if !emit(t, field) {
				return
			}
		}
	}
}

func baseConfig(t *testing.T, nGroups int) Config {
	t.Helper()
	const cells, timesteps, p = 16, 3, 2
	design := sampling.NewDesign([]sampling.Distribution{
		sampling.Uniform{Low: -1, High: 1},
		sampling.Uniform{Low: -1, High: 1},
	}, nGroups, 99)
	return Config{
		Design:       design,
		Sim:          quadSim(cells, timesteps),
		Cells:        cells,
		Timesteps:    timesteps,
		SimRanks:     2,
		Network:      transport.NewMemNetwork(transport.Options{}),
		ServerProcs:  2,
		ServerNodes:  1,
		GroupNodes:   2,
		TickInterval: 2 * time.Millisecond,
	}
}

func TestLauncherValidation(t *testing.T) {
	cfg := baseConfig(t, 2)
	cfg.Design = nil
	if _, err := New(cfg); err == nil {
		t.Fatal("nil design accepted")
	}
	cfg = baseConfig(t, 2)
	cfg.Sim = nil
	if _, err := New(cfg); err == nil {
		t.Fatal("nil sim accepted")
	}
	cfg = baseConfig(t, 2)
	cfg.Network = nil
	if _, err := New(cfg); err == nil {
		t.Fatal("nil network accepted")
	}
}

func TestLauncherCleanStudy(t *testing.T) {
	const nGroups = 8
	cfg := baseConfig(t, nGroups)
	capRunning(t, nGroups)
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.GroupsFinished != nGroups || stats.GroupsGivenUp != 0 || stats.Restarts != 0 {
		t.Fatalf("stats %+v", stats)
	}
	for step := 0; step < cfg.Timesteps; step++ {
		if res.GroupsFolded(step) != nGroups {
			t.Fatalf("step %d folded %d", step, res.GroupsFolded(step))
		}
	}
	// The additive model: S ≈ ST for parameter 0 at every cell.
	first := res.FirstField(0, 0)
	total := res.TotalField(0, 0)
	for c := range first {
		if math.Abs(first[c]-total[c]) > 0.25 {
			t.Fatalf("cell %d: S=%v ST=%v implausible for additive model", c, first[c], total[c])
		}
	}
	if stats.PeakNodes < cfg.ServerNodes+cfg.GroupNodes {
		t.Fatalf("peak %d nodes: no group job was accounted", stats.PeakNodes)
	}
}

func TestLauncherBoundedCluster(t *testing.T) {
	const nGroups = 12
	cfg := baseConfig(t, nGroups)
	// Room for the server plus exactly 3 concurrent groups: the study must
	// still complete, just elastically.
	cfg.Cluster = scheduler.New(cfg.ServerNodes + 3*cfg.GroupNodes)
	capRunning(t, 3)
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.GroupsFinished != nGroups {
		t.Fatalf("finished %d of %d", stats.GroupsFinished, nGroups)
	}
	if res.GroupsFolded(0) != nGroups {
		t.Fatalf("folded %d", res.GroupsFolded(0))
	}
	if stats.PeakNodes > cfg.Cluster.TotalNodes() {
		t.Fatalf("overcommitted: peak %d nodes", stats.PeakNodes)
	}
}

func TestLauncherCrashRestart(t *testing.T) {
	const nGroups = 6
	cfg := baseConfig(t, nGroups)
	cfg.Faults = faults.NewPlan(
		faults.GroupFault{Group: 1, Attempt: 0, Kind: faults.Crash, AtStep: 1},
		faults.GroupFault{Group: 4, Attempt: 0, Kind: faults.Crash, AtStep: 0},
		faults.GroupFault{Group: 4, Attempt: 1, Kind: faults.Crash, AtStep: 2},
	)
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.GroupsFinished != nGroups {
		t.Fatalf("finished %d of %d (stats %+v)", stats.GroupsFinished, nGroups, stats)
	}
	if stats.Restarts != 3 {
		t.Fatalf("restarts = %d, want 3", stats.Restarts)
	}
	// Despite crashes and replays, every timestep folded each group once.
	for step := 0; step < cfg.Timesteps; step++ {
		if res.GroupsFolded(step) != nGroups {
			t.Fatalf("step %d folded %d groups", step, res.GroupsFolded(step))
		}
	}
}

func TestLauncherGiveUpAfterRetries(t *testing.T) {
	const nGroups = 3
	cfg := baseConfig(t, nGroups)
	cfg.MaxRetries = 2
	// Group 1 crashes on every attempt.
	cfg.Faults = faults.NewPlan(
		faults.GroupFault{Group: 1, Attempt: 0, Kind: faults.Crash, AtStep: 0},
		faults.GroupFault{Group: 1, Attempt: 1, Kind: faults.Crash, AtStep: 0},
		faults.GroupFault{Group: 1, Attempt: 2, Kind: faults.Crash, AtStep: 0},
		faults.GroupFault{Group: 1, Attempt: 3, Kind: faults.Crash, AtStep: 0},
	)
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.GroupsGivenUp != 1 || stats.GroupsFinished != nGroups-1 {
		t.Fatalf("stats %+v", stats)
	}
	// The failed group contributes nothing; the others are complete.
	if res.GroupsFolded(0) != nGroups-1 {
		t.Fatalf("folded %d", res.GroupsFolded(0))
	}
}

func TestLauncherResamplePolicy(t *testing.T) {
	const nGroups = 4
	cfg := baseConfig(t, nGroups)
	cfg.ResampleOnFailure = true
	cfg.Faults = faults.NewPlan(
		faults.GroupFault{Group: 2, Attempt: 0, Kind: faults.Crash, AtStep: 0},
	)
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.GroupsResampled != 1 {
		t.Fatalf("resampled %d", stats.GroupsResampled)
	}
	// 4 live groups finish: 0, 1, 3 and the replacement row 4.
	if stats.GroupsFinished != nGroups {
		t.Fatalf("finished %d", stats.GroupsFinished)
	}
	if cfg.Design.N() != nGroups+1 {
		t.Fatalf("design not extended: n=%d", cfg.Design.N())
	}
	// The abandoned group folded nothing: each step holds the 4 live ones.
	for step := 0; step < cfg.Timesteps; step++ {
		if n := res.GroupsFolded(step); n != nGroups {
			t.Fatalf("step %d folded %d groups, want the %d live ones", step, n, nGroups)
		}
	}
}

func TestLauncherStragglerTimeout(t *testing.T) {
	const nGroups = 4
	cfg := baseConfig(t, nGroups)
	cfg.GroupTimeout = 200 * time.Millisecond
	cfg.Faults = faults.NewPlan(
		faults.GroupFault{Group: 0, Attempt: 0, Kind: faults.Hang, AtStep: 1, HangFor: 3 * time.Second},
	)
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.TimeoutKills < 1 {
		t.Fatalf("straggler not killed: %+v", stats)
	}
	if stats.GroupsFinished != nGroups {
		t.Fatalf("finished %d of %d", stats.GroupsFinished, nGroups)
	}
	if res.GroupsFolded(cfg.Timesteps-1) != nGroups {
		t.Fatalf("folded %d", res.GroupsFolded(cfg.Timesteps-1))
	}
}

func TestLauncherZombieDetection(t *testing.T) {
	const nGroups = 3
	cfg := baseConfig(t, nGroups)
	cfg.ZombieTimeout = 150 * time.Millisecond
	cfg.Faults = faults.NewPlan(
		faults.GroupFault{Group: 1, Attempt: 0, Kind: faults.Zombie},
	)
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ZombieKills != 1 {
		t.Fatalf("zombie kills = %d", stats.ZombieKills)
	}
	if stats.GroupsFinished != nGroups {
		t.Fatalf("finished %d of %d", stats.GroupsFinished, nGroups)
	}
}

func TestLauncherServerCrashRecovery(t *testing.T) {
	const nGroups = 8
	cfg := baseConfig(t, nGroups)
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointInterval = 20 * time.Millisecond
	cfg.HeartbeatTimeout = 200 * time.Millisecond
	cfg.Faults = faults.NewPlan().WithServerCrash(60 * time.Millisecond)
	// Slow the groups down so the crash lands mid-study.
	slowSim := client.SimFunc(func(row []float64, emit func(step int, field []float64) bool) {
		quadSim(cfg.Cells, cfg.Timesteps)(row, func(step int, field []float64) bool {
			time.Sleep(40 * time.Millisecond)
			return emit(step, field)
		})
	})
	cfg.Sim = slowSim
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ServerRestarts < 1 {
		t.Fatalf("server never restarted: %+v", stats)
	}
	// Legacy contract, pinned: with no reconnect budget a server crash kills
	// and replays every running group — nothing resumes in place.
	if stats.ResumesAfterServerRestart != 0 {
		t.Fatalf("legacy path resumed %d groups without a reconnect budget", stats.ResumesAfterServerRestart)
	}
	if stats.GroupsFinished != nGroups {
		t.Fatalf("finished %d of %d (%+v)", stats.GroupsFinished, nGroups, stats)
	}
	// After recovery every timestep holds every group exactly once.
	for step := 0; step < cfg.Timesteps; step++ {
		if res.GroupsFolded(step) != nGroups {
			t.Fatalf("step %d folded %d groups", step, res.GroupsFolded(step))
		}
	}
}

func TestLauncherConvergenceEarlyStop(t *testing.T) {
	// Plenty of groups with a loose convergence target: the launcher should
	// stop before running all of them. Convergence is seen on the server's
	// report cadence (tens of ms), while event-driven turnover runs these
	// tiny groups at several per ms, so "plenty" is an order of magnitude
	// more than the few hundred folded before the stop.
	const nGroups = 4000
	cfg := baseConfig(t, nGroups)
	cfg.ConvergenceTarget = 0.9
	cfg.MaxInFlight = 16
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatalf("study did not stop on convergence: %+v", stats)
	}
	folded := res.GroupsFolded(0)
	if folded < 4 || folded >= nGroups {
		t.Fatalf("folded %d groups; expected early stop between 4 and %d", folded, nGroups)
	}
	if res.MaxCIWidth() > 1.0 {
		t.Fatalf("converged study has CI width %v", res.MaxCIWidth())
	}
}

// The restart path and the fresh path must agree: a study that suffered a
// server crash ends with the same group coverage as a clean one (exactness
// is covered bitwise at the server layer; here we assert study-level
// consistency through the full launcher protocol).
func TestLauncherCrashStudyMatchesCleanStudy(t *testing.T) {
	const nGroups = 6
	run := func(plan *faults.Plan, dir string) *server.Result {
		cfg := baseConfig(t, nGroups)
		cfg.Faults = plan
		if plan != nil && plan.ServerCrashAfter > 0 {
			cfg.CheckpointDir = dir
			cfg.CheckpointInterval = 20 * time.Millisecond
			cfg.HeartbeatTimeout = 200 * time.Millisecond
			slow := client.SimFunc(func(row []float64, emit func(step int, field []float64) bool) {
				quadSim(cfg.Cells, cfg.Timesteps)(row, func(step int, field []float64) bool {
					time.Sleep(35 * time.Millisecond)
					return emit(step, field)
				})
			})
			cfg.Sim = slow
		}
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
	clean := run(nil, "")
	crashed := run(faults.NewPlan().WithServerCrash(50*time.Millisecond), t.TempDir())

	for step := 0; step < 3; step++ {
		if clean.GroupsFolded(step) != crashed.GroupsFolded(step) {
			t.Fatalf("step %d: %d vs %d groups folded", step,
				clean.GroupsFolded(step), crashed.GroupsFolded(step))
		}
		a := clean.FirstField(step, 0)
		b := crashed.FirstField(step, 0)
		for c := range a {
			if math.Abs(a[c]-b[c]) > 1e-9 {
				t.Fatalf("step %d cell %d: S differs %v vs %v after crash recovery", step, c, a[c], b[c])
			}
		}
	}
}

// Walltime enforcement (Sec. 4.2.2: the protocol also covers jobs the batch
// scheduler kills for exceeding their reservation): groups whose execution
// exceeds GroupWalltime are killed by the scheduler, retried, and finally
// given up.
func TestLauncherWalltimeKill(t *testing.T) {
	const nGroups = 2
	cfg := baseConfig(t, nGroups)
	cfg.MaxRetries = 1
	cfg.GroupWalltime = 40 * time.Millisecond
	slow := client.SimFunc(func(row []float64, emit func(step int, field []float64) bool) {
		quadSim(cfg.Cells, cfg.Timesteps)(row, func(step int, field []float64) bool {
			time.Sleep(60 * time.Millisecond) // every step exceeds the walltime
			return emit(step, field)
		})
	})
	cfg.Sim = slow
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.GroupsGivenUp != nGroups {
		t.Fatalf("given up %d of %d: %+v", stats.GroupsGivenUp, nGroups, stats)
	}
	if stats.Restarts == 0 {
		t.Fatal("walltime kills produced no retries")
	}
}

// Submission pacing (Sec. 4.1.4: "we were limited to 500 simultaneous
// submissions"): MaxInFlight caps how many group jobs exist at once, yet
// the study still completes.
func TestLauncherSubmissionPacing(t *testing.T) {
	const nGroups = 20
	cfg := baseConfig(t, nGroups)
	cfg.MaxInFlight = 4
	capRunning(t, 4)
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.GroupsFinished != nGroups {
		t.Fatalf("finished %d of %d", stats.GroupsFinished, nGroups)
	}
}
