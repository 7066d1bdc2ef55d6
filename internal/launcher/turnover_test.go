package launcher

import (
	"runtime"
	"testing"
	"time"

	olog "melissa/internal/obs/log"
	"melissa/internal/sampling"
	"melissa/internal/transport"
)

// wakeups reads the supervision-loop wakeup counters (process-wide, so tests
// compare deltas).
func wakeups() map[string]int64 {
	return map[string]int64{
		"done":      wakeDone.Value(),
		"report":    wakeReport.Value(),
		"reconnect": wakeReconnect.Value(),
		"tick":      wakeTick.Value(),
	}
}

// TestLauncherTurnoverNotTickBound: a freed slot starts the next group when
// the attempt exits, not at the next tick. With a tick of 100 ms, 60 groups
// through 2 slots would take ≥ 3 s tick-paced; the study must finish in half
// of that, fold every group, never exceed MaxInFlight, and leave no
// goroutine behind.
func TestLauncherTurnoverNotTickBound(t *testing.T) {
	const nGroups, maxInFlight = 60, 2
	const tick = 100 * time.Millisecond
	tickPaced := nGroups / maxInFlight * tick

	cfg := baseConfig(t, nGroups)
	cfg.MaxInFlight = maxInFlight
	cfg.TickInterval = tick

	var peakInFlight, peakRunning int
	check := passCheck
	passCheck = func(l *Launcher) {
		if check != nil {
			check(l)
		}
		peakInFlight = max(peakInFlight, l.counts[classInFlight])
		peakRunning = max(peakRunning, l.counts[classRunning])
	}
	defer func() { passCheck = check }()

	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w0 := wakeups()
	goroutines := runtime.NumGoroutine()
	res, stats, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	w1 := wakeups()

	if stats.WallClock >= tickPaced/2 {
		t.Fatalf("study took %v; a tick-paced loop needs %v", stats.WallClock, tickPaced)
	}
	if stats.GroupsFinished != nGroups || stats.Restarts != 0 {
		t.Fatalf("stats %+v", stats)
	}
	for step := 0; step < cfg.Timesteps; step++ {
		if res.GroupsFolded(step) != nGroups {
			t.Fatalf("step %d folded %d of %d groups", step, res.GroupsFolded(step), nGroups)
		}
	}
	if peakInFlight > maxInFlight || peakRunning > maxInFlight {
		t.Fatalf("pacing violated: peak %d in flight, %d running, cap %d", peakInFlight, peakRunning, maxInFlight)
	}

	// Group exits drove the study; the ticker fired only at its own period.
	if d := w1["done"] - w0["done"]; d < 1 || d > nGroups {
		t.Fatalf("%d done wakeups for %d group exits", d, nGroups)
	}
	if d, most := w1["tick"]-w0["tick"], int64(stats.WallClock/tick)+1; d > most {
		t.Fatalf("%d tick wakeups in %v, at most %d expected", d, stats.WallClock, most)
	}

	// Nothing Run started outlives it, the receive goroutine included.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// BenchmarkLauncherChurn runs whole studies of 200 tiny groups (64 cells × 2
// steps, in memory) through 2 slots at the default tick: per-group fixed
// cost and turnover latency, nothing else. A loop that started groups only
// on ticks would need ≥ 200 / 2 × 5 ms = 500 ms per study. Reports the
// loop's wakeups per study by cause and the bytes a study allocates per
// group.
func BenchmarkLauncherChurn(b *testing.B) {
	const nGroups, cells, timesteps = 200, 64, 2
	if olog.Default.Enabled(olog.Info) {
		olog.Default.SetLevel(olog.Error)
		b.Cleanup(func() { olog.Default.SetLevel(olog.Info) })
	}
	// Time the production loop, without the tests' per-pass recount.
	check := passCheck
	passCheck = nil
	b.Cleanup(func() { passCheck = check })

	w0 := wakeups()
	var allocated uint64
	var ms runtime.MemStats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		design := sampling.NewDesign([]sampling.Distribution{
			sampling.Uniform{Low: -1, High: 1},
			sampling.Uniform{Low: -1, High: 1},
		}, nGroups, uint64(i+1))
		l, err := New(Config{
			Design:      design,
			Sim:         quadSim(cells, timesteps),
			Cells:       cells,
			Timesteps:   timesteps,
			SimRanks:    2,
			Network:     transport.NewMemNetwork(transport.ForStudyCodec(cells, 2, 1, false)),
			ServerProcs: 2,
			MaxInFlight: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		allocated -= ms.TotalAlloc
		b.StartTimer()
		_, stats, err := l.Run()
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		allocated += ms.TotalAlloc
		if err != nil {
			b.Fatal(err)
		}
		if stats.GroupsFinished != nGroups {
			b.Fatalf("finished %d of %d groups", stats.GroupsFinished, nGroups)
		}
	}
	w1 := wakeups()
	for _, cause := range []string{"done", "report", "reconnect", "tick"} {
		b.ReportMetric(float64(w1[cause]-w0[cause])/float64(b.N), cause+"-wakes/op")
	}
	b.ReportMetric(float64(allocated)/float64(b.N*nGroups), "B/group")
}
