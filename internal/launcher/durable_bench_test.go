package launcher

import (
	"testing"
	"time"

	"melissa/internal/client"
	"melissa/internal/faults"
	"melissa/internal/obs"
	olog "melissa/internal/obs/log"
	"melissa/internal/transport"
)

// BenchmarkCrashRecovery measures the cost of a mid-study server crash under
// the two recovery protocols: the legacy path (no reconnect budget — every
// running group is killed and replayed from timestep 0) and the durable path
// (groups are kept alive, reconnect, and resend only the retained steps past
// the restored durable frontier). Reported per study:
//
//	recover-ms     wall-clock overhead versus the fault-free baseline
//	replayedB      extra client wire bytes versus the baseline (the replay
//	               and resend traffic the crash caused)
//	replays        full group restarts
//	resumes        group jobs kept alive across the restart
//
// The study shape is the durable-resume soak's: strictly one group in
// flight, multi-process server, quantiles on, 25 ms per timestep so the
// crash always lands mid-stream.
func BenchmarkCrashRecovery(b *testing.B) {
	// The study logs at Info cadence (checkpoint commits, restarts); keep the
	// benchmark lines readable. `bash bench/run.sh -workload crash_resume_mem`
	// is the study-scale record of the same recovery.
	old := olog.Default.Enabled(olog.Info)
	olog.Default.SetLevel(olog.Error)
	b.Cleanup(func() {
		if old {
			olog.Default.SetLevel(olog.Info)
		}
	})
	wireBytes := obs.NewCounter("melissa_client_wire_bytes_total", "")

	study := func(b *testing.B, durable bool, crash time.Duration) (time.Duration, int64, Stats) {
		cfg := durableSoakConfig(b, transport.NewMemNetwork(transport.Options{}))
		cfg.CheckpointDir = b.TempDir()
		cfg.CheckpointInterval = 15 * time.Millisecond
		cfg.HeartbeatTimeout = 250 * time.Millisecond
		if crash > 0 {
			cfg.Faults = faults.NewPlan().WithServerCrash(crash)
		}
		if durable {
			cfg.Retry = client.RetryPolicy{
				MaxReconnects: 64,
				BaseDelay:     2 * time.Millisecond,
				MaxDelay:      40 * time.Millisecond,
				AckTimeout:    150 * time.Millisecond,
				Seed:          7,
			}
		}
		cfg.Sim = client.SimFunc(func(row []float64, emit func(step int, field []float64) bool) {
			quadSim(cfg.Cells, cfg.Timesteps)(row, func(step int, field []float64) bool {
				time.Sleep(25 * time.Millisecond)
				return emit(step, field)
			})
		})
		l, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		bytes0 := wireBytes.Value()
		_, stats, err := l.Run()
		if err != nil {
			b.Fatal(err)
		}
		return stats.WallClock, wireBytes.Value() - bytes0, stats
	}

	for _, v := range []struct {
		name    string
		durable bool
	}{
		{"replay", false}, // legacy: kill + replay every running group
		{"resume", true},  // durable: reconnect + resend past the frontier
	} {
		b.Run(v.name, func(b *testing.B) {
			// Fault-free baseline under the same policy, so the durable
			// variant's completion drains don't masquerade as recovery cost.
			baseWall, baseBytes, _ := study(b, v.durable, 0)
			var overhead time.Duration
			var replayed, resumes int64
			for i := 0; i < b.N; i++ {
				wall, bytes, stats := study(b, v.durable, 210*time.Millisecond)
				if stats.ServerRestarts < 1 {
					b.Fatalf("server crash never fired: %+v", stats)
				}
				if v.durable && stats.Restarts != 0 {
					b.Fatalf("resume: crash escalated to %d full replays", stats.Restarts)
				}
				overhead += wall - baseWall
				replayed += bytes - baseBytes
				resumes += int64(stats.ResumesAfterServerRestart)
			}
			n := float64(b.N)
			b.ReportMetric(float64(overhead.Milliseconds())/n, "recover-ms")
			b.ReportMetric(float64(replayed)/n, "replayedB")
			b.ReportMetric(float64(resumes)/n, "resumes")
		})
	}
}
