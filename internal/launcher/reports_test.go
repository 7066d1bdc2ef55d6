package launcher

import (
	"encoding/binary"
	"math"
	"testing"
	"time"

	"melissa/internal/wire"
)

func encodeReport(r wire.Report) []byte { return wire.Encode(&r) }

// TestLauncherDropsReportFromUnknownRank: in a 2-process study, a report
// stamped with rank 7 names no process. It must neither count toward a
// group's finish nor be applied at all.
func TestLauncherDropsReportFromUnknownRank(t *testing.T) {
	l, err := New(baseConfig(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	l.handleMessage(encodeReport(wire.Report{ProcRank: 0, Finished: []int{1}}), now)
	l.handleMessage(encodeReport(wire.Report{ProcRank: 7, Finished: []int{1}}), now)
	l.handleMessage(encodeReport(wire.Report{ProcRank: -1, Finished: []int{1}}), now)
	checkBookkeeping(l)
	if g := l.groups[1]; g.finished(l.reporters) {
		t.Fatalf("group 1 finished by ranks %v of a 2-process server", g.finishedBy)
	}
	if got := l.stats.StaleReportsDropped; got != 2 {
		t.Fatalf("%d reports dropped, want the 2 from ranks outside [0, 2)", got)
	}
	l.handleMessage(encodeReport(wire.Report{ProcRank: 1, Finished: []int{1}}), now)
	if !l.groups[1].finished(l.reporters) {
		t.Fatal("group 1 listed by both ranks is not finished")
	}
}

// TestLauncherConvergesWithEmptyPartition: with more server processes than
// cells, the last process owns no cell, never scans and reports +Inf
// forever. The convergence stop must compare only the processes that fold.
func TestLauncherConvergesWithEmptyPartition(t *testing.T) {
	const nGroups = 4000
	cfg := baseConfig(t, nGroups)
	cfg.Cells, cfg.ServerProcs = 2, 3
	cfg.Sim = quadSim(cfg.Cells, cfg.Timesteps)
	cfg.ConvergenceTarget = 1e9
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
	if folded := res.GroupsFolded(0); folded >= nGroups {
		t.Fatalf("folded all %d groups before the stop", folded)
	}
}

// reportFrames joins payloads into one fuzz input: each is a 2-byte
// little-endian length followed by that many bytes.
func reportFrames(payloads ...[]byte) []byte {
	var b []byte
	for _, p := range payloads {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(p)))
		b = append(b, p...)
	}
	return b
}

// FuzzLauncherReport feeds arbitrary server messages to report ingest on a
// launcher that is not running: a 3-process server over 2 cells, so rank 2
// owns no cell. After every message the bookkeeping recount must hold, a
// group may be finished only once every folding rank has listed it, and the
// convergence stop may fire only once every folding rank has reported a
// width within the target.
func FuzzLauncherReport(f *testing.F) {
	// The two defects: a rank no process has finishing a group, and an
	// empty partition's +Inf holding back the convergence stop.
	f.Add(reportFrames(
		encodeReport(wire.Report{ProcRank: 0, Finished: []int{1}}),
		encodeReport(wire.Report{ProcRank: 7, Finished: []int{1}})))
	f.Add(reportFrames(
		encodeReport(wire.Report{ProcRank: 0, MaxCIWidth: 0.5, Finished: []int{0}}),
		encodeReport(wire.Report{ProcRank: 2, MaxCIWidth: math.Inf(1), Finished: []int{0}}),
		encodeReport(wire.Report{ProcRank: 1, MaxCIWidth: 0.5, Finished: []int{0}})))
	f.Add(reportFrames(
		encodeReport(wire.Report{ProcRank: 1, Running: []int{2}, TimedOut: []int{2, 3}}),
		encodeReport(wire.Report{ProcRank: 0, Epoch: 1, Finished: []int{2}}),
		[]byte{byte(wire.TypeReport)}))

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := baseConfig(t, 4)
		cfg.Cells, cfg.ServerProcs = 2, 3
		cfg.ConvergenceTarget = 1
		l, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The oracle, from the decoded reports the launcher must apply:
		// which folding ranks listed each group, and each one's last width.
		listed := map[int]map[int]bool{}
		width := make([]float64, l.reporters)
		for len(data) >= 2 {
			n := min(int(binary.LittleEndian.Uint16(data)), len(data)-2)
			payload := data[2 : 2+n]
			data = data[2+n:]
			if m, err := wire.Decode(payload); err == nil {
				if rep, ok := m.(*wire.Report); ok && rep.Epoch == l.srvEpoch &&
					rep.ProcRank >= 0 && rep.ProcRank < l.reporters {
					for _, id := range rep.Finished {
						if listed[id] == nil {
							listed[id] = map[int]bool{}
						}
						listed[id][rep.ProcRank] = true
					}
					if rep.MaxCIWidth != 0 {
						width[rep.ProcRank] = rep.MaxCIWidth
					}
				}
			}
			// handleMessage recycles the payload into the transport pool.
			l.handleMessage(append([]byte(nil), payload...), time.Now())
			checkBookkeeping(l)
			for id, g := range l.groups {
				if g.finished(l.reporters) && len(listed[id]) < l.reporters {
					t.Fatalf("group %d finished, listed only by folding ranks %v", id, listed[id])
				}
			}
			if l.convergedEarly() {
				for rank, w := range width {
					if w == 0 || !(w <= cfg.ConvergenceTarget) {
						t.Fatalf("converged with rank %d's width %v (widths %v)", rank, w, width)
					}
				}
			}
		}
	})
}
