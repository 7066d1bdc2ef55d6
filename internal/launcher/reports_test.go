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

// TestLauncherDropsStaleEpochDeltas: after a server restart, the dead
// incarnation's deltas still queued must finish nothing, and must not
// disturb the new incarnation's report streams.
func TestLauncherDropsStaleEpochDeltas(t *testing.T) {
	l, err := New(baseConfig(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	l.srvEpoch = 2
	now := time.Now()
	for rank := range 2 {
		l.handleMessage(encodeReport(wire.Report{ProcRank: rank, Epoch: 1, Seq: 9, Finished: []int{1}, FinishedCount: 5}), now)
	}
	checkBookkeeping(l)
	if g := l.groups[1]; g.finished(l.reporters) || len(g.finishedBy) != 0 {
		t.Fatalf("epoch 1's deltas finished group 1 for ranks %v", g.finishedBy)
	}
	if got := l.stats.StaleReportsDropped; got != 2 {
		t.Fatalf("%d reports dropped, want 2", got)
	}
	// The current epoch's full sets then sync both ranks and finish it.
	for rank := range 2 {
		l.handleMessage(encodeReport(wire.Report{ProcRank: rank, Epoch: 2, Sync: wire.SyncFirst | wire.SyncLast,
			Finished: []int{1}, FinishedCount: 1}), now)
	}
	if !l.groups[1].finished(l.reporters) || l.stale != 0 || l.stats.ReportGaps != 0 {
		t.Fatalf("epoch 2's full sets: finished by %v, %d ranks stale, %d gaps",
			l.groups[1].finishedBy, l.stale, l.stats.ReportGaps)
	}
}

// TestLauncherReportGapResync: a report that skips a sequence number marks
// its rank stale, late frames of the broken connection still count, and the
// next full set clears it.
func TestLauncherReportGapResync(t *testing.T) {
	l, err := New(baseConfig(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	send := func(r wire.Report) { l.handleMessage(encodeReport(r), now) }
	send(wire.Report{ProcRank: 0, Sync: wire.SyncFirst | wire.SyncLast})
	send(wire.Report{ProcRank: 1, Sync: wire.SyncFirst | wire.SyncLast})
	if l.stale != 0 {
		t.Fatalf("%d ranks stale after both full sets", l.stale)
	}
	send(wire.Report{ProcRank: 0, Seq: 1, Finished: []int{0}, FinishedCount: 1})
	// Seq 2 (finishing group 1) is lost; seq 3 reveals the gap.
	send(wire.Report{ProcRank: 0, Seq: 3, Finished: []int{2}, FinishedCount: 3})
	if l.stale != 1 || !l.links[0].stale || l.stats.ReportGaps != 1 {
		t.Fatalf("after a gap: %d stale, links %+v, %d gaps", l.stale, l.links, l.stats.ReportGaps)
	}
	// A finished count that does not continue the last one is a gap too.
	send(wire.Report{ProcRank: 1, Seq: 1, Finished: []int{0}, FinishedCount: 4})
	if l.stale != 2 || l.stats.ReportGaps != 2 {
		t.Fatalf("after a count gap: %d stale, %d gaps", l.stale, l.stats.ReportGaps)
	}
	// The redial's full set, in two chunks, holds the lost finish.
	send(wire.Report{ProcRank: 0, Seq: 4, Sync: wire.SyncFirst, Finished: []int{0, 1}, FinishedCount: 2})
	if !l.links[0].stale {
		t.Fatal("rank 0 in sync before its full set ended")
	}
	send(wire.Report{ProcRank: 0, Seq: 5, Sync: wire.SyncLast, Finished: []int{2}, FinishedCount: 3})
	if l.links[0].stale || l.stale != 1 || !l.groups[1].finishedBy[0] {
		t.Fatalf("after rank 0's full set: links %+v, %d stale", l.links, l.stale)
	}
	// A late frame of the broken connection applies, and changes no link.
	send(wire.Report{ProcRank: 0, Seq: 2, Finished: []int{3}, FinishedCount: 2})
	if !l.groups[3].finishedBy[0] || l.links[0].next != 6 || l.links[0].stale {
		t.Fatalf("late frame: group 3 by %v, link %+v", l.groups[3].finishedBy, l.links[0])
	}
	checkBookkeeping(l)
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
		encodeReport(wire.Report{ProcRank: 1, Started: []int{2}, TimedOut: []int{2, 3}}),
		encodeReport(wire.Report{ProcRank: 0, Epoch: 1, Finished: []int{2}}),
		[]byte{byte(wire.TypeReport)}))
	// A full set in two chunks and a delta from rank 0; a sequence gap on
	// rank 1, then its resync; a stale epoch's delta.
	f.Add(reportFrames(
		encodeReport(wire.Report{ProcRank: 0, Seq: 0, Sync: wire.SyncFirst, Started: []int{3}, Finished: []int{0}, FinishedCount: 1}),
		encodeReport(wire.Report{ProcRank: 0, Seq: 1, Sync: wire.SyncLast, Finished: []int{1}, FinishedCount: 2}),
		encodeReport(wire.Report{ProcRank: 0, Seq: 2, Finished: []int{2}, FinishedCount: 3}),
		encodeReport(wire.Report{ProcRank: 1, Seq: 0, Sync: wire.SyncFirst | wire.SyncLast}),
		encodeReport(wire.Report{ProcRank: 1, Seq: 3, Finished: []int{2}, FinishedCount: 3}),
		encodeReport(wire.Report{ProcRank: 1, Seq: 4, Sync: wire.SyncFirst | wire.SyncLast, Finished: []int{0, 1, 2}, FinishedCount: 3}),
		encodeReport(wire.Report{ProcRank: 1, Epoch: 1, Seq: 5, Finished: []int{3}, FinishedCount: 4})))

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
			stale := 0
			for _, k := range l.links {
				if k.stale {
					stale++
				}
			}
			if stale != l.stale {
				t.Fatalf("%d ranks counted stale, %d are", l.stale, stale)
			}
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
