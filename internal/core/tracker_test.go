package core

import (
	"math/rand"
	"slices"
	"testing"

	"melissa/internal/enc"
)

func TestTrackerLifecycle(t *testing.T) {
	tr := NewGroupTracker(99)
	if tr.State(7) != GroupUnknown {
		t.Fatal("unseen group should be unknown")
	}
	if !tr.ShouldApply(7, 0) {
		t.Fatal("first message must be applied")
	}
	tr.Commit(7, 0)
	if tr.State(7) != GroupRunning {
		t.Fatal("group with one message should be running")
	}
	for step := 1; step <= 98; step++ {
		tr.Commit(7, step)
	}
	if last, ok := tr.LastStep(7); !ok || last != 98 {
		t.Fatalf("last step = %d/%v", last, ok)
	}
	if tr.State(7) != GroupRunning {
		t.Fatal("group one step short of final should still be running")
	}
	tr.Commit(7, 99)
	if tr.State(7) != GroupFinished {
		t.Fatal("group at final step should be finished")
	}
}

// A lost frame must stall the contiguous frontier, never be skipped: steps
// folded beyond the hole park in the ahead-set (still replay-protected), and
// the frontier jumps forward only when the hole is filled by a resend.
func TestTrackerHoleStallsFrontier(t *testing.T) {
	tr := NewGroupTracker(9)
	tr.Commit(4, 0)
	tr.Commit(4, 1)
	// Step 2 is lost in transit; steps 3..5 still arrive and fold.
	for step := 3; step <= 5; step++ {
		if !tr.ShouldApply(4, step) {
			t.Fatalf("ahead step %d rejected", step)
		}
		tr.Commit(4, step)
	}
	if last, _ := tr.LastStep(4); last != 1 {
		t.Fatalf("frontier advanced over a hole: last = %d", last)
	}
	if tr.State(4) != GroupRunning {
		t.Fatal("stalled group should stay running")
	}
	// Ahead-folded steps are replay-protected like contiguous ones.
	for step := 3; step <= 5; step++ {
		if tr.ShouldApply(4, step) {
			t.Fatalf("ahead-folded step %d not discarded on replay", step)
		}
	}
	// The reconnecting group resends its unacked window from last+1; only
	// the hole actually folds, and the frontier drains through the ahead-set.
	if !tr.ShouldApply(4, 2) {
		t.Fatal("hole step must be applied")
	}
	tr.Commit(4, 2)
	if last, _ := tr.LastStep(4); last != 5 {
		t.Fatalf("frontier did not drain ahead-set: last = %d", last)
	}
	for step := 6; step <= 9; step++ {
		tr.Commit(4, step)
	}
	if tr.State(4) != GroupFinished {
		t.Fatal("group should finish after the hole was healed")
	}
}

// A group whose only folded steps are ahead of a hole (e.g. its first frames
// were lost) is still Running for reporting purposes, with no frontier.
func TestTrackerAheadOnlyGroup(t *testing.T) {
	tr := NewGroupTracker(9)
	tr.Commit(2, 5)
	if _, ok := tr.LastStep(2); ok {
		t.Fatal("ahead-only group must not report a resume frontier")
	}
	if tr.State(2) != GroupRunning {
		t.Fatal("ahead-only group should be running")
	}
	if got := groupsIn(tr, GroupRunning); len(got) != 1 || got[0] != 2 {
		t.Fatalf("running = %v", got)
	}
}

func TestTrackerDiscardOnReplay(t *testing.T) {
	tr := NewGroupTracker(9)
	for step := 0; step <= 5; step++ {
		if !tr.ShouldApply(1, step) {
			t.Fatalf("fresh step %d rejected", step)
		}
		tr.Commit(1, step)
	}
	// The group fails and restarts: it resends steps 0..5 (replay) then
	// continues with new ones.
	for step := 0; step <= 5; step++ {
		if tr.ShouldApply(1, step) {
			t.Fatalf("replayed step %d not discarded", step)
		}
	}
	for step := 6; step <= 9; step++ {
		if !tr.ShouldApply(1, step) {
			t.Fatalf("new step %d rejected after replay", step)
		}
		tr.Commit(1, step)
	}
	if tr.State(1) != GroupFinished {
		t.Fatal("group should finish after replayed restart")
	}
}

func TestTrackerRunningFinishedLists(t *testing.T) {
	tr := NewGroupTracker(4)
	for s := 0; s <= 4; s++ {
		tr.Commit(3, s) // finished
	}
	for s := 0; s <= 2; s++ {
		tr.Commit(1, s) // running
	}
	tr.Commit(5, 0) // running
	running := groupsIn(tr, GroupRunning)
	finished := groupsIn(tr, GroupFinished)
	if len(running) != 2 || running[0] != 1 || running[1] != 5 {
		t.Fatalf("running = %v", running)
	}
	if len(finished) != 1 || finished[0] != 3 {
		t.Fatalf("finished = %v", finished)
	}
}

func TestTrackerEncodeDecode(t *testing.T) {
	tr := NewGroupTracker(99)
	rng := rand.New(rand.NewSource(50))
	for g := 0; g < 200; g++ {
		// A contiguous prefix plus a few ahead-parked steps, so both halves
		// of the tracker state round-trip.
		for s := 0; s <= rng.Intn(50); s++ {
			tr.Commit(g, s)
		}
		for i := 0; i < rng.Intn(3); i++ {
			tr.Commit(g, 60+rng.Intn(40))
		}
	}
	w := enc.NewWriter(1024)
	tr.Encode(w)
	got, err := DecodeGroupTrackerVersion(enc.NewReader(w.Bytes()), LayoutCurrent)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.FinalStep() != 99 {
		t.Fatal("final step lost")
	}
	for g := 0; g < 200; g++ {
		a, aok := tr.LastStep(g)
		b, bok := got.LastStep(g)
		if a != b || aok != bok {
			t.Fatalf("group %d: %d/%v vs %d/%v", g, a, aok, b, bok)
		}
		for s := 0; s < 100; s++ {
			if tr.ShouldApply(g, s) != got.ShouldApply(g, s) {
				t.Fatalf("group %d step %d: apply decision lost in round trip", g, s)
			}
		}
	}
	// Deterministic encoding (sorted): two encodes are byte-identical.
	w2 := enc.NewWriter(1024)
	got.Encode(w2)
	if string(w.Bytes()) != string(w2.Bytes()) {
		t.Fatal("checkpoint encoding not deterministic")
	}
}

// A pre-V3 checkpoint stores one (id, last) pair per group — what the builds
// of that era, which assumed contiguous arrival, recorded. Nothing writes the
// layout any more; a hand-encoded block must restore each pair as a
// contiguous frontier with nothing ahead of it.
func TestTrackerLegacyLayoutRoundTrip(t *testing.T) {
	w := enc.NewWriter(64)
	for _, v := range []int{99, 3, 1, 15, 2, 7, 4, 99} { // final step, count, then (id, last) pairs
		w.Int(v)
	}
	for _, version := range []int{LayoutV1, LayoutV2} {
		got, err := DecodeGroupTrackerVersion(enc.NewReader(w.Bytes()), version)
		if err != nil {
			t.Fatalf("v%d legacy decode: %v", version, err)
		}
		if got.FinalStep() != 99 {
			t.Fatalf("v%d: final step %d", version, got.FinalStep())
		}
		for _, want := range [][2]int{{1, 15}, {2, 7}, {4, 99}} {
			if last, ok := got.LastStep(want[0]); !ok || last != want[1] {
				t.Fatalf("v%d group %d: frontier %d/%v, want %d", version, want[0], last, ok, want[1])
			}
			if got.ShouldApply(want[0], want[1]) || !got.ShouldApply(want[0], want[1]+1) {
				t.Fatalf("v%d group %d: frontier is not contiguous", version, want[0])
			}
		}
		if got.State(1) != GroupRunning || got.State(2) != GroupRunning || got.State(4) != GroupFinished {
			t.Fatalf("v%d: legacy groups restored in the wrong states", version)
		}
	}
}

// End-to-end replay-safety invariant (DESIGN.md #3): folding a stream with
// replayed prefixes through the tracker produces statistics identical to the
// clean stream.
func TestDiscardOnReplayExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const cells, p, nGroups, steps = 4, 2, 12, 5

	type msg struct {
		group, step int
		sample      groupSample
	}
	// Build the clean stream: each group sends steps 0..4 in order.
	var clean []msg
	samples := make([][]groupSample, nGroups)
	for g := 0; g < nGroups; g++ {
		samples[g] = randomGroups(rng, steps, cells, p)
		for s := 0; s < steps; s++ {
			clean = append(clean, msg{group: g, step: s, sample: samples[g][s]})
		}
	}
	// Build a faulty stream: some groups crash mid-run and are restarted,
	// resending all their steps from zero (deterministic re-execution).
	var faulty []msg
	for g := 0; g < nGroups; g++ {
		if g%3 == 0 { // this group crashes after step 2
			for s := 0; s <= 2; s++ {
				faulty = append(faulty, msg{g, s, samples[g][s]})
			}
			// restart: full replay
			for s := 0; s < steps; s++ {
				faulty = append(faulty, msg{g, s, samples[g][s]})
			}
		} else {
			for s := 0; s < steps; s++ {
				faulty = append(faulty, msg{g, s, samples[g][s]})
			}
		}
	}
	// Interleave messages of different groups (any order is legal).
	rng.Shuffle(len(faulty), func(i, j int) {
		// Keep per-group order intact: only swap messages of different groups
		// when it does not reorder the same group's steps. A simple stable
		// approach: shuffle only adjacent pairs from different groups.
		if faulty[i].group != faulty[j].group {
			return // full shuffle would break per-group FIFO; skip
		}
	})

	fold := func(stream []msg) *Accumulator {
		acc := NewAccumulator(cells, steps, p, Options{})
		tr := NewGroupTracker(steps - 1)
		for _, m := range stream {
			if !tr.ShouldApply(m.group, m.step) {
				continue
			}
			acc.UpdateGroup(m.step, m.sample.yA, m.sample.yB, m.sample.yC)
			tr.Commit(m.group, m.step)
		}
		return acc
	}
	a, b := fold(clean), fold(faulty)
	for s := 0; s < steps; s++ {
		if a.N(s) != b.N(s) {
			t.Fatalf("step %d: n %d vs %d", s, a.N(s), b.N(s))
		}
		for k := 0; k < p; k++ {
			for i := 0; i < cells; i++ {
				if a.FirstAt(s, k, i) != b.FirstAt(s, k, i) {
					t.Fatalf("replay changed S%d at (%d,%d)", k, s, i)
				}
				if a.TotalAt(s, k, i) != b.TotalAt(s, k, i) {
					t.Fatalf("replay changed ST%d at (%d,%d)", k, s, i)
				}
			}
		}
	}
}

// groupsIn returns the sorted ids of the tracker's groups in state st.
func groupsIn(tr *GroupTracker, st GroupState) []int {
	var ids []int
	tr.Each(func(id int, s GroupState) {
		if s == st {
			ids = append(ids, id)
		}
	})
	slices.Sort(ids)
	return ids
}
