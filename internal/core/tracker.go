package core

import (
	"fmt"
	"sort"

	"melissa/internal/enc"
)

// GroupState describes what a server process knows about one simulation
// group (Sec. 4.2.2: "a server process considers a group started if it
// received at least one message, finished if it received the final timestep
// id").
type GroupState int

// Group lifecycle states.
const (
	GroupUnknown  GroupState = iota // no message ever received
	GroupRunning                    // some but not all timesteps folded
	GroupFinished                   // final timestep folded
)

// GroupTracker implements the discard-on-replay policy of Sec. 4.2.1: every
// server process records, per group, which timesteps it folded; a step is
// folded at most once, so a restarted (or resumed) group can never be folded
// twice into the statistics.
//
// The record per group is a contiguous frontier plus a sparse ahead-set:
// `last` is the highest step with 0..last all folded, and `ahead` holds the
// folded steps beyond it. Steps ahead of the frontier arrive legitimately —
// with per-rank batching, one sim rank's frame for steps 0..3 lands before
// the other ranks' pieces of step 0 complete — so they fold immediately; the
// frontier only advances when the gap below them closes. The split is what
// makes the frontier trustworthy as a *resume point*: everything ≤ last is
// folded, everything after it is safe for a reconnecting group to (re)send,
// and a transport-level frame loss can never be silently skipped — the
// frontier stalls at the hole until a resend or a replay fills it.
type GroupTracker struct {
	finalStep int                      // the last timestep id of a complete run
	last      map[int]int              // group id → contiguous fold frontier
	ahead     map[int]map[int]struct{} // group id → folded steps beyond the frontier
}

// NewGroupTracker returns a tracker for runs whose final timestep id is
// finalStep (i.e. timesteps are 0..finalStep).
func NewGroupTracker(finalStep int) *GroupTracker {
	if finalStep < 0 {
		panic("core: negative final timestep")
	}
	return &GroupTracker{
		finalStep: finalStep,
		last:      make(map[int]int),
		ahead:     make(map[int]map[int]struct{}),
	}
}

// FinalStep returns the timestep id that marks a group as finished.
func (g *GroupTracker) FinalStep() int { return g.finalStep }

// ShouldApply reports whether a message from `group` carrying timestep
// `step` must be folded (true) or discarded as already-folded (false): a
// step is folded when it is neither at-or-below the contiguous frontier nor
// in the ahead-set.
func (g *GroupTracker) ShouldApply(group, step int) bool {
	if last, seen := g.last[group]; seen && step <= last {
		return false
	}
	_, folded := g.ahead[group][step]
	return !folded
}

// Commit records that timestep `step` of `group` has been folded: the
// frontier advances when the step closes the gap (absorbing any
// contiguously-following ahead-steps), otherwise the step parks in the
// ahead-set until the steps below it arrive.
func (g *GroupTracker) Commit(group, step int) {
	last, seen := g.last[group]
	if seen && step <= last {
		return // replay of an already-contiguous step
	}
	next := 0
	if seen {
		next = last + 1
	}
	if step != next {
		set := g.ahead[group]
		if set == nil {
			set = make(map[int]struct{})
			g.ahead[group] = set
		}
		set[step] = struct{}{}
		return
	}
	g.last[group] = step
	g.drainAhead(group)
}

// drainAhead advances the frontier through contiguously-folded ahead-steps.
func (g *GroupTracker) drainAhead(group int) {
	set := g.ahead[group]
	if set == nil {
		return
	}
	last := g.last[group]
	for {
		if _, ok := set[last+1]; !ok {
			break
		}
		delete(set, last+1)
		last++
	}
	g.last[group] = last
	if len(set) == 0 {
		delete(g.ahead, group)
	}
}

// State returns the lifecycle state of a group. A group is finished only
// when every step up to the final one is folded contiguously; folded steps
// stranded beyond a hole keep it Running.
func (g *GroupTracker) State(group int) GroupState {
	last, seen := g.last[group]
	switch {
	case seen && last >= g.finalStep:
		return GroupFinished
	case seen || len(g.ahead[group]) > 0:
		return GroupRunning
	default:
		return GroupUnknown
	}
}

// LastStep returns the contiguous fold frontier of a group — the resume
// point: every step ≤ it is folded — and whether the group has one.
func (g *GroupTracker) LastStep(group int) (int, bool) {
	last, seen := g.last[group]
	return last, seen
}

// Frontiers returns a copy of every group's contiguous fold frontier. A
// checkpoint captures it alongside the encoded tracker: once the checkpoint
// commits, the copy *is* the durable frontier — the steps a restored server
// is guaranteed to still have folded.
func (g *GroupTracker) Frontiers() map[int]int {
	out := make(map[int]int, len(g.last))
	for id, last := range g.last {
		out[id] = last
	}
	return out
}

// Each calls fn with every group the tracker holds a state for (running or
// finished), in no particular order. A server walks it once, on restore.
func (g *GroupTracker) Each(fn func(id int, st GroupState)) {
	for id := range g.last {
		fn(id, g.State(id))
	}
	for id := range g.ahead {
		if _, seen := g.last[id]; !seen {
			fn(id, GroupRunning)
		}
	}
}

// Encode appends the tracker state to w (part of the server checkpoint) in
// the current layout: the final step, then per group, in id order, its
// frontier (-1 for none) and its sorted ahead-steps. The block is unchanged
// since LayoutV3.
func (g *GroupTracker) Encode(w *enc.Writer) {
	w.Int(g.finalStep)
	ids := make([]int, 0, len(g.last)+len(g.ahead))
	for id := range g.last {
		ids = append(ids, id)
	}
	for id := range g.ahead {
		if _, seen := g.last[id]; !seen {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids) // deterministic checkpoints
	w.Int(len(ids))
	for _, id := range ids {
		w.Int(id)
		last, seen := g.last[id]
		if !seen {
			last = -1
		}
		w.Int(last)
		steps := make([]int, 0, len(g.ahead[id]))
		for s := range g.ahead[id] {
			steps = append(steps, s)
		}
		sort.Ints(steps)
		w.Int(len(steps))
		for _, s := range steps {
			w.Int(s)
		}
	}
}

// DecodeGroupTrackerVersion reconstructs a tracker encoded in the given
// checkpoint layout. Pre-V3 files carry one (id, last) pair per group; those
// builds assumed contiguous arrival, so the pair is restored as a contiguous
// frontier with an empty ahead-set.
func DecodeGroupTrackerVersion(r *enc.Reader, version int) (*GroupTracker, error) {
	finalStep := r.Int()
	count := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if finalStep < 0 {
		return nil, fmt.Errorf("core: corrupt group tracker final step %d", finalStep)
	}
	if version < LayoutV3 {
		return decodeLegacyTracker(r, finalStep, count)
	}
	g := NewGroupTracker(finalStep)
	for i := 0; i < count; i++ {
		id := r.Int()
		last := r.Int()
		nahead := r.Int()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if last >= 0 {
			g.last[id] = last
		}
		for j := 0; j < nahead; j++ {
			s := r.Int()
			if err := r.Err(); err != nil {
				return nil, err
			}
			set := g.ahead[id]
			if set == nil {
				set = make(map[int]struct{})
				g.ahead[id] = set
			}
			set[s] = struct{}{}
		}
	}
	return g, nil
}

func decodeLegacyTracker(r *enc.Reader, finalStep, count int) (*GroupTracker, error) {
	g := NewGroupTracker(finalStep)
	for i := 0; i < count; i++ {
		id := r.Int()
		last := r.Int()
		if err := r.Err(); err != nil {
			return nil, err
		}
		g.last[id] = last
	}
	return g, nil
}
