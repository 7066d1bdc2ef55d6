package core

import (
	"fmt"

	"melissa/internal/enc"
	"melissa/internal/quantiles"
)

// Snapshot is a reusable frozen image of an Accumulator's state, taken
// one shard at a time: fold worker i calls SnapshotShard(i, snap) and
// resumes folding immediately. The float state — interleaved Sobol' records
// with any tracker slots riding inside them — moves with one contiguous
// memmove of the shard's flat buffer. The quantile sketches are NOT copied:
// SnapshotShard freezes them in O(1) per sketch, capturing the live tuple
// and pending arrays by reference and marking them shared; the next mutating
// fold on a sketch copies that sketch's state on first write
// (copy-on-write), so the snapshot cost no longer scales with the retained
// tuple count and the eager pre-snapshot Compact pass is gone entirely —
// compaction happens on the background writer, from the frozen view, while
// ingest keeps folding.
//
// Once every shard has snapshotted, the snapshot is a self-consistent image
// of the accumulator at one fold state, and a background writer can encode
// it as the checkpoint's record image (EncodeHeader/EncodeStep, LayoutV4).
// This is the phase split that takes checkpoint encode+I/O off the ingest
// path: the fold pipeline stalls only for the memmove + freeze, never for
// compaction or the file.
//
// A snapshot copies only what changed since a base: SetBase names the
// per-timestep group counts of the last committed checkpoint, and
// SnapshotShard copies (and freezes) only the timesteps whose count differs
// — every fold increments its step's count, so an equal count means the
// step still encodes to the committed bytes. Copied reports which steps
// were taken; the writer encodes those and keeps the committed sections of
// the rest.
//
// Snapshots are pooled: NewSnapshot allocates the buffers once and
// SnapshotShard refreshes them in place, so steady-state checkpointing
// allocates approximately nothing.
type Snapshot struct {
	// acc is a quantile-free deep copy of the source's shards (built with
	// opts.withoutQuantiles; the record layout is identical since sketches
	// never lived in the records), and opts the source's statistics, which
	// the header names.
	acc  *Accumulator
	opts Options
	// frozen[i][t] is shard i's frozen quantile view at timestep t; nil
	// outer slice when quantiles are disabled.
	frozen [][]*quantiles.FrozenField
	// qscratch is the writer-side scratch sketch EncodeStep canonicalizes
	// (flush + compact) each frozen sketch into before encoding, keeping the
	// emitted bytes identical to the historical compact-then-encode path.
	qscratch *quantiles.Sketch
	// fzParts is the reusable per-step stitch argument.
	fzParts []*quantiles.FrozenField
	// base holds the per-step group counts SetBase named; nil copies every
	// step.
	base []int64
}

// NewSnapshot returns an empty snapshot shaped like a, ready to be filled by
// SnapshotShard.
func (a *Accumulator) NewSnapshot() *Snapshot {
	snap := &Snapshot{acc: newAccumulator(a.timesteps, a.p, a.opts.withoutQuantiles(), a.bounds), opts: a.opts}
	if a.opts.quantilesEnabled() {
		snap.frozen = make([][]*quantiles.FrozenField, len(a.shards))
		for i := range snap.frozen {
			snap.frozen[i] = make([]*quantiles.FrozenField, a.timesteps)
		}
		snap.qscratch = new(quantiles.Sketch)
		snap.fzParts = make([]*quantiles.FrozenField, 0, len(a.shards))
	}
	return snap
}

// SetBase names the per-timestep group counts the next SnapshotShard calls
// compare against: a step whose count equals its base count is not copied.
// nil copies every step. Call it before the shards snapshot, not during;
// base must not change afterwards.
func (snap *Snapshot) SetBase(base []int64) {
	if base != nil && len(base) != snap.acc.timesteps {
		panic(fmt.Sprintf("core: snapshot base of %d steps for %d timesteps", len(base), snap.acc.timesteps))
	}
	snap.base = base
}

// Copied reports whether timestep t was copied by the last SnapshotShard
// calls: its group count differs from the base, or there is no base.
func (snap *Snapshot) Copied(t int) bool { return changed(snap.base, t, snap.Count(t)) }

// changed reports whether step t, at group count n, differs from base: a
// nil base differs everywhere.
func changed(base []int64, t int, n int64) bool { return base == nil || n != base[t] }

// Count returns timestep t's group count at the snapshot's fold state.
func (snap *Snapshot) Count(t int) int64 { return snap.acc.N(t) }

// SnapshotShard captures shard i into snap, reusing snap's storage: a
// memmove for the records (trackers included) of the steps whose group
// count differs from the base, plus an O(sketches) freeze of their quantile
// state. Every step's counts are captured. Only the goroutine owning shard
// i may call it (the same contract as UpdateShard); distinct shards may
// snapshot concurrently.
func (a *Accumulator) SnapshotShard(i int, snap *Snapshot) {
	c := snap.acc
	if len(c.shards) != len(a.shards) || c.cells != a.cells || c.timesteps != a.timesteps || c.p != a.p {
		panic(fmt.Sprintf("core: snapshot shape (%d shards, %dx%dx%d) does not match accumulator (%d shards, %dx%dx%d)",
			len(c.shards), c.cells, c.timesteps, c.p,
			len(a.shards), a.cells, a.timesteps, a.p))
	}
	sh := a.shards[i]
	sh.copyInto(snap.acc.shards[i], snap.base)
	if snap.frozen != nil {
		fz := snap.frozen[i]
		for t := range sh.steps {
			if changed(snap.base, t, sh.steps[t].n) {
				fz[t] = sh.steps[t].quant.FreezeInto(fz[t])
			}
		}
	}
}

// copyInto deep-copies a's float state into dst, which must have the same
// shape and record layout: every step's counts, and the records — Sobol'
// co-moments and tracker slots alike — of the steps whose count differs
// from base (all of them for a nil base), one memmove per step window.
// Quantile sketches are NOT copied here (snapshot shards don't have them;
// see SnapshotShard's freeze path).
func (a *shard) copyInto(dst *shard, base []int64) {
	if dst.cells != a.cells || dst.timesteps != a.timesteps || dst.p != a.p {
		panic(fmt.Sprintf("core: copyInto between shapes %dx%dx%d and %dx%dx%d",
			a.cells, a.timesteps, a.p, dst.cells, dst.timesteps, dst.p))
	}
	for t := range a.steps {
		if changed(base, t, a.steps[t].n) {
			copy(dst.steps[t].rec, a.steps[t].rec)
		}
		dst.steps[t].setCounts(&a.steps[t])
	}
}

// Timesteps returns the number of per-timestep sections EncodeStep accepts.
func (snap *Snapshot) Timesteps() int { return snap.acc.timesteps }

// EncodeHeader appends the accumulator header — the first section of the
// streamed checkpoint encode. EncodeHeader followed by EncodeStep for every
// timestep produces the bytes of Accumulator.Encode on the source at the
// snapshot's fold state (with compacted quantile sketches), whatever the
// shard count. version must be LayoutCurrent: older layouts are read, never
// written.
func (snap *Snapshot) EncodeHeader(w *enc.Writer, version int) {
	mustWriteLayout(version)
	header{snap.acc.cells, snap.acc.timesteps, snap.acc.p, snap.opts}.encode(w)
}

// EncodeStep appends timestep t's section: the counts and the record run,
// each shard's record window copied as it is, then the quantile field.
// Frozen sketches are canonicalized (flushed + compacted) into the
// snapshot's scratch sketch one at a time as they stream out, producing the
// same bytes the eager pre-snapshot Compact pass used to.
func (snap *Snapshot) EncodeStep(w *enc.Writer, version, t int) {
	mustWriteLayout(version)
	encodeRecords(w, snap.acc.shards, t)
	if snap.frozen != nil {
		parts := snap.fzParts[:0]
		for i := range snap.frozen {
			parts = append(parts, snap.frozen[i][t])
		}
		snap.fzParts = parts
		quantiles.EncodeFrozenStitched(w, parts, snap.qscratch)
	}
}

// mustWriteLayout panics unless version is the one layout the encoders
// write.
func mustWriteLayout(version int) {
	if version != LayoutCurrent {
		panic(fmt.Sprintf("core: cannot write accumulator layout version %d (only %d is written)", version, LayoutCurrent))
	}
}
