package server

import (
	"melissa/internal/core"
)

// Result is the assembled global view of a finished study: per-timestep,
// per-cell Sobol' index fields stitched together from every server process's
// partition. This is the Melissa equivalent of the statistic field files the
// launcher collects at the end of a run (artifact appendix A.4).
type Result struct {
	Cells     int
	Timesteps int
	P         int

	procs []*Proc

	// scratch is the per-partition staging slice assemble reuses across
	// field scans — FirstField/TotalField/etc. allocate only the returned
	// global field, not a fresh partition buffer per call. Like the
	// accumulator accessors, the field getters are single-goroutine.
	scratch []float64
}

// GroupsFolded returns the number of groups folded into timestep t (equal
// across processes once the study has drained).
func (r *Result) GroupsFolded(t int) int64 {
	if len(r.procs) == 0 {
		return 0
	}
	return r.procs[0].Accumulator().N(t)
}

// assemble stitches one step-t accumulator field getter (a method expression
// such as (*core.ShardedAccumulator).MeanField, or a closure binding the
// extra argument) across the partitions into one global field; nil when the
// partitions return nil (an optional tracker that is not enabled).
func (r *Result) assemble(t int, get func(a *core.ShardedAccumulator, t int, dst []float64) []float64) []float64 {
	out := make([]float64, r.Cells)
	for _, p := range r.procs {
		part := p.cfg.Partition
		field := get(p.Accumulator(), t, r.scratch)
		if field == nil {
			return nil
		}
		r.scratch = field
		copy(out[part.Lo:part.Hi], field[:part.Len()])
	}
	return out
}

// FirstField returns the global first-order Sobol' field S_k(·, t).
func (r *Result) FirstField(t, k int) []float64 {
	return r.assemble(t, func(a *core.ShardedAccumulator, t int, dst []float64) []float64 {
		return a.FirstField(t, k, dst)
	})
}

// TotalField returns the global total-order Sobol' field ST_k(·, t).
func (r *Result) TotalField(t, k int) []float64 {
	return r.assemble(t, func(a *core.ShardedAccumulator, t int, dst []float64) []float64 {
		return a.TotalField(t, k, dst)
	})
}

// MeanField returns the global output-mean field at timestep t.
func (r *Result) MeanField(t int) []float64 {
	return r.assemble(t, (*core.ShardedAccumulator).MeanField)
}

// VarianceField returns the global output-variance field at timestep t
// (the Fig. 8 map).
func (r *Result) VarianceField(t int) []float64 {
	return r.assemble(t, (*core.ShardedAccumulator).VarianceField)
}

// InteractionField returns the global 1−ΣS_k field at timestep t.
func (r *Result) InteractionField(t int) []float64 {
	return r.assemble(t, (*core.ShardedAccumulator).InteractionField)
}

// The optional trackers over the A and B samples at timestep t. Each field
// is nil unless its tracker was enabled (core.Options.MinMax / Threshold /
// HigherMoments) — in the accumulators actually folded, so a restore from a
// checkpoint written without it reads as disabled too.

// MinField returns the global per-cell minimum.
func (r *Result) MinField(t int) []float64 {
	return r.assemble(t, (*core.ShardedAccumulator).MinField)
}

// MaxField returns the global per-cell maximum.
func (r *Result) MaxField(t int) []float64 {
	return r.assemble(t, (*core.ShardedAccumulator).MaxField)
}

// ExceedanceField returns the global per-cell fraction of samples above the
// threshold.
func (r *Result) ExceedanceField(t int) []float64 {
	return r.assemble(t, (*core.ShardedAccumulator).ExceedanceField)
}

// SkewnessField returns the global per-cell sample skewness.
func (r *Result) SkewnessField(t int) []float64 {
	return r.assemble(t, (*core.ShardedAccumulator).SkewnessField)
}

// KurtosisField returns the global per-cell sample excess kurtosis.
func (r *Result) KurtosisField(t int) []float64 {
	return r.assemble(t, (*core.ShardedAccumulator).KurtosisField)
}

// QuantileField returns the global per-cell q-quantile estimate of the
// pooled A/B sample at timestep t. Any q in [0, 1] can be queried from the
// per-cell sketches, not only the configured probes; without quantile
// tracking the field is all zeros.
func (r *Result) QuantileField(t int, q float64) []float64 {
	return r.assemble(t, func(a *core.ShardedAccumulator, t int, dst []float64) []float64 {
		return a.QuantileField(t, q, dst)
	})
}

// QuantileProbes returns the quantile probe list the accumulators actually
// track — nil when quantiles were not enabled, and also nil after a restore
// from a pre-quantile (v1) checkpoint, which disables the statistic even if
// the configuration requested it. Probes and QuantileField are therefore
// always consistent: non-nil probes imply real sketch state behind them.
func (r *Result) QuantileProbes() []float64 {
	if len(r.procs) == 0 {
		return nil
	}
	return r.procs[0].Accumulator().QuantileProbes()
}

// QuantileTupleCount totals the retained quantile-sketch tuples across all
// processes — the sketch-memory telemetry of the ROADMAP ε-tuning item
// (each tuple is ~24 bytes; divide by Cells×Timesteps for the per-cell
// average the ε guidance works in). Zero when quantiles are disabled.
func (r *Result) QuantileTupleCount() int64 {
	var total int64
	for _, p := range r.procs {
		total += p.Accumulator().QuantileTupleCount()
	}
	return total
}

// MaxCIWidth returns the widest 95% confidence interval over every process.
func (r *Result) MaxCIWidth() float64 {
	var worst float64
	for _, p := range r.procs {
		if w := p.Accumulator().MaxCIWidth(ciLevel); w > worst {
			worst = w
		}
	}
	return worst
}

// MemoryBytes totals the accumulator memory across processes — the Sec. 4.1.1
// server memory model.
func (r *Result) MemoryBytes() int64 {
	var total int64
	for _, p := range r.procs {
		total += p.Accumulator().MemoryBytes()
	}
	return total
}

// Checkpoints sums the checkpoint statistics across processes: writes,
// skipped intervals, total and stall (fold-pipeline blockage) wall time,
// and bytes made durable. StallDuration is the snapshot-copy cost only — the
// encode+fsync part of WriteDuration ran overlapped with ingest.
func (r *Result) Checkpoints() CheckpointStats {
	var total CheckpointStats
	for _, p := range r.procs {
		ck := p.Checkpoints()
		total.Writes += ck.Writes
		total.Skipped += ck.Skipped
		total.WriteDuration += ck.WriteDuration
		total.StallDuration += ck.StallDuration
		total.Reads += ck.Reads
		total.ReadDuration += ck.ReadDuration
		total.LastBytes += ck.LastBytes
		total.BytesWritten += ck.BytesWritten
	}
	return total
}

// Messages totals the data messages processed across processes.
func (r *Result) Messages() int64 {
	var total int64
	for _, p := range r.procs {
		total += p.Messages()
	}
	return total
}

// WireStats aggregates the bulk-data byte accounting of a study: how many
// bytes actually crossed the wire versus what the same payloads cost in the
// raw framing. With the codec off the two are equal; with it negotiated,
// RawBytes−WireBytes is the transfer the compression avoided (the in-transit
// bandwidth the Catalyst/ADIOS2 line of work is about limiting).
type WireStats struct {
	Messages  int64 // bulk data messages received
	WireBytes int64 // payload bytes as received
	RawBytes  int64 // what the same content costs uncompressed
}

// Saved returns the bytes the codec kept off the wire.
func (ws WireStats) Saved() int64 { return ws.RawBytes - ws.WireBytes }

// Ratio returns RawBytes/WireBytes (1.0 when nothing was compressed).
func (ws WireStats) Ratio() float64 {
	if ws.WireBytes == 0 {
		return 1
	}
	return float64(ws.RawBytes) / float64(ws.WireBytes)
}

// WireStats totals the wire-byte telemetry across processes. Safe to read
// while the server runs (the counters are atomics).
func (r *Result) WireStats() WireStats {
	var total WireStats
	for _, p := range r.procs {
		ws := p.route.wireStats()
		total.Messages += ws.Messages
		total.WireBytes += ws.WireBytes
		total.RawBytes += ws.RawBytes
	}
	return total
}

// Tracker returns a merged view of group states across all processes.
func (r *Result) Tracker() *core.GroupTracker {
	merged := core.NewGroupTracker(r.Timesteps - 1)
	for _, p := range r.procs {
		p.route.mergeInto(merged)
	}
	return merged
}
