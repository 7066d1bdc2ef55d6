package core

import (
	"fmt"

	"melissa/internal/enc"
	"melissa/internal/quantiles"
)

// Accumulator serialization layouts, corresponding one-to-one to the
// checkpoint file versions of internal/checkpoint. Every layout starts with
// the same header: the shape, the tracker options and, from LayoutV2 on, the
// quantile probe list and sketch ε.
//
// LayoutV1 to LayoutV3 store each timestep as dense per-statistic arrays
// (meanA, m2A, ... then per k: meanC, m2C, c2BC, c2AC, then the tracker
// sections, the exceedance counts as int64). LayoutV2 appends one per-cell
// quantile sketch field per timestep; LayoutV3 changes only the GroupTracker
// block (tracker.go). These are read-only: the golden fixtures and files
// from older builds restore, but nothing writes them any more.
//
// LayoutV4, the current layout and the only one written, is the record
// image: per timestep n, the sample counts of the enabled trackers, the
// interleaved records of every cell as one run (the in-memory bytes, no
// transpose), then the quantile field. Records are per cell, so the bytes do
// not depend on how the cells are sharded.
const (
	LayoutV1      = 1
	LayoutV2      = 2
	LayoutV3      = 3
	LayoutV4      = 4
	LayoutCurrent = LayoutV4
)

// header is what every accumulator layout starts with: the shape and the
// statistics options.
type header struct {
	cells, timesteps, p int
	opts                Options
}

// encode appends h in the current layout — the one header writer shared by
// Accumulator.Encode and Snapshot.EncodeHeader.
func (h header) encode(w *enc.Writer) {
	w.Int(h.cells)
	w.Int(h.timesteps)
	w.Int(h.p)
	w.Bool(h.opts.MinMax)
	w.Bool(h.opts.Threshold != nil)
	if h.opts.Threshold != nil {
		w.F64(*h.opts.Threshold)
	}
	w.Bool(h.opts.HigherMoments)
	w.F64Slice(h.opts.Quantiles)
	w.F64(h.opts.QuantileEps)
}

// decodeHeader reads the header of the given layout version and vets it
// before anything is allocated. Beyond the range checks, the float state the
// header implies must fit in the bytes left: every layout spends at least
// 8 bytes on each timestep's n and 8 on each record slot of each cell, so a
// header asking for more than r holds is corrupt, whatever it claims.
func decodeHeader(r *enc.Reader, version int) (header, error) {
	var h header
	if version < LayoutV1 || version > LayoutCurrent {
		return h, fmt.Errorf("core: unsupported accumulator layout version %d (this build reads %d..%d)",
			version, LayoutV1, LayoutCurrent)
	}
	h.cells = r.Int()
	h.timesteps = r.Int()
	h.p = r.Int()
	if r.Err() != nil {
		return h, r.Err()
	}
	if h.cells < 0 || h.timesteps < 1 || h.p < 1 || h.timesteps > 1<<24 || h.p > 1<<20 {
		return h, fmt.Errorf("core: corrupt accumulator header (cells=%d timesteps=%d p=%d)", h.cells, h.timesteps, h.p)
	}
	h.opts.MinMax = r.Bool()
	if r.Bool() {
		th := r.F64()
		h.opts.Threshold = &th
	}
	h.opts.HigherMoments = r.Bool()
	if version >= LayoutV2 {
		h.opts.Quantiles = r.F64Slice()
		h.opts.QuantileEps = r.F64()
	}
	if err := r.Err(); err != nil {
		return h, err
	}
	for _, q := range h.opts.Quantiles {
		if !(q > 0 && q < 1) {
			return h, fmt.Errorf("core: corrupt quantile probe %v", q)
		}
	}
	if !(h.opts.QuantileEps >= 0 && h.opts.QuantileEps < 1) {
		return h, fmt.Errorf("core: corrupt quantile eps %v", h.opts.QuantileEps)
	}
	// Divisions, not products: corrupt counts cannot overflow the check.
	stride := layoutFor(h.p, h.opts).stride
	if perStep := r.Remaining() / 8 / h.timesteps; perStep < 1 || h.cells > (perStep-1)/stride {
		return h, fmt.Errorf("core: accumulator header (cells=%d timesteps=%d stride=%d) needs more than the %d bytes left",
			h.cells, h.timesteps, stride, r.Remaining())
	}
	return h, nil
}

// encodeRecords appends timestep t's LayoutV4 record section for shards,
// contiguous cell ranges of one partition in cell order: n, the enabled
// trackers' sample counts, then every cell's record as one length-prefixed
// run, each shard's window copied as it is.
func encodeRecords(w *enc.Writer, shards []*shard, t int) {
	lay := shards[0].lay
	s := &shards[0].steps[t]
	w.I64(s.n)
	if lay.min >= 0 {
		w.I64(s.minmaxN)
	}
	if lay.exc >= 0 {
		w.I64(s.exceedN)
	}
	if lay.hig >= 0 {
		w.I64(s.higherN)
	}
	slots := 0
	for _, sh := range shards {
		slots += len(sh.steps[t].rec)
	}
	w.U64(uint64(slots))
	for _, sh := range shards {
		w.F64Raw(sh.steps[t].rec)
	}
}

// Encode appends the full accumulator state to w in the current layout,
// the shards' records and sketches stitched in cell order, so the bytes do
// not depend on the shard count. They equal those of a Snapshot of a at the
// same fold state, except that quantile sketches are written as they are,
// not compacted.
func (a *Accumulator) Encode(w *enc.Writer) {
	header{a.cells, a.timesteps, a.p, a.opts}.encode(w)
	parts := a.quantileParts()
	for t := 0; t < a.timesteps; t++ {
		encodeRecords(w, a.shards, t)
		if parts != nil {
			for i, sh := range a.shards {
				parts[i] = sh.steps[t].quant
			}
			quantiles.EncodeStitched(w, parts)
		}
	}
}

// quantileParts returns a slot per shard for one step's quantile fields, nil
// when quantiles are disabled.
func (a *Accumulator) quantileParts() []*quantiles.Field {
	if !a.opts.quantilesEnabled() {
		return nil
	}
	return make([]*quantiles.Field, len(a.shards))
}

// DecodeShardedVersion reconstructs an accumulator of (at most) `shards`
// cell ranges from a stream encoded in the given layout version — the
// restore path. Every layout is read straight into the shards, with no
// one-shard intermediate: a LayoutV4 record run is split at the shard bounds
// into the shards' record windows, an older layout's per-statistic arrays
// are scattered into the records, and each quantile field is split into the
// shards' sketches. A V1 stream restores with quantile tracking disabled —
// the state simply predates the statistic.
func DecodeShardedVersion(r *enc.Reader, version, shards int) (*Accumulator, error) {
	h, err := decodeHeader(r, version)
	if err != nil {
		return nil, err
	}
	s := NewSharded(h.cells, h.timesteps, h.p, h.opts, shards)
	parts := s.quantileParts()
	var col []float64
	if version < LayoutV4 {
		col = make([]float64, h.cells)
	}
	for t := 0; t < h.timesteps && r.Err() == nil; t++ {
		if version >= LayoutV4 {
			s.decodeRecords(r, t)
		} else {
			s.decodeColumns(r, t, col)
		}
		if parts != nil {
			for i, sh := range s.shards {
				parts[i] = sh.steps[t].quant
			}
			quantiles.DecodeStitched(r, parts)
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// decodeRecords reads timestep t of a LayoutV4 image: the counts, then the
// record run, cut at the shard bounds straight into the shards' record
// windows.
func (a *Accumulator) decodeRecords(r *enc.Reader, t int) {
	lay := a.shards[0].lay
	var c stepAccum
	c.n = r.I64()
	if lay.min >= 0 {
		c.minmaxN = r.I64()
	}
	if lay.exc >= 0 {
		c.exceedN = r.I64()
	}
	if lay.hig >= 0 {
		c.higherN = r.I64()
	}
	if got, want := r.U64(), uint64(a.cells)*uint64(lay.stride); r.Err() == nil && got != want {
		r.Fail(fmt.Errorf("core: step %d holds %d record slots, want %d", t, got, want))
	}
	for _, sh := range a.shards {
		sh.steps[t].setCounts(&c)
		r.F64RawInto(sh.steps[t].rec)
	}
}

// decodeColumns reads timestep t of a dense LayoutV1–V3 stream — one array
// per statistic, the exceedance counts as int64 — through col, scattering
// each array over the shards' records.
func (a *Accumulator) decodeColumns(r *enc.Reader, t int, col []float64) {
	lay := a.shards[0].lay
	var c stepAccum
	c.n = r.I64()
	read := func(off int) {
		r.F64SliceInto(col)
		if r.Err() == nil {
			a.scatter(t, off, col)
		}
	}
	// The dense arrays come in record-slot order: meanA, m2A, meanB, m2B,
	// then meanC, m2C, c2BC, c2AC per parameter.
	for off := 0; off < lay.sob; off++ {
		read(off)
	}
	if lay.min >= 0 {
		c.minmaxN = r.I64()
		read(lay.min)
		read(lay.min + 1)
	}
	if lay.exc >= 0 {
		r.F64() // per-section threshold copy; the header value governs
		c.exceedN = r.I64()
		counts := r.I64Slice()
		if r.Err() == nil && len(counts) != a.cells {
			r.Fail(fmt.Errorf("core: exceedance section has %d cells, want %d", len(counts), a.cells))
		}
		if r.Err() == nil {
			for i, n := range counts {
				col[i] = float64(n)
			}
			a.scatter(t, lay.exc, col)
		}
	}
	if lay.hig >= 0 {
		c.higherN = r.I64()
		for off := lay.hig; off < lay.hig+4; off++ {
			read(off)
		}
	}
	for _, sh := range a.shards {
		sh.steps[t].setCounts(&c)
	}
}

// scatter spreads col, one value per cell of the partition, into record
// offset off of every shard's step-t records.
func (a *Accumulator) scatter(t, off int, col []float64) {
	for i, sh := range a.shards {
		rec := sh.steps[t].rec
		for c, ri := a.bounds[i], off; ri < len(rec); c, ri = c+1, ri+sh.stride {
			rec[ri] = col[c]
		}
	}
}
