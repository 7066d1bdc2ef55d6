package quantiles

import (
	"fmt"

	"melissa/internal/enc"
)

// Field holds one quantile sketch per mesh cell, sharing the ubiquitous-
// statistics layout of internal/stats: one sample is a whole spatial field
// produced by one simulation at one timestep, and each cell's sketch sees
// that cell's value. Memory is O(cells/ε), independent of the number of
// sample fields folded in.
//
// Contiguous cell ranges of one partition encode and decode as one field
// (EncodeStitched/DecodeStitched), the checkpoint format of the sharded fold
// engine.
type Field struct {
	n        int64
	sketches []Sketch
}

// NewField returns a per-cell sketch array with rank error eps
// (non-positive eps selects DefaultEpsilon).
func NewField(cells int, eps float64) *Field {
	f := &Field{sketches: make([]Sketch, cells)}
	for i := range f.sketches {
		f.sketches[i].init(eps)
	}
	return f
}

// Cells returns the number of cells per sample field.
func (f *Field) Cells() int { return len(f.sketches) }

// Epsilon returns the per-cell rank-error bound ε.
func (f *Field) Epsilon() float64 {
	if len(f.sketches) == 0 {
		return DefaultEpsilon
	}
	return f.sketches[0].eps
}

// N returns the number of sample fields folded in.
func (f *Field) N() int64 { return f.n }

// Update folds one sample field. len(values) must equal Cells().
func (f *Field) Update(values []float64) {
	if len(values) != len(f.sketches) {
		panic(fmt.Sprintf("quantiles: field of %d cells updated with %d values", len(f.sketches), len(values)))
	}
	f.n++
	for i, x := range values {
		f.sketches[i].Update(x)
	}
}

// UpdatePair folds two sample fields (the A and B members of one group) in
// one sweep over the per-cell sketches. Each cell's sketch sees a[i] then
// b[i], exactly the sequence of Update(a) followed by Update(b), so the
// resulting summaries are bitwise identical to two separate passes.
func (f *Field) UpdatePair(a, b []float64) {
	if len(a) != len(f.sketches) || len(b) != len(f.sketches) {
		panic(fmt.Sprintf("quantiles: field of %d cells updated with %d/%d values", len(f.sketches), len(a), len(b)))
	}
	f.n += 2
	for i := range a {
		s := &f.sketches[i]
		s.Update(a[i])
		s.Update(b[i])
	}
}

// Query returns the q-quantile estimate for cell i (0 before any data).
func (f *Field) Query(i int, q float64) float64 {
	return f.sketches[i].Query(q)
}

// QueryField writes the per-cell q-quantile estimates into dst (allocating
// when nil or too small) and returns it.
func (f *Field) QueryField(q float64, dst []float64) []float64 {
	dst = ensureLen(dst, len(f.sketches))
	for i := range f.sketches {
		dst[i] = f.sketches[i].Query(q)
	}
	return dst
}

// MemoryBytes returns the dynamic sketch state across cells.
func (f *Field) MemoryBytes() int64 {
	var total int64
	for i := range f.sketches {
		total += f.sketches[i].MemoryBytes()
	}
	return total
}

// TupleCount returns the total number of retained summary tuples across
// cells — the O(cells/ε) memory quantity, the telemetry for tuning ε
// against a memory budget. Buffered inserts are folded first, so the count
// reflects the canonical summaries.
func (f *Field) TupleCount() int64 {
	var total int64
	for i := range f.sketches {
		total += int64(f.sketches[i].TupleCount())
	}
	return total
}

// Telemetry returns TupleCount and MemoryBytes in one pass over the cells —
// the live gauge pair surfaced while a study runs. Like TupleCount it must
// only be called by the goroutine that owns the field (buffered inserts may
// be folded).
func (f *Field) Telemetry() (tuples, bytes int64) {
	for i := range f.sketches {
		tuples += int64(f.sketches[i].TupleCount())
		bytes += f.sketches[i].MemoryBytes()
	}
	return tuples, bytes
}

// Compact runs the sketch compaction pass on every cell (see
// Sketch.Compact): buffered inserts are folded, the summaries are compressed
// to a fixpoint of the GK invariant, and working buffers are released.
// Called before checkpoint writes to shrink the encoded state; folding may
// continue afterwards.
func (f *Field) Compact() {
	for i := range f.sketches {
		f.sketches[i].Compact()
	}
}

// Extract returns a new field over cells [lo, hi) with deep-copied sketch
// state and the same sample count.
func (f *Field) Extract(lo, hi int) *Field {
	out := &Field{n: f.n, sketches: make([]Sketch, hi-lo)}
	for i := lo; i < hi; i++ {
		out.sketches[i-lo] = f.sketches[i].clone()
	}
	return out
}

// EncodeStitched appends the concatenation of parts — contiguous cell
// sub-range fields of one partition, in cell order, sharing one sample
// count — to w as one field (checkpoint format). One part writes the whole
// field. parts must be non-empty.
func EncodeStitched(w *enc.Writer, parts []*Field) {
	total := 0
	for _, p := range parts {
		total += len(p.sketches)
	}
	w.I64(parts[0].n)
	w.Int(total)
	for _, p := range parts {
		for i := range p.sketches {
			p.sketches[i].Encode(w)
		}
	}
}

// DecodeStitched is the decoder of the EncodeStitched layout: it restores
// one field straight into parts — contiguous cell sub-range fields of one
// partition, in cell order, whose cell counts must add up to the encoded
// count (one part takes the whole field). It is the inverse of
// EncodeStitched and EncodeFrozenStitched. Errors are reported through
// r.Err().
func DecodeStitched(r *enc.Reader, parts []*Field) {
	n := r.I64()
	cells := r.Int()
	total := 0
	for _, p := range parts {
		total += len(p.sketches)
	}
	if r.Err() == nil && (n < 0 || cells != total) {
		r.Fail(fmt.Errorf("quantiles: corrupt field header (n=%d, cells=%d, want %d)", n, cells, total))
	}
	for _, p := range parts {
		p.n = n
		for i := range p.sketches {
			if r.Err() != nil {
				return
			}
			p.sketches[i].Decode(r)
		}
	}
}

func ensureLen(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}
