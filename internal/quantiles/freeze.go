package quantiles

import "melissa/internal/enc"

// Copy-on-write sketch snapshots. A checkpoint used to deep-copy (and
// eagerly compact) every cell's sketch while the fold pipeline stalled —
// O(retained tuples) work on the hot path, two orders of magnitude above
// the plain float-state memmove. FreezeInto replaces that with an O(1)
// per-sketch freeze: the frozen view captures the live tuple and pending
// arrays by reference and marks them shared on the live sketch; the next
// mutating operation on that sketch replaces the shared array with a
// private copy before writing (see the shared* guards in sketch.go), so the
// frozen arrays are immutable from the moment of capture. Compaction and
// encoding happen later, on the background checkpoint writer, from the
// frozen view — off the ingest path entirely.
//
// Concurrency contract: FreezeInto must be called by the goroutine that
// owns the Field (the fold worker), like every other mutating method. The
// frozen view may then be read by a different goroutine (the checkpoint
// writer) provided the usual happens-before edge exists between the freeze
// and the read (the snapshot hand-off channel); the live sketch never
// writes through a shared array, so no further synchronization is needed.

// FrozenField is an immutable point-in-time view of a Field's sketch state,
// cheap to take and safe to read while the source field keeps folding.
type FrozenField struct {
	n     int64
	cells int
	sk    []frozenSketch
}

// frozenSketch captures one sketch's logical state by reference.
type frozenSketch struct {
	eps     float64
	n       int64
	tuples  []tuple
	pending []float64
}

// FreezeInto captures f's current state into dst (reusing its storage;
// allocates one when dst is nil) and marks the captured arrays shared on
// the live sketches. Returns the frozen view.
func (f *Field) FreezeInto(dst *FrozenField) *FrozenField {
	if dst == nil {
		dst = &FrozenField{}
	}
	dst.n = f.n
	dst.cells = len(f.sketches)
	if cap(dst.sk) < len(f.sketches) {
		dst.sk = make([]frozenSketch, len(f.sketches))
	}
	dst.sk = dst.sk[:len(f.sketches)]
	for i := range f.sketches {
		s := &f.sketches[i]
		dst.sk[i] = frozenSketch{eps: s.eps, n: s.n, tuples: s.tuples, pending: s.pending}
		if len(s.tuples) > 0 {
			s.sharedTuples = true
		}
		if len(s.pending) > 0 {
			s.sharedPending = true
		}
	}
	return dst
}

// N returns the number of sample fields folded in at freeze time.
func (fz *FrozenField) N() int64 { return fz.n }

// EncodeFrozenStitched writes the concatenation of frozen parts —
// contiguous cell sub-range views of one partition — in the EncodeStitched
// layout. Each sketch is canonicalized through the caller-provided scratch
// sketch first: its frozen state is loaded, buffered inserts are folded and
// the summary is compressed to the GK-invariant fixpoint, exactly the
// Compact-then-Encode sequence the eager snapshot path used to run on the
// live sketches — so the bytes are identical to that path at the same fold
// state. parts must be non-empty; a nil scratch allocates one.
func EncodeFrozenStitched(w *enc.Writer, parts []*FrozenField, scratch *Sketch) {
	if scratch == nil {
		scratch = &Sketch{}
	}
	total := 0
	for _, p := range parts {
		total += p.cells
	}
	w.I64(parts[0].n)
	w.Int(total)
	for _, p := range parts {
		for i := range p.sk {
			encodeFrozenSketch(w, &p.sk[i], scratch)
		}
	}
}

// encodeFrozenSketch canonicalizes one frozen sketch state in scratch and
// encodes it.
func encodeFrozenSketch(w *enc.Writer, fs *frozenSketch, scratch *Sketch) {
	scratch.init(fs.eps)
	scratch.n = fs.n
	scratch.sharedTuples = false
	scratch.sharedPending = false
	scratch.tuples = append(scratch.tuples[:0], fs.tuples...)
	if cap(scratch.pending) < len(fs.pending) {
		scratch.pending = make([]float64, 0, cap(fs.pending))
	}
	scratch.pending = append(scratch.pending[:0], fs.pending...)
	scratch.flushPending()
	for {
		before := len(scratch.tuples)
		scratch.compress()
		if len(scratch.tuples) >= before {
			break
		}
	}
	w.F64(scratch.eps)
	w.I64(scratch.n)
	w.Int(len(scratch.tuples))
	for _, t := range scratch.tuples {
		w.F64(t.v)
		w.I64(t.g)
		w.I64(t.delta)
	}
}
