// Package quantiles implements bounded-memory streaming quantile sketches
// for in-transit order statistics — the extension of Melissa's ubiquitous
// statistics described by Ribés et al., "Large scale in transit computation
// of quantiles for ensemble runs": iterative per-cell quantiles computed
// while the ensemble streams through the server, without ever retaining the
// sample.
//
// The sketch is a Greenwald-Khanna (GK) summary: a sorted list of tuples
// (v, g, Δ) where v is a retained sample, the prefix sum of g lower-bounds
// v's rank and Δ bounds the rank uncertainty. The summary maintains the
// invariant g + Δ ≤ 2εn, which guarantees that Query(q) returns a retained
// sample whose rank among the n inserted values is within ±εn of ⌈q·n⌉ —
// the ε rank-error contract. Memory is O(1/ε) tuples in practice,
// independent of n (the formal GK bound is O((1/ε)·log(εn)); tests pin the
// practical constant), which is what makes per-cell per-timestep sketches
// affordable at Melissa scale where the raw sample would be O(n) per cell.
//
// Updates are buffered (up to 1/(2ε) values) and folded in sorted batches,
// so the amortized update cost is O(log(1/ε)) comparisons plus an O(1/ε)
// merge every buffer flush. All operations — Update, Query, Encode —
// are deterministic functions of the operation sequence, which is what lets
// the sharded fold engine reproduce bitwise-identical sketches for any
// worker count.
package quantiles

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"melissa/internal/enc"
)

// DefaultEpsilon is the rank-error ε used when a sketch is created with a
// non-positive ε: quantile estimates are within ±1% of the true rank.
const DefaultEpsilon = 0.01

// tuple is one GK summary entry: a retained sample v whose rank r satisfies
// rmin ≤ r ≤ rmin + delta, where rmin is the prefix sum of g up to and
// including this tuple.
type tuple struct {
	v     float64
	g     int64
	delta int64
}

// Sketch is a single-variable GK quantile summary. The zero value is not
// usable; construct with New. Not safe for concurrent use.
type Sketch struct {
	eps     float64
	n       int64
	tuples  []tuple
	pending []float64 // buffered inserts, folded in sorted batches
	scratch []tuple   // reusable merge/compress target

	// Copy-on-write freeze support (see FreezeInto): when a snapshot has
	// captured the current tuple/pending arrays by reference, the matching
	// flag is set and the next mutation replaces the array with a private
	// copy instead of writing through the shared one. The frozen reader
	// never looks at the flags, so the owner goroutine can set and clear
	// them without synchronization.
	sharedTuples  bool
	sharedPending bool
}

// New returns an empty sketch with rank error eps. Non-positive eps selects
// DefaultEpsilon; eps above 0.5 is clamped to 0.5.
func New(eps float64) *Sketch {
	s := &Sketch{}
	s.init(eps)
	return s
}

func (s *Sketch) init(eps float64) {
	if eps <= 0 || math.IsNaN(eps) {
		eps = DefaultEpsilon
	}
	if eps > 0.5 {
		eps = 0.5
	}
	s.eps = eps
}

// bufCap is the insertion-buffer size: flushing every 1/(2ε) inserts keeps
// the summary invariant current without per-insert merge cost.
func (s *Sketch) bufCap() int {
	c := int(1 / (2 * s.eps))
	if c < 1 {
		c = 1
	}
	return c
}

// Epsilon returns the sketch's rank-error bound ε.
func (s *Sketch) Epsilon() float64 { return s.eps }

// N returns the number of values folded in.
func (s *Sketch) N() int64 { return s.n + int64(len(s.pending)) }

// TupleCount returns the number of retained summary tuples (buffered values
// are folded first). This is the O(1/ε) memory quantity.
func (s *Sketch) TupleCount() int {
	s.flushPending()
	return len(s.tuples)
}

// MemoryBytes returns the size of the sketch's dynamic state. It depends
// only on the insertion sequence, never on how the sketch was sharded or
// serialized, so sharded and dense accumulators report identical totals.
func (s *Sketch) MemoryBytes() int64 {
	return int64(len(s.tuples))*24 + int64(len(s.pending))*8
}

// Update folds one value. NaN values are ignored (they have no rank).
func (s *Sketch) Update(v float64) {
	if math.IsNaN(v) {
		return
	}
	if s.sharedPending {
		s.unsharePending()
	}
	s.pending = append(s.pending, v)
	if len(s.pending) >= s.bufCap() {
		s.flushPending()
	}
}

// unsharePending replaces the pending buffer with a private copy, leaving
// the shared array to its frozen readers — the copy-on-first-write step of
// the snapshot freeze protocol.
func (s *Sketch) unsharePending() {
	c := s.bufCap()
	if c < len(s.pending) {
		c = len(s.pending)
	}
	fresh := make([]float64, len(s.pending), c)
	copy(fresh, s.pending)
	s.pending = fresh
	s.sharedPending = false
}

// unshareTuplesTarget prepares the compress/merge output target: normally
// the outgoing tuple array is recycled as the next scratch, but a frozen
// array must be abandoned to its readers instead.
func (s *Sketch) unshareTuplesTarget() {
	if s.sharedTuples {
		s.scratch = nil
		s.sharedTuples = false
	} else {
		s.scratch = s.tuples[:0]
	}
}

// flushPending folds the buffered values into the summary: sort the batch,
// merge it into the tuple list in one pass (new interior tuples get
// g = 1, Δ = ⌊2εn⌋−1; a new global min or max gets Δ = 0 so extremes stay
// exact), then compress.
func (s *Sketch) flushPending() {
	if len(s.pending) == 0 {
		return
	}
	if s.sharedPending {
		s.unsharePending() // the in-place sort below must not touch a frozen array
	}
	sort.Float64s(s.pending)
	out := s.scratch[:0]
	ti := 0
	for pi, v := range s.pending {
		// Existing tuples with value ≤ v keep their position (ties resolve
		// existing-first, deterministically).
		for ti < len(s.tuples) && s.tuples[ti].v <= v {
			out = append(out, s.tuples[ti])
			ti++
		}
		s.n++
		var delta int64
		interior := len(out) > 0 && !(ti == len(s.tuples) && pi == len(s.pending)-1)
		if interior {
			delta = int64(2*s.eps*float64(s.n)) - 1
			if delta < 0 {
				delta = 0
			}
		}
		out = append(out, tuple{v: v, g: 1, delta: delta})
	}
	out = append(out, s.tuples[ti:]...)
	s.unshareTuplesTarget()
	s.tuples = out
	s.pending = s.pending[:0]
	s.compress()
}

// compress merges adjacent tuples while g_i + g_{i+1} + Δ_{i+1} ≤ ⌊2εn⌋,
// preserving the rank-error invariant while bounding the summary size. The
// first and last tuples (exact min and max) are never removed.
func (s *Sketch) compress() {
	if len(s.tuples) < 3 {
		return
	}
	threshold := int64(2 * s.eps * float64(s.n))
	out := s.scratch[:0]
	out = append(out, s.tuples[len(s.tuples)-1])
	for i := len(s.tuples) - 2; i >= 1; i-- {
		t := s.tuples[i]
		last := &out[len(out)-1]
		if t.g+last.g+last.delta <= threshold {
			last.g += t.g // fold t into its right neighbor
		} else {
			out = append(out, t)
		}
	}
	out = append(out, s.tuples[0])
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	s.unshareTuplesTarget()
	s.tuples = out
}

// Compact shrinks the sketch to its smallest invariant-preserving form:
// buffered inserts are folded, compress is iterated to a fixpoint (one
// normal pass folds chains right-to-left but can leave newly-adjacent
// mergeable pairs at chain boundaries), and the insertion buffer and merge
// scratch are released. The ε rank-error contract is untouched — compress
// only merges tuples while g_i + g_{i+1} + Δ_{i+1} ≤ ⌊2εn⌋ — and the sketch
// remains fully usable; the next Update simply reallocates its buffer. Run
// before checkpoint writes, this minimizes both the encoded tuple count and
// the retained heap state.
func (s *Sketch) Compact() {
	s.flushPending()
	for {
		before := len(s.tuples)
		s.compress()
		if len(s.tuples) >= before {
			break
		}
	}
	s.pending = nil
	s.sharedPending = false
	s.scratch = nil
}

// Query returns a retained sample whose rank is within ±εN of ⌈q·N⌉. q is
// clamped to [0, 1]; q = 0 and q = 1 return the exact minimum and maximum.
// An empty sketch returns 0 (matching the other field statistics, which
// report zeros before data arrives).
func (s *Sketch) Query(q float64) float64 {
	s.flushPending()
	if s.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.n)))
	// The extremes are retained exactly (first/last tuples have Δ = 0 and
	// are never compressed away); answer them directly rather than letting
	// the tolerance scan settle for a merely ε-close neighbor.
	if rank <= 1 {
		return s.tuples[0].v
	}
	if rank >= s.n {
		return s.tuples[len(s.tuples)-1].v
	}
	tolerance := int64(math.Ceil(s.eps * float64(s.n)))
	var rmin int64
	for i := range s.tuples {
		t := &s.tuples[i]
		rmin += t.g
		if rmin+t.delta-tolerance <= rank && rank <= rmin+tolerance {
			return t.v
		}
	}
	return s.tuples[len(s.tuples)-1].v
}

// Encode appends the sketch state to w (checkpoint format). The buffered
// values are folded first, so encoding is canonical: equal operation
// sequences produce equal bytes.
func (s *Sketch) Encode(w *enc.Writer) {
	s.flushPending()
	w.F64(s.eps)
	w.I64(s.n)
	w.Int(len(s.tuples))
	for _, t := range s.tuples {
		w.F64(t.v)
		w.I64(t.g)
		w.I64(t.delta)
	}
}

// Decode restores the sketch state from r. Errors are reported through
// r.Err(); a corrupt tuple count exhausts the reader rather than
// allocating, and semantically inconsistent state (a positive sample count
// with no tuples) is rejected so it can never panic a later Query.
func (s *Sketch) Decode(r *enc.Reader) {
	s.init(r.F64())
	s.n = r.I64()
	m := r.Int()
	if r.Err() == nil && (s.n < 0 || m < 0 || (s.n > 0 && m == 0) || (s.n == 0 && m > 0)) {
		r.Fail(fmt.Errorf("quantiles: corrupt sketch state (n=%d, %d tuples)", s.n, m))
	}
	if s.sharedTuples {
		s.tuples = nil
		s.sharedTuples = false
	}
	if s.sharedPending {
		s.pending = nil
		s.sharedPending = false
	}
	s.tuples = s.tuples[:0]
	s.pending = s.pending[:0]
	for i := 0; i < m && r.Err() == nil; i++ {
		s.tuples = append(s.tuples, tuple{v: r.F64(), g: r.I64(), delta: r.I64()})
	}
}

// clone returns an independent deep copy of s with canonicalized state.
func (s *Sketch) clone() Sketch {
	s.flushPending()
	return Sketch{
		eps:    s.eps,
		n:      s.n,
		tuples: append([]tuple(nil), s.tuples...),
	}
}

// ParseList parses a comma-separated quantile probe list such as
// "0.05,0.5,0.95" (the CLI flag format). Every probe must lie in (0, 1).
func ParseList(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, part := range parts {
		q, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("quantiles: bad probe %q in %q", part, s)
		}
		if !(q > 0 && q < 1) {
			return nil, fmt.Errorf("quantiles: probe %v out of (0,1)", q)
		}
		out = append(out, q)
	}
	return out, nil
}
