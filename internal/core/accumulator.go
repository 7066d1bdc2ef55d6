package core

import (
	"fmt"
	"math"
	"unsafe"

	"melissa/internal/quantiles"
	"melissa/internal/sobol"
	"melissa/internal/stats"
)

// Options selects the optional statistics beyond Sobol' indices. Melissa can
// be configured to compute extra iterative statistics on the Y^A and Y^B
// samples only (Sec. 4.1: the other group members have dependent inputs).
type Options struct {
	// MinMax tracks per-cell running min/max over the A and B samples.
	MinMax bool
	// Threshold, when non-nil, counts per-cell exceedances of the given
	// value over the A and B samples.
	Threshold *float64
	// HigherMoments tracks per-cell skewness and kurtosis over the pooled
	// A and B samples (Pébay formulas; suggested in Sec. 4.1 for
	// uncertainty-propagation studies).
	HigherMoments bool
	// Quantiles, when non-empty, maintains a bounded-memory quantile sketch
	// per cell per timestep over the pooled A and B samples (Ribés et al.,
	// "Large scale in transit computation of quantiles for ensemble runs").
	// The listed probabilities are the probes surfaced by results and CLIs;
	// QuantileField can query any q from the same sketch. Each probe must
	// lie in (0, 1). This is the first statistic whose per-cell state is a
	// data structure rather than a few floats; its state rides the same
	// shard/merge/checkpoint machinery as the float trackers.
	Quantiles []float64
	// QuantileEps is the sketch rank-error ε: a quantile query returns a
	// sample whose rank is within ±εn of the target, with O(1/ε) memory per
	// cell instead of O(n). 0 selects quantiles.DefaultEpsilon.
	QuantileEps float64
}

// quantilesEnabled reports whether per-cell quantile sketches are tracked.
func (o Options) quantilesEnabled() bool { return len(o.Quantiles) > 0 }

// withoutQuantiles returns a copy of o with quantile tracking disabled — the
// option set snapshot buffers are built with, since snapshots share frozen
// sketch views instead of owning sketch state.
func (o Options) withoutQuantiles() Options {
	o.Quantiles = nil
	o.QuantileEps = 0
	return o
}

// Interleaved per-cell record layout. Each cell owns one contiguous block of
// float64 slots: the shared A/B moments, one 4-slot block per parameter, and
// — when enabled — the optional tracker state:
//
//	[meanA, m2A, meanB, m2B,
//	 {meanC_k, m2C_k, c2BC_k, c2AC_k} for k = 0..p-1,
//	 {min, max}?, {exceedCount}?, {hMean, hM2, hM3, hM4}?]
//
// so one group fold streams through the state exactly once, touching every
// cache line a single time, instead of making p+1 passes over 4+4p parallel
// arrays — and enabling trackers widens that single sweep instead of
// reintroducing separate strided passes (see the package comment for the
// full rationale). The exceedance count is stored as a float64 holding an
// integer value (exact below 2^53, far beyond any ensemble size), and
// checkpoints keep it that way (LayoutV4 writes the records as they are).
const (
	offMeanA = 0
	offM2A   = 1
	offMeanB = 2
	offM2B   = 3
	// recHeader is the number of shared A/B slots before the per-parameter
	// blocks; recPerParam the slots per parameter block.
	recHeader   = 4
	recPerParam = 4
	// Offsets inside one parameter block, relative to recHeader + 4k.
	blkMeanC = 0
	blkM2C   = 1
	blkC2BC  = 2
	blkC2AC  = 3
)

// recLayout is the record geometry for one (p, Options) combination: the
// total stride and the offsets of the optional tracker slots (-1 when the
// tracker is disabled). sob is the end of the Sobol' parameter blocks —
// loops over parameter blocks run [recHeader, sob), never to stride, which
// now also covers tracker slots.
type recLayout struct {
	stride int
	sob    int // recHeader + recPerParam*p
	min    int // [min, max] slot pair, -1 when Options.MinMax is off
	exc    int // exceedance-count slot, -1 when Options.Threshold is nil
	hig    int // [mean, m2, m3, m4] quad, -1 when Options.HigherMoments is off
}

// layoutFor computes the record geometry for p parameters under opts.
func layoutFor(p int, opts Options) recLayout {
	l := recLayout{sob: recHeader + recPerParam*p, min: -1, exc: -1, hig: -1}
	l.stride = l.sob
	if opts.MinMax {
		l.min = l.stride
		l.stride += 2
	}
	if opts.Threshold != nil {
		l.exc = l.stride
		l.stride++
	}
	if opts.HigherMoments {
		l.hig = l.stride
		l.stride += 4
	}
	return l
}

// Accumulator holds the ubiquitous Sobol' state for one spatial partition
// across all timesteps. It is not safe for concurrent use; each server
// process owns one and updates it from its own message loop ("updating the
// statistics is a local operation", Sec. 4.1.1).
type Accumulator struct {
	cells     int
	timesteps int
	p         int
	stride    int
	lay       recLayout
	opts      Options
	// threshold is *opts.Threshold hoisted for the fused kernel (0 unused).
	threshold float64
	// buf is the single flat allocation backing every timestep's interleaved
	// records; steps[t].rec is its t-th window.
	buf   []float64
	steps []stepAccum
	// ciLevel is the confidence level the per-step ciWidth caches were
	// computed at (0 = never computed).
	ciLevel float64
	// ciBand is scanStepCIWidth's scratch: one slot per (parameter, index).
	ciBand []float64
}

// stepAccum is the per-timestep one-pass state: n, the interleaved record
// block (Sobol' co-moments plus any enabled tracker slots), the incremental
// convergence cache, and the quantile sketches. The tracker sample counts
// (2 per folded group: the A and B members) are the only tracker state kept
// outside the records.
type stepAccum struct {
	n   int64
	rec []float64 // cells × lay.stride interleaved records
	// ciDirty marks that the Sobol' state changed since ciWidth was cached;
	// MaxCIWidth rescans only dirty steps.
	ciDirty bool
	ciWidth float64
	minmaxN int64
	exceedN int64
	higherN int64
	quant   *quantiles.Field
}

// NewAccumulator returns an accumulator for a partition of `cells` cells,
// `timesteps` output steps and p input parameters.
func NewAccumulator(cells, timesteps, p int, opts Options) *Accumulator {
	if cells < 0 || timesteps < 1 || p < 1 {
		panic(fmt.Sprintf("core: invalid accumulator shape cells=%d timesteps=%d p=%d", cells, timesteps, p))
	}
	for _, q := range opts.Quantiles {
		if !(q > 0 && q < 1) {
			panic(fmt.Sprintf("core: quantile probe %v out of (0,1)", q))
		}
	}
	lay := layoutFor(p, opts)
	a := &Accumulator{cells: cells, timesteps: timesteps, p: p, stride: lay.stride, lay: lay, opts: opts}
	if opts.Threshold != nil {
		a.threshold = *opts.Threshold
	}
	a.buf = make([]float64, timesteps*cells*lay.stride)
	a.steps = make([]stepAccum, timesteps)
	window := cells * lay.stride
	for t := range a.steps {
		a.steps[t] = newStepAccum(cells, opts)
		a.steps[t].rec = a.buf[t*window : (t+1)*window : (t+1)*window]
	}
	if lay.min >= 0 {
		// Min/max slots start at the identity of the running min/max, like
		// stats.NewFieldMinMax; every other slot starts at zero.
		for ri := lay.min; ri < len(a.buf); ri += lay.stride {
			a.buf[ri] = math.Inf(1)
			a.buf[ri+1] = math.Inf(-1)
		}
	}
	return a
}

// setCounts adopts src's group and tracker sample counts and marks the
// step's convergence cache stale — the scalar half of replacing a step's
// records wholesale (copy, merge into an empty step, restore).
func (s *stepAccum) setCounts(src *stepAccum) {
	s.n, s.minmaxN, s.exceedN, s.higherN = src.n, src.minmaxN, src.exceedN, src.higherN
	s.ciDirty = true
}

func newStepAccum(cells int, opts Options) stepAccum {
	s := stepAccum{ciDirty: true}
	if opts.quantilesEnabled() {
		s.quant = quantiles.NewField(cells, opts.QuantileEps)
	}
	return s
}

// Cells returns the partition size.
func (a *Accumulator) Cells() int { return a.cells }

// Timesteps returns the number of output steps tracked.
func (a *Accumulator) Timesteps() int { return a.timesteps }

// P returns the number of input parameters.
func (a *Accumulator) P() int { return a.p }

// N returns the number of groups folded into timestep t.
func (a *Accumulator) N(t int) int64 { return a.steps[t].n }

// maxStackFields is how many C-field base pointers UpdateGroup keeps on the
// stack; a wider p allocates them.
const maxStackFields = 16

// UpdateGroup folds the results of one simulation group at output step t:
// yA and yB are the fields of f(A_i) and f(B_i) restricted to this
// partition, yC[k] the field of f(C^k_i). All slices must have length
// Cells(). This is the O(cells·p) inner loop of Melissa Server, one sweep
// over the interleaved records that loads and stores each cell's record —
// Sobol' co-moments and any enabled tracker slots — exactly once.
//
// The sweep is shaped for instruction count (see "The kernel" in the
// package comment). Every length is checked once, up front: len(yA) =
// len(yB) = len(yC[k]) = cells and len(rec) = cells·stride. Under that
// invariant the sweep reads without bounds checks: field k's cell i is
// its base pointer plus 8i bytes, cell i's record base is rec plus
// 8i·stride bytes, and every parameter block and tracker slot group is a
// fixed-size array at an offset below stride from that base, so no pointer
// is ever formed past the end of an allocation. The per-cell arithmetic is
// the original multi-pass kernel's (all C blocks read the pre-update A/B
// means; the A/B moments update next; the trackers see yA then yB last; no
// fused multiply-add, no reciprocal of n), so results are bitwise its.
func (a *Accumulator) UpdateGroup(t int, yA, yB []float64, yC [][]float64) {
	if t < 0 || t >= a.timesteps {
		panic(fmt.Sprintf("core: timestep %d out of range [0,%d)", t, a.timesteps))
	}
	cells := a.cells
	if len(yA) != cells || len(yB) != cells || len(yC) != a.p {
		panic(fmt.Sprintf("core: update shape mismatch: |yA|=%d |yB|=%d |yC|=%d, want cells=%d p=%d",
			len(yA), len(yB), len(yC), cells, a.p))
	}
	var stackCols [maxStackFields]unsafe.Pointer
	cols := stackCols[:]
	if a.p > maxStackFields {
		cols = make([]unsafe.Pointer, a.p)
	}
	cols = cols[:a.p]
	for k, f := range yC {
		if len(f) != cells {
			panic(fmt.Sprintf("core: yC[%d] has %d cells, want %d", k, len(f), cells))
		}
		cols[k] = unsafe.Pointer(unsafe.SliceData(f))
	}
	s := &a.steps[t]
	s.n++
	s.ciDirty = true
	n := float64(s.n)
	lay := a.lay
	stride := lay.stride
	rec := unsafe.Pointer(unsafe.SliceData(s.rec[:cells*stride]))
	// The tracker constants: the threshold and the higher-moment factors of
	// this group's A-then-B pair (they depend only on the tracker sample
	// count, 2 per group). gc keeps an array in memory, so they take no
	// float register from the Sobol' chains across the sweep.
	var tc [6]float64 // th, nA1, nA, nB, nnA, nnB
	tc[0] = a.threshold
	if lay.hig >= 0 {
		nA1 := float64(s.higherN)
		nA := nA1 + 1
		nB := nA + 1
		tc[1], tc[2], tc[3] = nA1, nA, nB
		tc[4] = nA*nA - 3*nA + 3
		tc[5] = nB*nB - 3*nB + 3
		s.higherN += 2
	}
	if lay.min >= 0 {
		s.minmaxN += 2
	}
	if lay.exc >= 0 {
		s.exceedN += 2
	}
	// The sketches are state of their own, so they go first: then nothing
	// after the sweep needs yA and yB, and gc keeps them out of its loop.
	if s.quant != nil {
		s.quant.UpdatePair(yA, yB)
	}
	for i := 0; i < cells; i++ {
		r := unsafe.Add(rec, 8*i*stride)
		ab := (*[recHeader]float64)(r)
		ya, yb := yA[i], yB[i]
		dA := ya - ab[offMeanA] // deviations from the *old* A/B means
		dB := yb - ab[offMeanB]
		at := 8 * i          // cell i's byte offset into every C field
		off := 8 * recHeader // parameter block k's byte offset into the record
		for _, col := range cols {
			y := *(*float64)(unsafe.Add(col, at))
			c := (*[recPerParam]float64)(unsafe.Add(r, off))
			off += 8 * recPerParam
			mC := c[blkMeanC]
			dC := y - mC
			mC += dC / n
			e := y - mC // deviation from the *new* C mean
			c[blkMeanC] = mC
			c[blkM2C] += dC * e
			c[blkC2BC] += dB * e
			c[blkC2AC] += dA * e
		}
		ab[offMeanA] += dA / n
		ab[offM2A] += dA * (ya - ab[offMeanA])
		ab[offMeanB] += dB / n
		ab[offM2B] += dB * (yb - ab[offMeanB])
		// Tracker slots ride the same record while it is register/cache-warm.
		// Each tracker sees yA then yB: the arithmetic of stats.Field*
		// Update(yA) then Update(yB), replicated bitwise.
		if lay.min >= 0 {
			m := (*[2]float64)(unsafe.Add(r, 8*lay.min))
			lo, hi := m[0], m[1]
			if ya < lo {
				lo = ya
			}
			if ya > hi {
				hi = ya
			}
			if yb < lo {
				lo = yb
			}
			if yb > hi {
				hi = yb
			}
			m[0], m[1] = lo, hi
		}
		if lay.exc >= 0 {
			x := (*float64)(unsafe.Add(r, 8*lay.exc))
			c, th := *x, tc[0]
			if ya > th {
				c++
			}
			if yb > th {
				c++
			}
			*x = c
		}
		if lay.hig >= 0 {
			m := (*[4]float64)(unsafe.Add(r, 8*lay.hig))
			mean, m2, m3, m4 := m[0], m[1], m[2], m[3]
			nA1, nA, nB, nnA, nnB := tc[1], tc[2], tc[3], tc[4], tc[5]
			delta := ya - mean
			deltaN := delta / nA
			deltaN2 := deltaN * deltaN
			term1 := delta * deltaN * nA1
			mean += deltaN
			m4 += term1*deltaN2*nnA + 6*deltaN2*m2 - 4*deltaN*m3
			m3 += term1*deltaN*(nA-2) - 3*deltaN*m2
			m2 += term1
			delta = yb - mean
			deltaN = delta / nB
			deltaN2 = deltaN * deltaN
			term1 = delta * deltaN * nA
			mean += deltaN
			m4 += term1*deltaN2*nnB + 6*deltaN2*m2 - 4*deltaN*m3
			m3 += term1*deltaN*(nB-2) - 3*deltaN*m2
			m2 += term1
			m[0], m[1], m[2], m[3] = mean, m2, m3, m4
		}
	}
}

// rec returns cell i's interleaved record at step t.
func (a *Accumulator) rec(t, i int) []float64 {
	ri := i * a.stride
	return a.steps[t].rec[ri : ri+a.stride : ri+a.stride]
}

// FirstAt returns the Martinez first-order index S_k(x, t) for local cell i.
func (a *Accumulator) FirstAt(t, k, i int) float64 {
	r := a.rec(t, i)
	off := recHeader + recPerParam*k
	return correlation(r[off+blkC2BC], r[offM2B], r[off+blkM2C])
}

// TotalAt returns the total index ST_k(x, t) for local cell i. It reports 0
// before two groups have arrived.
func (a *Accumulator) TotalAt(t, k, i int) float64 {
	if a.steps[t].n < 2 {
		return 0
	}
	r := a.rec(t, i)
	off := recHeader + recPerParam*k
	return 1 - correlation(r[off+blkC2AC], r[offM2A], r[off+blkM2C])
}

// FirstField writes the per-cell first-order index field S_k(·, t) into dst
// (allocating when nil or too small) and returns it.
func (a *Accumulator) FirstField(t, k int, dst []float64) []float64 {
	dst = ensureLen(dst, a.cells)
	rec := a.steps[t].rec
	off := recHeader + recPerParam*k
	for i, ri := 0, 0; i < a.cells; i, ri = i+1, ri+a.stride {
		dst[i] = correlation(rec[ri+off+blkC2BC], rec[ri+offM2B], rec[ri+off+blkM2C])
	}
	return dst
}

// TotalField writes the per-cell total index field ST_k(·, t) into dst.
func (a *Accumulator) TotalField(t, k int, dst []float64) []float64 {
	dst = ensureLen(dst, a.cells)
	if a.steps[t].n < 2 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	rec := a.steps[t].rec
	off := recHeader + recPerParam*k
	for i, ri := 0, 0; i < a.cells; i, ri = i+1, ri+a.stride {
		dst[i] = 1 - correlation(rec[ri+off+blkC2AC], rec[ri+offM2A], rec[ri+off+blkM2C])
	}
	return dst
}

// MeanField writes the per-cell mean of the B sample at step t into dst.
func (a *Accumulator) MeanField(t int, dst []float64) []float64 {
	return a.column(&a.steps[t], offMeanB, dst)
}

// VarianceField writes the per-cell unbiased variance of the B sample at
// step t into dst — the Fig. 8 co-visualization map that guards against
// interpreting Sobol' indices where Var(Y) ≈ 0 (Sec. 5.5).
func (a *Accumulator) VarianceField(t int, dst []float64) []float64 {
	dst = ensureLen(dst, a.cells)
	s := &a.steps[t]
	if s.n < 2 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	div := float64(s.n - 1)
	for i, ri := 0, 0; i < a.cells; i, ri = i+1, ri+a.stride {
		dst[i] = s.rec[ri+offM2B] / div
	}
	return dst
}

// InteractionField writes 1 − ΣS_k(·, t) into dst: the share of variance
// attributable to parameter interactions (Sec. 5.5 uses it to decide the
// total indices are redundant for this use case). With the interleaved
// layout the per-cell sum over k reads one contiguous record.
func (a *Accumulator) InteractionField(t int, dst []float64) []float64 {
	dst = ensureLen(dst, a.cells)
	rec := a.steps[t].rec
	for i, ri := 0, 0; i < a.cells; i, ri = i+1, ri+a.stride {
		r := rec[ri : ri+a.stride]
		sum := 0.0
		for off := recHeader; off < a.lay.sob; off += recPerParam {
			sum += correlation(r[off+blkC2BC], r[offM2B], r[off+blkM2C])
		}
		dst[i] = 1 - sum
	}
	return dst
}

// The optional trackers read like every other statistic — a per-cell field
// written into dst — straight out of the interleaved records; each getter
// returns nil when its tracker is not enabled. The derived values
// (probability, skewness, kurtosis) go through the internal/stats functions
// the stats.Field* reference trackers also read through, so the equivalence
// tests can hold the two sides to ==.

// MinField writes the per-cell running minimum over the A and B samples at
// step t into dst (+Inf before any sample).
func (a *Accumulator) MinField(t int, dst []float64) []float64 {
	if a.lay.min < 0 {
		return nil
	}
	return a.column(&a.steps[t], a.lay.min, dst)
}

// MaxField writes the per-cell running maximum over the A and B samples at
// step t into dst (-Inf before any sample).
func (a *Accumulator) MaxField(t int, dst []float64) []float64 {
	if a.lay.min < 0 {
		return nil
	}
	return a.column(&a.steps[t], a.lay.min+1, dst)
}

// ExceedanceField writes, per cell, the fraction of the A and B samples at
// step t that exceeded Options.Threshold into dst.
func (a *Accumulator) ExceedanceField(t int, dst []float64) []float64 {
	if a.lay.exc < 0 {
		return nil
	}
	s := &a.steps[t]
	dst = a.column(s, a.lay.exc, dst)
	for i, count := range dst {
		dst[i] = stats.ExceedanceProbability(count, s.exceedN)
	}
	return dst
}

// SkewnessField writes the per-cell sample skewness of the pooled A and B
// samples at step t into dst.
func (a *Accumulator) SkewnessField(t int, dst []float64) []float64 {
	return a.higherField(t, dst, 2, stats.Skewness)
}

// KurtosisField writes the per-cell sample excess kurtosis of the pooled A
// and B samples at step t into dst.
func (a *Accumulator) KurtosisField(t int, dst []float64) []float64 {
	return a.higherField(t, dst, 3, stats.Kurtosis)
}

// higherField writes f(n, m2, m_k) per cell into dst, m_k being slot k of the
// higher-moment quad [mean, m2, m3, m4].
func (a *Accumulator) higherField(t int, dst []float64, k int, f func(n int64, m2, mk float64) float64) []float64 {
	if a.lay.hig < 0 {
		return nil
	}
	s := &a.steps[t]
	dst = ensureLen(dst, a.cells)
	for i, ri := 0, a.lay.hig; i < a.cells; i, ri = i+1, ri+a.stride {
		dst[i] = f(s.higherN, s.rec[ri+1], s.rec[ri+k])
	}
	return dst
}

// TrackerSamples returns how many samples the min/max, exceedance and
// higher-moment trackers have folded at step t: two per group (the A and B
// members), 0 for a disabled tracker.
func (a *Accumulator) TrackerSamples(t int) (minmax, exceed, higher int64) {
	s := &a.steps[t]
	return s.minmaxN, s.exceedN, s.higherN
}

// Quantiles returns the optional per-cell quantile sketches for step t (nil
// when not enabled).
func (a *Accumulator) Quantiles(t int) *quantiles.Field { return a.steps[t].quant }

// QuantileProbes returns the configured quantile probe list (nil when
// quantile tracking is disabled).
func (a *Accumulator) QuantileProbes() []float64 { return a.opts.Quantiles }

// QuantileField writes the per-cell q-quantile estimate of the pooled A/B
// sample at step t into dst. Any q in [0, 1] may be queried, not only the
// configured probes; without quantile tracking the field is all zeros
// (matching the other statistics before data arrives).
func (a *Accumulator) QuantileField(t int, q float64, dst []float64) []float64 {
	s := &a.steps[t]
	if s.quant == nil {
		dst = ensureLen(dst, a.cells)
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	return s.quant.QueryField(q, dst)
}

// QuantileTupleCount returns the total number of retained sketch tuples
// across all cells and timesteps — the O(cells/ε) memory quantity of the
// quantile statistic (0 when disabled). Together with MemoryBytes this is
// the sketch-tuning telemetry surfaced by server results.
func (a *Accumulator) QuantileTupleCount() int64 {
	var total int64
	for t := range a.steps {
		if q := a.steps[t].quant; q != nil {
			total += q.TupleCount()
		}
	}
	return total
}

// QuantileTelemetry returns the retained sketch tuples and their byte
// estimate across all cells and timesteps in one pass — the live mirror of
// QuantileTupleCount/MemoryBytes surfaced as gauges while a study runs.
// Must be called by the goroutine that owns the accumulator (a fold worker
// for a shard): counting folds buffered inserts first.
func (a *Accumulator) QuantileTelemetry() (tuples, bytes int64) {
	for t := range a.steps {
		if q := a.steps[t].quant; q != nil {
			qt, qb := q.Telemetry()
			tuples += qt
			bytes += qb
		}
	}
	return tuples, bytes
}

// CompactQuantiles runs the sketch compaction pass on every timestep's
// quantile field (no-op when quantiles are disabled). With copy-on-write
// snapshots the checkpoint path no longer calls this — the background writer
// compacts frozen views instead — but it stays as the eager reference the
// snapshot bytes are tested against; see quantiles.Field.Compact.
func (a *Accumulator) CompactQuantiles() {
	for t := range a.steps {
		if q := a.steps[t].quant; q != nil {
			q.Compact()
		}
	}
}

// FirstCI returns the Eq. 8 confidence interval for S_k at (t, cell i).
func (a *Accumulator) FirstCI(t, k, i int, level float64) sobol.Interval {
	return sobol.FirstOrderCI(a.FirstAt(t, k, i), a.steps[t].n, level)
}

// TotalCI returns the Eq. 9 confidence interval for ST_k at (t, cell i).
func (a *Accumulator) TotalCI(t, k, i int, level float64) sobol.Interval {
	return sobol.TotalOrderCI(a.TotalAt(t, k, i), a.steps[t].n, level)
}

// MaxCIWidth returns the widest confidence interval over all timesteps,
// cells and parameters — the single convergence scalar of Sec. 4.1.5 ("only
// keep the largest value over all the mesh and all the timesteps"). Cells
// whose output variance vanishes are skipped: their indices are meaningless
// (Sec. 5.5) and would otherwise pin the width at its maximum.
//
// The scan is incremental: each timestep caches its worst width and is only
// rescanned when a fold, merge or restore touched it since the last call at
// the same level, so repeated convergence reports cost O(dirty state), not
// O(total state). The cache makes this a mutating call: like UpdateGroup it
// must not race with other accessors.
func (a *Accumulator) MaxCIWidth(level float64) float64 {
	if level != a.ciLevel {
		for t := range a.steps {
			a.steps[t].ciDirty = true
		}
		a.ciLevel = level
	}
	var worst float64
	for t := range a.steps {
		s := &a.steps[t]
		if s.n < 4 {
			return math.Inf(1)
		}
		if s.ciDirty {
			s.ciWidth = a.scanStepCIWidth(s, level)
			s.ciDirty = false
		}
		if s.ciWidth > worst {
			worst = s.ciWidth
		}
	}
	return worst
}

// scanStepCIWidth returns the widest first and total-order interval of one
// timestep over all cells and parameters — bitwise the maximum an evaluation
// of every cell's interval would return — without evaluating every cell.
//
// All intervals of a timestep share n, and at fixed n the Eq. 8/9 width
// shrinks as |ρ̂| grows (ρ̂ = Ŝ_k, or 1 − ŜT_k for the total-order form), so
// the widest interval of a (parameter, index) sits at the cell with the
// smallest |ρ̂|. Pass one finds that minimum with compares only; pass two
// evaluates the exact interval on the cells within the rounding-safe band
// around it (sobol.CI.Guard) and keeps the largest. Two passes rather than a
// running minimum: on a smooth field, where |ρ̂| barely moves from cell to
// cell, a running minimum would evaluate nearly every cell it visits.
//
// The estimates are correlation() with a cell's square roots taken once
// instead of once per parameter and index: the same operations on the same
// operands, hence the floats FirstAt and TotalAt return.
func (a *Accumulator) scanStepCIWidth(s *stepAccum, level float64) float64 {
	if a.ciBand == nil {
		a.ciBand = make([]float64, 2*a.p)
	}
	// band[2k], band[2k+1]: the least ρ̂² of parameter k's first and
	// total-order estimates, then (after pass one) the guard bound above it.
	band := a.ciBand
	for j := range band {
		band[j] = math.Inf(1)
	}
	stride, sob := a.stride, a.lay.sob
	for ri := 0; ri < len(s.rec); ri += stride {
		r := s.rec[ri : ri+stride]
		m2A, m2B := r[offM2A], r[offM2B]
		if m2B == 0 {
			continue
		}
		rA, rB := math.Sqrt(m2A), math.Sqrt(m2B)
		for off, j := recHeader, 0; off < sob; off, j = off+recPerParam, j+2 {
			m2C := r[off+blkM2C]
			if m2C == 0 {
				continue
			}
			rC := math.Sqrt(m2C)
			// A NaN key fails every compare and so never becomes a minimum.
			if key := ciKey(r[off+blkC2BC] / (rB * rC)); key < band[j] {
				band[j] = key
			}
			if m2A == 0 {
				continue
			}
			total := 1 - r[off+blkC2AC]/(rA*rC)
			if key := ciKey(1 - total); key < band[j+1] {
				band[j+1] = key
			}
		}
	}
	ci := sobol.NewCI(s.n, level)
	for j := range band {
		band[j] = ci.Guard(band[j])
	}
	// Pass two. A NaN estimate is inside every band (it fails the > compare),
	// gets a NaN width and loses `w > worst`, exactly as in an exhaustive
	// scan. prevFirst/prevTotal reuse the last evaluated width when the next
	// candidate carries the same estimate (a spatially uniform field).
	var worst float64
	prevFirst, prevTotal := math.NaN(), math.NaN()
	var wFirst, wTotal float64
	for ri := 0; ri < len(s.rec); ri += stride {
		r := s.rec[ri : ri+stride]
		m2A, m2B := r[offM2A], r[offM2B]
		if m2B == 0 {
			continue
		}
		rA, rB := math.Sqrt(m2A), math.Sqrt(m2B)
		for off, j := recHeader, 0; off < sob; off, j = off+recPerParam, j+2 {
			m2C := r[off+blkM2C]
			if m2C == 0 {
				continue
			}
			rC := math.Sqrt(m2C)
			first := r[off+blkC2BC] / (rB * rC)
			if !(ciKey(first) > band[j]) {
				if first != prevFirst {
					prevFirst, wFirst = first, ci.First(first).Width()
				}
				if wFirst > worst {
					worst = wFirst
				}
			}
			if m2A == 0 {
				continue
			}
			total := 1 - r[off+blkC2AC]/(rA*rC)
			if !(ciKey(1-total) > band[j+1]) {
				if total != prevTotal {
					prevTotal, wTotal = total, ci.Total(total).Width()
				}
				if wTotal > worst {
					worst = wTotal
				}
			}
		}
	}
	return worst
}

// ciKey orders estimates by interval width: ρ̂² as the interval formulas see
// it, i.e. capped where they clamp |ρ̂|. NaN stays NaN. (The square, not
// math.Abs: the band is stated in ρ̂², and the multiply is cheaper than the
// sign-bit round trip through an integer register.)
func ciKey(rho float64) float64 {
	const keyMax = sobol.ClampMax * sobol.ClampMax
	k := rho * rho
	if k > keyMax {
		k = keyMax
	}
	return k
}

// MemoryBytes returns the size of the float64 state, the quantity of the
// Sec. 4.1.1 memory model (timesteps × cells × statistics × 8 bytes), plus
// the dynamic quantile-sketch state when enabled — O(cells/ε), bounded
// regardless of the number of groups folded. With the interleaved trackers
// the record stride *is* the per-cell statistic count.
func (a *Accumulator) MemoryBytes() int64 {
	total := 8 * int64(a.stride) * int64(a.cells) * int64(a.timesteps)
	if a.opts.quantilesEnabled() {
		for t := range a.steps {
			total += a.steps[t].quant.MemoryBytes()
		}
	}
	return total
}

// column writes the strided per-cell statistic at record offset `off` of
// step s into dst (allocating when nil or too small) and returns it.
func (a *Accumulator) column(s *stepAccum, off int, dst []float64) []float64 {
	dst = ensureLen(dst, a.cells)
	for i, ri := 0, off; i < a.cells; i, ri = i+1, ri+a.stride {
		dst[i] = s.rec[ri]
	}
	return dst
}

func correlation(c2, m2x, m2y float64) float64 {
	if m2x == 0 || m2y == 0 {
		return 0
	}
	return c2 / (math.Sqrt(m2x) * math.Sqrt(m2y))
}

// ensureLen returns dst resized to n, reallocating when it is nil or too
// small. The result is never nil, even for n = 0: the tracker getters keep
// nil for "not enabled".
func ensureLen(dst []float64, n int) []float64 {
	if dst == nil || cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}
