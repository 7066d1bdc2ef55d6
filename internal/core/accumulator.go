package core

import (
	"fmt"
	"math"

	"melissa/internal/enc"
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
// integer value (exact below 2^53, far beyond any ensemble size); the codec
// converts to the historical int64 wire form.
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
	// encScratch/encScratchI are the reusable transpose buffers for
	// Encode/Decode, which keep the dense per-statistic-array checkpoint
	// format (the int64 buffer carries the exceedance counts).
	encScratch  []float64
	encScratchI []int64
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

// UpdateGroup folds the results of one simulation group at output step t:
// yA and yB are the fields of f(A_i) and f(B_i) restricted to this
// partition, yC[k] the field of f(C^k_i). All slices must have length
// Cells(). This is the O(cells·p) inner loop of Melissa Server, fused into a
// single sweep over the interleaved records: each cell's record — Sobol'
// co-moments and any enabled tracker slots — is loaded and stored exactly
// once per group. The parameter blocks are hand-unrolled two at a time
// (pairs of blocks are independent, so their FP chains interleave for
// instruction-level parallelism; gc does not auto-vectorize this loop) and
// every record access goes through a full slice expression with constant
// indices so the bounds checks hoist to one per cell and one per block
// pair — spot-check with `go build -gcflags=-S`. An eight-cell-block
// variant with k-major inner loops and per-block hoisted yC headers
// measured ~15% slower than this form on amd64 (the extra passes over the
// block cost more than the header reloads they save), so the sweep stays
// cell-major.
//
// The per-cell arithmetic order is the one of the original multi-pass
// kernel (all C blocks read the pre-update A/B means; the A/B moments
// update next; the trackers see yA then yB last; slots only ever combine
// with their own block's values), so results are bitwise identical to it.
func (a *Accumulator) UpdateGroup(t int, yA, yB []float64, yC [][]float64) {
	if t < 0 || t >= a.timesteps {
		panic(fmt.Sprintf("core: timestep %d out of range [0,%d)", t, a.timesteps))
	}
	if len(yA) != a.cells || len(yB) != a.cells || len(yC) != a.p {
		panic(fmt.Sprintf("core: update shape mismatch: |yA|=%d |yB|=%d |yC|=%d, want cells=%d p=%d",
			len(yA), len(yB), len(yC), a.cells, a.p))
	}
	for k := range yC {
		if len(yC[k]) != a.cells {
			panic(fmt.Sprintf("core: yC[%d] has %d cells, want %d", k, len(yC[k]), a.cells))
		}
	}
	s := &a.steps[t]
	s.n++
	s.ciDirty = true
	n := float64(s.n)
	lay := a.lay
	stride := lay.stride
	rec := s.rec
	th := a.threshold
	// Higher-moment factors for this group's A-then-B pair, hoisted out of
	// the sweep: they depend only on the tracker sample count (2 per group).
	var nA1, nA, nB, nnA, nnB float64
	if lay.hig >= 0 {
		nA1 = float64(s.higherN)
		nA = nA1 + 1
		nB = nA + 1
		nnA = nA*nA - 3*nA + 3
		nnB = nB*nB - 3*nB + 3
		s.higherN += 2
	}
	if lay.min >= 0 {
		s.minmaxN += 2
	}
	if lay.exc >= 0 {
		s.exceedN += 2
	}
	kPairs := a.p / 2 // unrolled-by-two parameter blocks; odd p leaves a tail
	for i, ri := 0, 0; i < a.cells; i, ri = i+1, ri+stride {
		r := rec[ri : ri+stride : ri+stride]
		ya, yb := yA[i], yB[i]
		dA := ya - r[offMeanA] // deviations from the *old* A/B means
		dB := yb - r[offMeanB]
		// Parameter blocks, unrolled two at a time: each pair shares one
		// 8-slot bounds check and the two blocks' FP chains interleave
		// (they are independent, so the unroll buys instruction-level
		// parallelism the serial chain can't).
		off := recHeader
		for k := 0; k < kPairs; k++ {
			y0 := yC[2*k][i]
			y1 := yC[2*k+1][i]
			c := r[off : off+8 : off+8]
			mC0 := c[blkMeanC]
			mC1 := c[recPerParam+blkMeanC]
			dC0 := y0 - mC0
			dC1 := y1 - mC1
			mC0 += dC0 / n
			mC1 += dC1 / n
			e0 := y0 - mC0 // deviations from the *new* C means
			e1 := y1 - mC1
			c[blkMeanC] = mC0
			c[recPerParam+blkMeanC] = mC1
			c[blkM2C] += dC0 * e0
			c[recPerParam+blkM2C] += dC1 * e1
			c[blkC2BC] += dB * e0
			c[recPerParam+blkC2BC] += dB * e1
			c[blkC2AC] += dA * e0
			c[recPerParam+blkC2AC] += dA * e1
			off += 2 * recPerParam
		}
		if off < lay.sob { // odd p: the last parameter block
			y := yC[a.p-1][i]
			c := r[off : off+4 : off+4]
			mC := c[blkMeanC]
			dC := y - mC
			mC += dC / n
			e := y - mC
			c[blkMeanC] = mC
			c[blkM2C] += dC * e
			c[blkC2BC] += dB * e
			c[blkC2AC] += dA * e
		}
		r[offMeanA] += dA / n
		r[offM2A] += dA * (ya - r[offMeanA])
		r[offMeanB] += dB / n
		r[offM2B] += dB * (yb - r[offMeanB])
		// Tracker slots ride the same record while it is register/cache-warm.
		// Each tracker sees yA then yB: the arithmetic of stats.Field*
		// Update(yA) then Update(yB), replicated bitwise.
		if mo := lay.min; mo >= 0 {
			lo, hi := r[mo], r[mo+1]
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
			r[mo], r[mo+1] = lo, hi
		}
		if eo := lay.exc; eo >= 0 {
			c := r[eo]
			if ya > th {
				c++
			}
			if yb > th {
				c++
			}
			r[eo] = c
		}
		if ho := lay.hig; ho >= 0 {
			m := r[ho : ho+4 : ho+4]
			mean, m2, m3, m4 := m[0], m[1], m[2], m[3]
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
	if s.quant != nil {
		s.quant.UpdatePair(yA, yB)
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
// compacts frozen views instead — but it remains the explicit compaction
// knob; see quantiles.Field.Compact.
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

// Merge folds another accumulator (same shape and options) into a, cell by
// cell and timestep by timestep, using the pairwise co-moment merge formulas
// — one fused sweep over both interleaved buffers per timestep, tracker
// slots included. The per-cell tracker arithmetic replicates the
// internal/stats merge formulas bitwise.
func (a *Accumulator) Merge(other *Accumulator) {
	if other.cells != a.cells || other.timesteps != a.timesteps || other.p != a.p {
		panic("core: merging accumulators of different shapes")
	}
	if other.lay != a.lay {
		panic("core: merging accumulators with different tracker options")
	}
	lay := a.lay
	stride := lay.stride
	for t := range a.steps {
		sa, sb := &a.steps[t], &other.steps[t]
		if sb.n == 0 {
			continue
		}
		sa.ciDirty = true
		if sa.n == 0 {
			copyStep(sa, sb)
			continue
		}
		na, nb := float64(sa.n), float64(sb.n)
		nx := na + nb
		w := na * nb / nx
		// Higher-moment merge factors (the tracker counts 2 samples per
		// group). copyHig covers a decoded state whose tracker count is
		// empty on one side.
		var ha, hb, hx float64
		mergeHig, copyHig := false, false
		if lay.hig >= 0 && sb.higherN > 0 {
			if sa.higherN == 0 {
				copyHig = true
			} else {
				mergeHig = true
				ha, hb = float64(sa.higherN), float64(sb.higherN)
				hx = ha + hb
			}
		}
		for ri := 0; ri < len(sa.rec); ri += stride {
			r := sa.rec[ri : ri+stride : ri+stride]
			q := sb.rec[ri : ri+stride : ri+stride]
			dA := q[offMeanA] - r[offMeanA]
			dB := q[offMeanB] - r[offMeanB]
			for off := recHeader; off < lay.sob; off += recPerParam {
				dC := q[off+blkMeanC] - r[off+blkMeanC]
				r[off+blkC2BC] += q[off+blkC2BC] + dB*dC*w
				r[off+blkC2AC] += q[off+blkC2AC] + dA*dC*w
				r[off+blkM2C] += q[off+blkM2C] + dC*dC*w
				r[off+blkMeanC] += dC * nb / nx
			}
			r[offM2A] += q[offM2A] + dA*dA*w
			r[offM2B] += q[offM2B] + dB*dB*w
			r[offMeanA] += dA * nb / nx
			r[offMeanB] += dB * nb / nx
			if mo := lay.min; mo >= 0 {
				if q[mo] < r[mo] {
					r[mo] = q[mo]
				}
				if q[mo+1] > r[mo+1] {
					r[mo+1] = q[mo+1]
				}
			}
			if eo := lay.exc; eo >= 0 {
				r[eo] += q[eo]
			}
			if hg := lay.hig; mergeHig {
				delta := q[hg] - r[hg]
				delta2 := delta * delta
				r[hg+3] += q[hg+3] +
					delta2*delta2*ha*hb*(ha*ha-ha*hb+hb*hb)/(hx*hx*hx) +
					6*delta2*(ha*ha*q[hg+1]+hb*hb*r[hg+1])/(hx*hx) +
					4*delta*(ha*q[hg+2]-hb*r[hg+2])/hx
				r[hg+2] += q[hg+2] +
					delta*delta2*ha*hb*(ha-hb)/(hx*hx) +
					3*delta*(ha*q[hg+1]-hb*r[hg+1])/hx
				r[hg+1] += q[hg+1] + delta2*ha*hb/hx
				r[hg] += delta * hb / hx
			} else if copyHig {
				copy(r[hg:hg+4], q[hg:hg+4])
			}
		}
		sa.minmaxN += sb.minmaxN
		sa.exceedN += sb.exceedN
		sa.higherN += sb.higherN
		if sa.quant != nil && sb.quant != nil {
			sa.quant.Merge(sb.quant)
		}
		sa.n += sb.n
	}
}

func copyStep(dst, src *stepAccum) {
	dst.n = src.n
	dst.ciDirty = true
	copy(dst.rec, src.rec)
	dst.minmaxN = src.minmaxN
	dst.exceedN = src.exceedN
	dst.higherN = src.higherN
	if dst.quant != nil && src.quant != nil {
		dst.quant.Merge(src.quant)
	}
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

// Accumulator serialization layouts, corresponding one-to-one to the
// checkpoint file versions of internal/checkpoint: LayoutV1 is the original
// format (Sobol' co-moments plus the optional min/max, exceedance and
// higher-moment trackers); LayoutV2 appends the quantile probe list, the
// sketch ε and one per-cell quantile sketch field per timestep; LayoutV3
// leaves the accumulator block unchanged from V2 and only changes the
// GroupTracker block (contiguous frontier plus ahead-set instead of a single
// last-step per group — see tracker.go). All layouts store the state as
// dense per-statistic arrays (meanA, m2A, ... then per k: meanC, m2C, c2BC,
// c2AC, then the tracker sections); Encode/Decode transpose between that
// wire form and the in-memory interleaved records — tracker slots included —
// so files are byte-identical to the ones written before the interleave and
// interchange freely with older builds.
const (
	LayoutV1      = 1
	LayoutV2      = 2
	LayoutV3      = 3
	LayoutCurrent = LayoutV3
)

// column writes the strided per-cell statistic at record offset `off` of
// step s into dst (allocating when nil or too small) and returns it.
func (a *Accumulator) column(s *stepAccum, off int, dst []float64) []float64 {
	dst = ensureLen(dst, a.cells)
	for i, ri := 0, off; i < a.cells; i, ri = i+1, ri+a.stride {
		dst[i] = s.rec[ri]
	}
	return dst
}

// gatherColumn is column into a.encScratch — the transpose step of the dense
// checkpoint layout.
func (a *Accumulator) gatherColumn(s *stepAccum, off int) []float64 {
	a.encScratch = a.column(s, off, a.encScratch)
	return a.encScratch
}

// gatherCountColumn is gatherColumn for the exceedance counts: the records
// hold them as integral float64s, the wire format as int64.
func (a *Accumulator) gatherCountColumn(s *stepAccum, off int) []int64 {
	if cap(a.encScratchI) < a.cells {
		a.encScratchI = make([]int64, a.cells)
	}
	col := a.encScratchI[:a.cells]
	for i, ri := 0, off; i < a.cells; i, ri = i+1, ri+a.stride {
		col[i] = int64(s.rec[ri])
	}
	return col
}

// scatterColumn spreads a dense per-cell array back into record offset `off`
// of step s (the decode-side transpose).
func (a *Accumulator) scatterColumn(s *stepAccum, off int, col []float64) {
	for i, ri := 0, off; i < a.cells; i, ri = i+1, ri+a.stride {
		s.rec[ri] = col[i]
	}
}

// Encode appends the full accumulator state to w in the current checkpoint
// layout.
func (a *Accumulator) Encode(w *enc.Writer) { a.EncodeVersion(w, LayoutCurrent) }

// EncodeVersion appends the accumulator state in the given layout version —
// the compatibility surface for writing files older readers understand.
// Encoding a quantile-enabled accumulator as LayoutV1 drops the quantile
// state (V1 cannot represent it); everything else round-trips bit-exactly.
func (a *Accumulator) EncodeVersion(w *enc.Writer, version int) {
	if version < LayoutV1 || version > LayoutCurrent {
		panic(fmt.Sprintf("core: unknown accumulator layout version %d", version))
	}
	w.Int(a.cells)
	w.Int(a.timesteps)
	w.Int(a.p)
	w.Bool(a.opts.MinMax)
	w.Bool(a.opts.Threshold != nil)
	if a.opts.Threshold != nil {
		w.F64(*a.opts.Threshold)
	}
	w.Bool(a.opts.HigherMoments)
	if version >= LayoutV2 {
		w.F64Slice(a.opts.Quantiles)
		w.F64(a.opts.QuantileEps)
	}
	for t := range a.steps {
		s := &a.steps[t]
		w.I64(s.n)
		w.F64Slice(a.gatherColumn(s, offMeanA))
		w.F64Slice(a.gatherColumn(s, offM2A))
		w.F64Slice(a.gatherColumn(s, offMeanB))
		w.F64Slice(a.gatherColumn(s, offM2B))
		for off := recHeader; off < a.lay.sob; off += recPerParam {
			w.F64Slice(a.gatherColumn(s, off+blkMeanC))
			w.F64Slice(a.gatherColumn(s, off+blkM2C))
			w.F64Slice(a.gatherColumn(s, off+blkC2BC))
			w.F64Slice(a.gatherColumn(s, off+blkC2AC))
		}
		// Tracker sections, gathered straight out of the interleaved records.
		if a.lay.min >= 0 {
			w.I64(s.minmaxN)
			w.F64Slice(a.gatherColumn(s, a.lay.min))
			w.F64Slice(a.gatherColumn(s, a.lay.min+1))
		}
		if a.lay.exc >= 0 {
			w.F64(a.threshold)
			w.I64(s.exceedN)
			w.I64Slice(a.gatherCountColumn(s, a.lay.exc))
		}
		if a.lay.hig >= 0 {
			w.I64(s.higherN)
			w.F64Slice(a.gatherColumn(s, a.lay.hig))
			w.F64Slice(a.gatherColumn(s, a.lay.hig+1))
			w.F64Slice(a.gatherColumn(s, a.lay.hig+2))
			w.F64Slice(a.gatherColumn(s, a.lay.hig+3))
		}
		if version >= LayoutV2 && s.quant != nil {
			s.quant.Encode(w)
		}
	}
}

// DecodeAccumulator reconstructs an accumulator from r (current layout).
func DecodeAccumulator(r *enc.Reader) (*Accumulator, error) {
	return DecodeAccumulatorVersion(r, LayoutCurrent)
}

// DecodeAccumulatorVersion reconstructs an accumulator encoded in the given
// layout version (taken from the checkpoint file header). A V1 stream
// restores cleanly into this reader with quantile tracking disabled — the
// state simply predates the statistic.
func DecodeAccumulatorVersion(r *enc.Reader, version int) (*Accumulator, error) {
	if version < LayoutV1 || version > LayoutCurrent {
		return nil, fmt.Errorf("core: unsupported accumulator layout version %d (this build reads %d..%d)",
			version, LayoutV1, LayoutCurrent)
	}
	cells := r.Int()
	timesteps := r.Int()
	p := r.Int()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if cells < 0 || timesteps < 1 || p < 1 || timesteps > 1<<24 || p > 1<<20 {
		return nil, fmt.Errorf("core: corrupt accumulator header (cells=%d timesteps=%d p=%d)", cells, timesteps, p)
	}
	var opts Options
	opts.MinMax = r.Bool()
	if r.Bool() {
		th := r.F64()
		opts.Threshold = &th
	}
	opts.HigherMoments = r.Bool()
	if version >= LayoutV2 {
		opts.Quantiles = r.F64Slice()
		opts.QuantileEps = r.F64()
		if err := r.Err(); err != nil {
			return nil, err
		}
		for _, q := range opts.Quantiles {
			if !(q > 0 && q < 1) {
				return nil, fmt.Errorf("core: corrupt quantile probe %v", q)
			}
		}
		if !(opts.QuantileEps >= 0 && opts.QuantileEps < 1) {
			return nil, fmt.Errorf("core: corrupt quantile eps %v", opts.QuantileEps)
		}
	}
	a := NewAccumulator(cells, timesteps, p, opts)
	col := make([]float64, cells)
	for t := range a.steps {
		s := &a.steps[t]
		s.n = r.I64()
		readCol := func(off int) {
			r.F64SliceInto(col)
			if r.Err() == nil {
				a.scatterColumn(s, off, col)
			}
		}
		readCol(offMeanA)
		readCol(offM2A)
		readCol(offMeanB)
		readCol(offM2B)
		for off := recHeader; off < a.lay.sob; off += recPerParam {
			readCol(off + blkMeanC)
			readCol(off + blkM2C)
			readCol(off + blkC2BC)
			readCol(off + blkC2AC)
		}
		if a.lay.min >= 0 {
			s.minmaxN = r.I64()
			readCol(a.lay.min)
			readCol(a.lay.min + 1)
		}
		if a.lay.exc >= 0 {
			r.F64() // per-section threshold copy; the header value governs
			s.exceedN = r.I64()
			counts := r.I64Slice()
			if r.Err() == nil {
				if len(counts) != cells {
					return nil, fmt.Errorf("core: exceedance section has %d cells, want %d", len(counts), cells)
				}
				for i, ri := 0, a.lay.exc; i < cells; i, ri = i+1, ri+a.stride {
					s.rec[ri] = float64(counts[i])
				}
			}
		}
		if a.lay.hig >= 0 {
			s.higherN = r.I64()
			readCol(a.lay.hig)
			readCol(a.lay.hig + 1)
			readCol(a.lay.hig + 2)
			readCol(a.lay.hig + 3)
		}
		if version >= LayoutV2 && s.quant != nil {
			s.quant.Decode(r)
			if s.quant.Cells() != a.cells && r.Err() == nil {
				return nil, fmt.Errorf("core: quantile field has %d cells, want %d", s.quant.Cells(), a.cells)
			}
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return a, nil
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
