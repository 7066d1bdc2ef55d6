package server

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"melissa/internal/core"
	"melissa/internal/mesh"
)

// ciLevel is the confidence level of every convergence width this package
// computes: worker scans, reports, /status and Result.MaxCIWidth.
const ciLevel = 0.95

// groupStep keys one in-flight (group, timestep) assembly.
type groupStep struct {
	group, step int
}

// piece is one routed step of a bulk message: batch entry s of m over the
// partition-local cells [lo, hi), holding one payload reference.
type piece struct {
	m         *bulkMsg
	s, lo, hi int
}

// span is a run [lo, hi) of partition-local cells some piece covers.
type span struct{ lo, hi int }

// assembly is one (group, timestep)'s pieces, held by reference in arrival
// order until their sorted, merged spans cover the pool's partition; then
// every shard worker folds its cells straight out of them, a later piece
// overwriting an earlier one where they overlap. Nothing in it scales with
// the partition, and assemblies are pooled: steady-state folding allocates
// nothing.
type assembly struct {
	step   int
	pieces []piece
	spans  []span
	// remaining counts the fold workers that have not yet folded this
	// assembly into their shard; the worker that decrements it to zero
	// retires the assembly.
	remaining atomic.Int32
}

// assemblies recycles assembly shells across steps and processes.
var assemblies = sync.Pool{New: func() any { return new(assembly) }}

// barrier is a control task riding the ordered work channels: each(shard)
// runs on every worker after exactly the tasks enqueued before it — no
// quiescing, no stalled pool — and last() runs once, on the worker that
// finishes last.
type barrier struct {
	each      func(shard int)
	last      func()
	remaining atomic.Int32
}

// foldTask is one unit on a worker channel: a barrier, or a completed
// assembly for the worker to fold into its shard.
type foldTask struct {
	ctl *barrier
	asm *assembly
}

// foldPool is the shard-decode and fold stage: one worker per accumulator
// shard, fed by one channel each. Every task (an assembly once it completes)
// is enqueued on every channel in the same order, which makes the per-cell
// update sequence — and therefore the statistics — bitwise identical to a
// single-threaded fold, whatever the pool width. Exactly one goroutine may
// enqueue (route, barrier, scan, stop) and it alone touches pending and the
// pacing fields routed, ciMark, sketchMark and scansStarted; release, ask
// and the telemetry getters are safe from any goroutine.
type foldPool struct {
	acc  *core.Accumulator
	part mesh.Partition

	workCh   []chan foldTask
	workerWG sync.WaitGroup
	pending  map[groupStep]*assembly // enqueuer-owned
	folds    atomic.Int64            // completed (group, timestep) updates

	// Convergence and quantile-sketch telemetry published by the worker
	// scans: ciWidths[i] is shard i's last scanned worst CI width (as
	// Float64bits), qtelTuples[i]/qtelBytes[i] its retained sketch tuples and
	// byte estimate. scanning is set while a scan barrier rides the queues;
	// ciScansDone counts completed convergence scans.
	ciWidths    []atomic.Uint64
	qtelTuples  []atomic.Int64
	qtelBytes   []atomic.Int64
	scanning    atomic.Bool
	ciScansDone atomic.Int64

	// asked is when a reader last asked for the convergence width (UnixNano).
	asked atomic.Int64
	// Scan pacing, enqueuer-owned: routed counts the (group, timestep) folds
	// enqueued so far; ciMark and sketchMark are its value when the last
	// convergence and sketch scan started; scansStarted counts the convergence
	// scans enqueued.
	routed       int64
	ciMark       int64
	sketchMark   int64
	scansStarted int64
}

// newFoldPool wraps an accumulator owning partition part. Workers start with
// start(); until then adopt may swap the accumulator (checkpoint restore).
func newFoldPool(acc *core.Accumulator, part mesh.Partition) *foldPool {
	return &foldPool{acc: acc, part: part, pending: make(map[groupStep]*assembly)}
}

func (f *foldPool) adopt(acc *core.Accumulator) { f.acc = acc }

// accumulator exposes the statistics state: shard i inside a barrier's
// each(i), the whole of it after stop — or after a barrier's last() when
// nothing was enqueued behind that barrier.
func (f *foldPool) accumulator() *core.Accumulator { return f.acc }

func (f *foldPool) workers() int { return f.acc.NumShards() }

func (f *foldPool) foldCount() int64 { return f.folds.Load() }

// start launches one fold worker per accumulator shard. Channel capacity
// bounds the routed-but-unprocessed backlog; when workers fall behind, the
// enqueuer blocks and backpressure propagates through the transport to the
// simulations — and the queue occupancy is reported to the launcher as a
// monitoring gauge.
func (f *foldPool) start() {
	n := f.workers()
	f.workCh = make([]chan foldTask, n)
	f.ciWidths = make([]atomic.Uint64, n)
	f.qtelTuples = make([]atomic.Int64, n)
	f.qtelBytes = make([]atomic.Int64, n)
	for i := range f.workCh {
		f.workCh[i] = make(chan foldTask, 64)
		f.workerWG.Add(1)
		go f.worker(i, f.workCh[i])
	}
}

// stop closes the work channels and joins the pool; workers drain what is
// queued first, barriers included. Assemblies still short of a piece never
// fold: their payloads are released.
func (f *foldPool) stop() {
	for _, ch := range f.workCh {
		close(ch)
	}
	f.workerWG.Wait()
	for key, asm := range f.pending {
		delete(f.pending, key)
		f.retire(asm)
	}
}

// dropGroups releases the pending assemblies of groups the router reports
// timed out. Such a group is replayed, or resumes and resends every step
// past its fold frontier, so the pieces waiting here would only pin their
// payloads until stop.
func (f *foldPool) dropGroups(groups []int) {
	for key, asm := range f.pending {
		if slices.Contains(groups, key.group) {
			delete(f.pending, key)
			f.retire(asm)
		}
	}
}

// backpressure returns the occupancy fraction [0, 1] of the work queues.
// Reading channel lengths is a racy snapshot, which is all a gauge needs.
func (f *foldPool) backpressure() float64 {
	queued, capacity := 0, 0
	for _, ch := range f.workCh {
		queued += len(ch)
		capacity += cap(ch)
	}
	if capacity == 0 {
		return 0
	}
	return float64(queued) / float64(capacity)
}

// barrier enqueues one control task behind everything routed so far.
func (f *foldPool) barrier(each func(shard int), last func()) {
	b := &barrier{each: each, last: last}
	b.remaining.Store(int32(len(f.workCh)))
	for _, ch := range f.workCh {
		ch <- foldTask{ctl: b}
	}
}

// ask records that a reader wants the convergence width; the run loop scans
// for a while after each ask (Proc.ciWanted).
func (f *foldPool) ask(now time.Time) { f.asked.Store(now.UnixNano()) }

// askedAt returns the UnixNano time of the last ask (0: never).
func (f *foldPool) askedAt() int64 { return f.asked.Load() }

// due reports whether a scan whose predecessor started at mark has something
// to see: a whole group's worth of folds routed since — widths and sketches
// change at group granularity — or, once the inbox went idle, any fold at
// all, so that a paused stream never leaves a stale value published.
func (f *foldPool) due(mark int64, idle bool) bool {
	fresh := f.routed - mark
	return fresh >= int64(f.acc.Timesteps()) || (idle && fresh > 0)
}

// scan starts a telemetry barrier when one is wanted and due, unless one is
// still riding the queues. Its convergence part — wanted when wantCI — has
// each worker refresh its shard's worst CI width (core caches per-timestep
// widths, so only timesteps folded since the last scan are swept); its sketch
// part — wanted whenever quantile sketches are tracked — refreshes the
// shard's sketch telemetry. The published values therefore always reflect a
// prefix of the committed update stream. With neither part due nothing is
// enqueued and the workers only decode and fold.
func (f *foldPool) scan(wantCI, idle bool) {
	ci := wantCI && f.due(f.ciMark, idle)
	sketches := len(f.acc.QuantileProbes()) > 0 && f.due(f.sketchMark, idle)
	if !(ci || sketches) || f.scanning.Load() {
		return
	}
	f.scanning.Store(true)
	if ci {
		f.ciMark = f.routed
		f.scansStarted++
	}
	if sketches {
		f.sketchMark = f.routed
	}
	f.barrier(func(i int) {
		if ci {
			f.ciWidths[i].Store(math.Float64bits(f.acc.ShardCIWidth(i, ciLevel)))
		}
		if sketches {
			qt, qb := f.acc.ShardQuantileTelemetry(i)
			f.qtelTuples[i].Store(qt)
			f.qtelBytes[i].Store(qb)
		}
	}, func() {
		if ci {
			f.ciScansDone.Add(1)
		}
		f.scanning.Store(false)
	})
}

// ciWidth aggregates the per-shard widths of the last completed convergence
// scan: +Inf until one was demanded and has finished — the convergence loop
// treats the study as unconverged until real data arrives.
func (f *foldPool) ciWidth() float64 {
	if f.ciScansDone.Load() == 0 {
		return math.Inf(1)
	}
	var worst float64
	for i := range f.ciWidths {
		if w := math.Float64frombits(f.ciWidths[i].Load()); w > worst {
			worst = w
		}
	}
	return worst
}

// sketchTelemetry sums the per-shard quantile-sketch telemetry of the last
// scans.
func (f *foldPool) sketchTelemetry() (tuples, bytes int64) {
	for i := range f.qtelTuples {
		tuples += f.qtelTuples[i].Load()
		bytes += f.qtelBytes[i].Load()
	}
	return tuples, bytes
}

// route adds step s of a retained, shape-checked bulk message to the
// assembly of its (group, timestep) and reports whether that completed it:
// only a completed assembly is enqueued, as one task on every worker, in
// completion order. The piece takes a payload reference, and every earlier
// piece whose range it contains is released — a replay overwrites, and the
// piece count stays bounded.
func (f *foldPool) route(m *bulkMsg, s int) bool {
	key := groupStep{m.group, m.stepTimestep(s)}
	asm, pending := f.pending[key]
	if !pending {
		asm = assemblies.Get().(*assembly) // retired by the last worker to fold it
		asm.step = key.step
	}
	lo, hi := m.cellLo-f.part.Lo, m.cellHi-f.part.Lo // partition-local
	asm.pieces = append(slices.DeleteFunc(asm.pieces, func(pc piece) bool {
		if lo <= pc.lo && pc.hi <= hi {
			f.release(pc.m)
			return true
		}
		return false
	}), piece{m, s, lo, hi})
	m.Retain(1)
	i, j := 0, 0 // merge [lo, hi) with the spans it touches, spans[i:j]
	for i < len(asm.spans) && asm.spans[i].hi < lo {
		i++
	}
	for j = i; j < len(asm.spans) && asm.spans[j].lo <= hi; j++ {
		lo, hi = min(lo, asm.spans[j].lo), max(hi, asm.spans[j].hi)
	}
	asm.spans = slices.Replace(asm.spans, i, j, span{lo, hi})
	if asm.spans[0] != (span{0, f.part.Len()}) {
		f.pending[key] = asm
		return false
	}
	delete(f.pending, key)
	f.routed++
	asm.remaining.Store(int32(len(f.workCh)))
	for _, ch := range f.workCh {
		ch <- foldTask{asm: asm}
	}
	return true
}

// release drops one payload reference; whichever goroutine drops the last
// one recycles the buffer and the shell.
func (f *foldPool) release(m *bulkMsg) {
	if m.Release() {
		bulkShells.Put(m)
	}
}

// retire releases an assembly's pieces and returns it to the pool.
func (f *foldPool) retire(asm *assembly) {
	for _, pc := range asm.pieces {
		f.release(pc.m)
	}
	clear(asm.pieces)
	asm.pieces, asm.spans = asm.pieces[:0], asm.spans[:0]
	assemblies.Put(asm)
}

// worker owns shard i and folds every completed assembly, in enqueue order,
// into its cell range [lo, hi). It reads from the last piece covering the
// shard: that piece lends its cells where they lie (in the payload, alive
// until the last worker retires the assembly, or in the worker's
// decompressed words) when no later piece touches the shard; otherwise the
// worker copies it and each later overlapping piece into scratch in order.
func (f *foldPool) worker(i int, ch chan foldTask) {
	defer f.workerWG.Done()
	lo, hi := f.acc.ShardRange(i)
	// caches[j] decodes piece j: consecutive assemblies hold the steps of
	// the same messages at the same piece index, so each message's blocks
	// are decompressed once, not once per step.
	var caches []*codecCache
	// in holds the shard's per-field inputs to the fold; scratch backs the
	// ones no piece can lend, field k at [k*n, (k+1)*n), made on first need.
	in := make([][]float64, f.acc.P()+2)
	var scratch []float64
	n := hi - lo
	for task := range ch {
		if b := task.ctl; b != nil {
			b.each(i)
			if b.remaining.Add(-1) == 0 {
				b.last()
			}
			continue
		}
		asm := task.asm
		for len(caches) < len(asm.pieces) {
			caches = append(caches, new(codecCache))
		}
		// from: the last piece covering the shard (0, and no lending, if none)
		from, lend := 0, true
		for j := len(asm.pieces) - 1; j >= 0; j-- {
			if pc := asm.pieces[j]; pc.lo <= lo && hi <= pc.hi {
				from = j
				break
			} else if pc.lo < hi && lo < pc.hi || j == 0 {
				lend = false
			}
		}
		t0 := time.Now()
		for k := range in {
			if pc := asm.pieces[from]; lend {
				in[k] = pc.m.fieldRange(caches[from], pc.s, k, lo-pc.lo, hi-pc.lo)
			}
			if in[k] == nil {
				if scratch == nil {
					scratch = make([]float64, len(in)*n)
				}
				in[k] = scratch[k*n : (k+1)*n]
				for j, pc := range asm.pieces[from:] {
					if olo, ohi := max(pc.lo, lo), min(pc.hi, hi); olo < ohi {
						pc.m.decodeFieldRange(caches[from+j], pc.s, k, olo-pc.lo, ohi-pc.lo, in[k][olo-lo:ohi-lo])
					}
				}
			}
		}
		t1 := time.Now()
		f.acc.UpdateShard(i, asm.step, in[0], in[1], in[2:])
		clear(in)
		mDecodeSeconds.Observe(t1.Sub(t0).Seconds())
		mFoldSeconds.ObserveSince(t1)
		if asm.remaining.Add(-1) == 0 {
			f.folds.Add(1)
			mFolds.Inc()
			f.retire(asm)
		}
	}
}
