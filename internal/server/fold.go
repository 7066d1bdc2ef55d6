package server

import (
	"math"
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

// assembly collects the pieces of one (group, timestep) until the pool's
// whole partition is covered. The enqueuing goroutine owns only the coverage
// bookkeeping (covered/missing, from piece headers); the float content of
// fields is written by the shard workers, each decoding its own disjoint
// cell range straight out of the retained payloads. Assemblies are pooled:
// the last fold worker to finish returns the assembly for reuse, so
// steady-state folding allocates nothing.
type assembly struct {
	step    int
	fields  [][]float64 // p+2 fields over the local partition
	covered []bool
	missing int
	// remaining counts the fold workers that have not yet applied this
	// assembly to their shard; the worker that decrements it to zero
	// retires the assembly.
	remaining atomic.Int32
}

// barrier is a control task riding the ordered work channels: each(shard)
// runs on every worker after exactly the tasks enqueued before it — no
// quiescing, no stalled pool — and last() runs once, on the worker that
// finishes last.
type barrier struct {
	each      func(shard int)
	last      func()
	remaining atomic.Int32
}

// foldTask is one unit on a worker channel: a barrier, or work on a retained
// payload — the worker decodes its shard's overlap of step `step`'s fields
// into asm (assembled path) or, when asm is nil, folds its shard's cells
// where they lie in the payload (direct path, the piece covers the whole
// partition). fold marks the task that completes the (group, timestep): the
// worker folds its shard after decoding.
type foldTask struct {
	ctl *barrier

	bulk *bulkMsg
	step int
	asm  *assembly
	fold bool
}

// foldPool is the shard-decode and fold stage: one worker per accumulator
// shard, fed by one channel each. Every task is enqueued on every channel in
// arrival order, which makes the per-cell update sequence — and therefore
// the statistics — bitwise identical to a single-threaded fold, whatever the
// pool width. Exactly one goroutine may enqueue (route, release, barrier,
// scan) and it alone touches the pacing fields routed, ciMark,
// sketchMark and scansStarted; ask and the telemetry getters are safe from
// any goroutine.
type foldPool struct {
	acc  *core.Accumulator
	part mesh.Partition

	workCh   []chan foldTask
	workerWG sync.WaitGroup
	pending  map[groupStep]*assembly // enqueuer-owned
	asmPool  sync.Pool
	folds    atomic.Int64 // completed (group, timestep) updates

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
	f := &foldPool{acc: acc, part: part, pending: make(map[groupStep]*assembly)}
	f.asmPool.New = func() any {
		asm := &assembly{fields: make([][]float64, f.acc.P()+2), covered: make([]bool, part.Len())}
		for k := range asm.fields {
			asm.fields[k] = make([]float64, part.Len())
		}
		return asm
	}
	return f
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
// queued first, barriers included.
func (f *foldPool) stop() {
	for _, ch := range f.workCh {
		close(ch)
	}
	f.workerWG.Wait()
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

// route enqueues step s of a retained, shape-checked bulk message and
// reports whether it completed its (group, timestep). A piece covering the
// whole partition with no partial assembly pending takes the direct path
// (workers decode-and-fold from the payload, no assembly copy); otherwise
// coverage is tracked from the headers, the workers decode into the shared
// assembly, and the task that completes it carries the fold. Replayed pieces
// of a partial assembly overwrite.
func (f *foldPool) route(m *bulkMsg, s int) bool {
	step := m.stepTimestep(s)
	lo, hi := m.cellLo-f.part.Lo, m.cellHi-f.part.Lo // partition-local
	key := groupStep{m.group, step}
	asm, pending := f.pending[key]
	if !pending && lo == 0 && hi == f.part.Len() {
		m.applied++
		f.routed++
		f.enqueue(m, foldTask{bulk: m, step: s, fold: true})
		return true
	}
	if !pending {
		asm = f.asmPool.Get().(*assembly) // retired by the last worker to fold it
		clear(asm.covered)
		asm.step, asm.missing = step, len(asm.covered)
		f.pending[key] = asm
	}
	for c := lo; c < hi; c++ {
		if !asm.covered[c] {
			asm.covered[c] = true
			asm.missing--
		}
	}
	task := foldTask{bulk: m, step: s, asm: asm}
	if asm.missing == 0 {
		delete(f.pending, key)
		task.fold = true
		f.routed++
		asm.remaining.Store(int32(len(f.workCh)))
	}
	f.enqueue(m, task)
	return task.fold
}

// enqueue sends one bulk task to every worker, charging the payload refcount
// (one reference per worker).
func (f *foldPool) enqueue(m *bulkMsg, task foldTask) {
	m.Retain(int32(len(f.workCh)))
	for _, ch := range f.workCh {
		ch <- task
	}
}

// release drops one payload reference. Whichever goroutine drops the last
// one retires the message: publish its direct-path folds and recycle the
// buffer and the shell.
func (f *foldPool) release(m *bulkMsg) {
	if !m.Release() {
		return
	}
	if m.applied > 0 {
		f.folds.Add(int64(m.applied))
		mFolds.Add(int64(m.applied))
	}
	bulkShells.Put(m)
}

// worker owns shard i and applies every task, in enqueue order, to its cell
// range [lo, hi) of the partition. Bulk tasks read only the shard's overlap
// of the payload's cell range, straight out of the shared bytes, and the
// task that completes a (group, timestep) folds it into the shard. The
// worker that retires an assembly (last shard folded) publishes the fold and
// recycles its buffers.
func (f *foldPool) worker(i int, ch chan foldTask) {
	defer f.workerWG.Done()
	lo, hi := f.acc.ShardRange(i)
	var cc codecCache // this worker's compressed-payload decode state
	// in holds the shard's per-field inputs to the fold; on the direct path,
	// scratch backs the ones a message cannot lend in place and is made on
	// first need.
	in := make([][]float64, f.acc.P()+2)
	var scratch [][]float64
	for task := range ch {
		if b := task.ctl; b != nil {
			b.each(i)
			if b.remaining.Add(-1) == 0 {
				b.last()
			}
			continue
		}
		m := task.bulk
		plo, phi := m.cellLo-f.part.Lo, m.cellHi-f.part.Lo // piece range, partition-local
		if asm := task.asm; asm != nil {
			// Assembled path: decode the (piece ∩ shard) cells into the shared
			// assembly. Workers write disjoint ranges, so no synchronization
			// beyond the task channels is needed.
			olo, ohi := max(plo, lo), min(phi, hi)
			if olo < ohi {
				t0 := time.Now()
				for k := 0; k < m.fields; k++ {
					m.decodeFieldRange(&cc, task.step, k, olo-plo, ohi-plo, asm.fields[k][olo:ohi])
				}
				mDecodeSeconds.ObserveSince(t0)
			}
			if task.fold {
				t0 := time.Now()
				for k := range in {
					in[k] = asm.fields[k][lo:hi]
				}
				f.acc.UpdateShard(i, asm.step, in[0], in[1], in[2:])
				clear(in)
				mFoldSeconds.ObserveSince(t0)
				if asm.remaining.Add(-1) == 0 {
					f.folds.Add(1)
					mFolds.Inc()
					f.asmPool.Put(asm)
				}
			}
		} else {
			// Direct path: the piece covers the whole partition, so the shard
			// folds its cells where they lie — in the payload, which this
			// task's reference keeps alive until the release below, or in
			// the worker's decompressed words. Only cells a message cannot
			// lend are copied, into scratch.
			t0 := time.Now()
			for k := range in {
				if in[k] = m.fieldRange(&cc, task.step, k, lo-plo, hi-plo); in[k] == nil {
					if scratch == nil {
						scratch = make([][]float64, len(in))
						for j := range scratch {
							scratch[j] = make([]float64, hi-lo)
						}
					}
					m.decodeFieldRange(&cc, task.step, k, lo-plo, hi-plo, scratch[k])
					in[k] = scratch[k]
				}
			}
			t1 := time.Now()
			f.acc.UpdateShard(i, m.stepTimestep(task.step), in[0], in[1], in[2:])
			clear(in)
			mDecodeSeconds.Observe(t1.Sub(t0).Seconds())
			mFoldSeconds.ObserveSince(t1)
		}
		f.release(m)
	}
}
