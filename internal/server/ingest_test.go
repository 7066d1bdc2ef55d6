package server

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"melissa/internal/client"
	"melissa/internal/core"
	"melissa/internal/enc"
	"melissa/internal/sampling"
	"melissa/internal/transport"
	"melissa/internal/wire"
)

// optionCombos enumerates all 16 combinations of the optional statistics —
// the full Options matrix the ingest refactor must stay bitwise-faithful on.
func optionCombos() []core.Options {
	th := 0.1
	var combos []core.Options
	for mask := 0; mask < 16; mask++ {
		o := core.Options{}
		if mask&1 != 0 {
			o.MinMax = true
		}
		if mask&2 != 0 {
			o.Threshold = &th
		}
		if mask&4 != 0 {
			o.HigherMoments = true
		}
		if mask&8 != 0 {
			o.Quantiles = []float64{0.25, 0.75}
		}
		combos = append(combos, o)
	}
	return combos
}

// referenceAccumulator folds the given groups directly (no server, no wire)
// into a dense accumulator — the ground truth of the ingest path.
func referenceAccumulator(cells, timesteps, p int, opts core.Options, design *sampling.Design, groups []int) *core.Accumulator {
	ref := core.NewAccumulator(cells, timesteps, p, opts)
	sim := testSim(cells, timesteps)
	for _, g := range groups {
		rows := design.GroupRows(g)
		outs := make([][][]float64, len(rows))
		for si, row := range rows {
			outs[si] = make([][]float64, timesteps)
			sim.Run(row, func(step int, field []float64) bool {
				outs[si][step] = append([]float64(nil), field...)
				return true
			})
		}
		for step := 0; step < timesteps; step++ {
			yC := make([][]float64, p)
			for k := 0; k < p; k++ {
				yC[k] = outs[k+2][step]
			}
			ref.UpdateGroup(step, outs[0][step], outs[1][step], yC)
		}
	}
	return ref
}

// encodeAccumulator serializes an accumulator in the dense checkpoint
// layout — the strongest equality oracle available: every tracked statistic
// (Sobol' state, min/max, exceedances, higher moments, quantile sketches)
// must match bit for bit.
func encodeAccumulator(a *core.Accumulator) []byte {
	w := enc.NewWriter(1 << 16)
	a.Encode(w)
	return append([]byte(nil), w.Bytes()...)
}

// TestIngestEquivalenceAllOptions: the shard-parallel zero-copy ingest must
// be bitwise identical to direct accumulation for every Options combination,
// FoldWorkers ∈ {1, 4}, both wire forms (Data and 3-step DataBatch with a
// partial final flush) and multi-piece assembly (SimRanks = 2).
func TestIngestEquivalenceAllOptions(t *testing.T) {
	const cells, timesteps, p, nGroups = 18, 4, 2, 3
	design := testDesign(p, nGroups)
	groups := []int{0, 1, 2}

	for ci, opts := range optionCombos() {
		want := encodeAccumulator(referenceAccumulator(cells, timesteps, p, opts, design, groups))
		for _, workers := range []int{1, 4} {
			for _, batch := range []int{1, 3} {
				name := fmt.Sprintf("combo%02d/fold%d/batch%d", ci, workers, batch)
				net := transport.NewMemNetwork(transport.Options{})
				s := startServer(t, net, 1, cells, timesteps, p, func(c *Config) {
					c.FoldWorkers = workers
					c.Stats = opts
				})
				for _, g := range groups {
					if err := client.RunGroup(net, s.MainAddr(), client.RunConfig{
						ConnectOpts: client.ConnectOpts{GroupID: g, SimRanks: 2, BatchSteps: batch}, Rows: design.GroupRows(g),
						Sim: testSim(cells, timesteps),
					}); err != nil {
						t.Fatalf("%s: group %d: %v", name, g, err)
					}
					waitFolds(t, s, int64((g+1)*timesteps), 10*time.Second)
				}
				s.Stop(false)
				got := encodeAccumulator(s.Procs()[0].Accumulator().Dense())
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: accumulator state diverged from direct accumulation", name)
				}
			}
		}
	}
}

// TestIngestDirectPathMatchesAssembled: with SimRanks = 1 every piece covers
// the whole partition and takes the direct payload→fold path (no assembly);
// the result must be bitwise identical to the multi-piece assembled path and
// to direct accumulation.
func TestIngestDirectPathMatchesAssembled(t *testing.T) {
	const cells, timesteps, p, nGroups = 24, 3, 2, 4
	design := testDesign(p, nGroups)
	groups := []int{0, 1, 2, 3}
	opts := core.Options{MinMax: true, Quantiles: []float64{0.5}}
	want := encodeAccumulator(referenceAccumulator(cells, timesteps, p, opts, design, groups))

	for _, workers := range []int{1, 4} {
		for _, simRanks := range []int{1, 2} {
			for _, batch := range []int{1, 2} {
				name := fmt.Sprintf("fold%d/ranks%d/batch%d", workers, simRanks, batch)
				net := transport.NewMemNetwork(transport.Options{})
				s := startServer(t, net, 1, cells, timesteps, p, func(c *Config) {
					c.FoldWorkers = workers
					c.Stats = opts
				})
				for _, g := range groups {
					if err := client.RunGroup(net, s.MainAddr(), client.RunConfig{
						ConnectOpts: client.ConnectOpts{GroupID: g, SimRanks: simRanks, BatchSteps: batch}, Rows: design.GroupRows(g),
						Sim: testSim(cells, timesteps),
					}); err != nil {
						t.Fatalf("%s: group %d: %v", name, g, err)
					}
					waitFolds(t, s, int64((g+1)*timesteps), 10*time.Second)
				}
				s.Stop(false)
				got := encodeAccumulator(s.Procs()[0].Accumulator().Dense())
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: accumulator state diverged", name)
				}
			}
		}
	}
}

// TestIngestReplayBatchedWithOptions: a crashing-then-replayed group under
// batched wire traffic and full optional statistics must leave the same
// accumulator state as a clean run — discard-on-replay across the new
// route/decode split.
func TestIngestReplayBatchedWithOptions(t *testing.T) {
	const cells, timesteps, p, nGroups = 20, 5, 2, 4
	th := 0.05
	opts := core.Options{MinMax: true, Threshold: &th, HigherMoments: true, Quantiles: []float64{0.1, 0.9}}
	design := testDesign(p, nGroups)
	sim := testSim(cells, timesteps)

	run := func(crashing map[int]int) []byte {
		net := transport.NewMemNetwork(transport.Options{})
		s := startServer(t, net, 1, cells, timesteps, p, func(c *Config) {
			c.FoldWorkers = 4
			c.Stats = opts
		})
		var expected int64
		for g := 0; g < nGroups; g++ {
			if crashAt, crashes := crashing[g]; crashes {
				err := client.RunGroup(net, s.MainAddr(), client.RunConfig{
					ConnectOpts: client.ConnectOpts{GroupID: g, SimRanks: 2, BatchSteps: 2}, Rows: design.GroupRows(g), Sim: sim,
					BeforeStep: func(step int) error {
						if step >= crashAt {
							return fmt.Errorf("injected crash")
						}
						return nil
					},
				})
				if err == nil {
					t.Fatal("injected crash did not fail the group")
				}
				// Batching may leave the last pre-crash step unflushed; only
				// fully shipped batches fold. Wait for whatever arrived.
				expected += int64(crashAt - crashAt%2)
				waitFolds(t, s, expected, 10*time.Second)
			}
			if err := client.RunGroup(net, s.MainAddr(), client.RunConfig{
				ConnectOpts: client.ConnectOpts{GroupID: g, SimRanks: 2, BatchSteps: 2}, Rows: design.GroupRows(g), Sim: sim,
			}); err != nil {
				t.Fatal(err)
			}
			if crashAt, crashes := crashing[g]; crashes {
				expected += int64(timesteps - (crashAt - crashAt%2))
			} else {
				expected += int64(timesteps)
			}
			waitFolds(t, s, expected, 10*time.Second)
		}
		s.Stop(false)
		return encodeAccumulator(s.Procs()[0].Accumulator().Dense())
	}

	clean := run(nil)
	replayed := run(map[int]int{1: 3, 2: 0, 3: 4})
	if !bytes.Equal(clean, replayed) {
		t.Fatal("replayed study diverged from clean study")
	}
}

// TestRawPieceRouting drives hand-crafted wire messages at one server
// process: out-of-order partial pieces, replayed overlapping pieces, a
// full-cover piece completing a pending partial assembly, and malformed
// messages (wrong field count, out-of-partition range) that must be dropped
// without corrupting state.
func TestRawPieceRouting(t *testing.T) {
	const cells, timesteps, p = 10, 2, 1
	net := transport.NewMemNetwork(transport.Options{})
	s := startServer(t, net, 1, cells, timesteps, p, func(c *Config) { c.FoldWorkers = 3 })
	snd, err := net.Dial(s.MainAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()

	field := func(lo, hi int, seed float64) []float64 {
		f := make([]float64, hi-lo)
		for i := range f {
			f[i] = seed + float64(lo+i)
		}
		return f
	}
	fields := func(lo, hi int, seed float64) [][]float64 {
		out := make([][]float64, p+2)
		for fi := range out {
			out[fi] = field(lo, hi, seed+10*float64(fi))
		}
		return out
	}
	send := func(msg any) {
		t.Helper()
		if err := snd.Send(wire.Encode(msg)); err != nil {
			t.Fatal(err)
		}
	}

	// Step 0 of group 0 arrives as three pieces, out of order, with the
	// middle piece replayed with garbage values (overwritten by design —
	// partial assemblies tolerate replays by overwriting).
	send(&wire.Data{GroupID: 0, Timestep: 0, CellLo: 7, CellHi: 10, Fields: fields(7, 10, 1)})
	send(&wire.Data{GroupID: 0, Timestep: 0, CellLo: 3, CellHi: 7, Fields: fields(3, 7, 999)})
	send(&wire.Data{GroupID: 0, Timestep: 0, CellLo: 3, CellHi: 7, Fields: fields(3, 7, 1)})
	// Malformed traffic in between must be dropped whole.
	send(&wire.Data{GroupID: 0, Timestep: 0, CellLo: 0, CellHi: 3,
		Fields: [][]float64{field(0, 3, 0)}}) // wrong field count
	send(&wire.Data{GroupID: 0, Timestep: 0, CellLo: 8, CellHi: 12, Fields: fields(8, 12, 0)})         // out of partition
	send(&wire.Data{GroupID: 0, Timestep: -1, CellLo: 0, CellHi: 10, Fields: fields(0, 10, 0)})        // negative timestep
	send(&wire.Data{GroupID: 0, Timestep: timesteps, CellLo: 0, CellHi: 10, Fields: fields(0, 10, 0)}) // timestep past study
	send(&wire.DataBatch{GroupID: 0, CellLo: 0, CellHi: 10, Steps: []wire.DataStep{
		{Timestep: 99, Fields: fields(0, 10, 0)},
	}}) // batch step past study
	send(&wire.Data{GroupID: 0, Timestep: 0, CellLo: 0, CellHi: 3, Fields: fields(0, 3, 1)})
	waitFolds(t, s, 1, 5*time.Second)

	// Step 1: a partial piece goes pending, then a full-cover batch entry
	// completes it through the assembled path; a replay of the whole step
	// afterwards must be discarded.
	send(&wire.Data{GroupID: 0, Timestep: 1, CellLo: 0, CellHi: 4, Fields: fields(0, 4, 2)})
	send(&wire.DataBatch{GroupID: 0, CellLo: 0, CellHi: 10, Steps: []wire.DataStep{
		{Timestep: 1, Fields: fields(0, 10, 2)},
	}})
	send(&wire.Data{GroupID: 0, Timestep: 1, CellLo: 0, CellHi: 10, Fields: fields(0, 10, 777)})
	waitFolds(t, s, 2, 5*time.Second)
	s.Stop(false)

	// Reference: the two committed steps with the intended values.
	ref := core.NewAccumulator(cells, timesteps, p, core.Options{})
	for step := 0; step < timesteps; step++ {
		fs := fields(0, cells, float64(step+1))
		ref.UpdateGroup(step, fs[0], fs[1], fs[2:])
	}
	if !bytes.Equal(encodeAccumulator(s.Procs()[0].Accumulator().Dense()), encodeAccumulator(ref)) {
		t.Fatal("raw piece routing diverged from reference")
	}
}

// TestBackpressureComputation pins the congestion-hint math to the work
// queues' occupancy fraction.
func TestBackpressureComputation(t *testing.T) {
	p := &foldPool{workCh: []chan foldTask{make(chan foldTask, 64), make(chan foldTask, 64)}}
	if got := p.backpressure(); got != 0 {
		t.Fatalf("idle backpressure %v, want 0", got)
	}
	for i := 0; i < 32; i++ {
		p.workCh[0] <- foldTask{}
	}
	if got := p.backpressure(); got != 0.25 {
		t.Fatalf("backpressure %v, want 0.25 (32 of 128 slots)", got)
	}
	var empty foldPool
	if got := empty.backpressure(); got != 0 {
		t.Fatalf("no-worker backpressure %v, want 0", got)
	}
}

// TestAdaptiveBatchingReacts closes the whole loop: a stalled fold pool
// backs the work queues up, the server's reports carry a rising congestion
// hint, the launcher-side controller grows the effective client batch size —
// and once the backlog clears, the hint and the batch size decay back.
func TestAdaptiveBatchingReacts(t *testing.T) {
	net := transport.NewMemNetwork(transport.Options{})
	launcherRecv, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer launcherRecv.Close()

	s := startServer(t, net, 1, 16, 3, 1, func(c *Config) {
		c.FoldWorkers = 2
		c.LauncherAddr = launcherRecv.Addr()
		c.ReportInterval = 10 * time.Millisecond
	})
	defer s.Stop(false)
	proc := s.Procs()[0]

	// Stall both workers on a gate and pile queued gate tasks behind it:
	// 1 in-flight + 32 queued of 64 slots per channel → occupancy 0.5.
	// The gate must open before Stop (deferred after it) or shutdown would
	// wait on the stalled workers forever — also on the t.Fatalf paths.
	gate := make(chan struct{})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	defer openGate()
	for i := 0; i < 33; i++ {
		proc.fold.barrier(func(int) { <-gate }, func() {})
	}

	ctl := &client.BatchController{}
	const maxSteps = 8
	waitReport := func(cond func(*wire.Report) bool, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			m, err := launcherRecv.Recv(time.Second)
			if err != nil {
				continue
			}
			decoded, err := wire.Decode(m.Payload)
			transport.Recycle(m.Payload)
			if err != nil {
				continue
			}
			rep, ok := decoded.(*wire.Report)
			if !ok {
				continue
			}
			ctl.Observe(rep.Backpressure) // exactly what the launcher does
			if cond(rep) {
				return
			}
		}
		t.Fatalf("no report arrived where %s", what)
	}

	waitReport(func(r *wire.Report) bool { return r.Backpressure >= 0.4 }, "backpressure >= 0.4")
	for i := 0; i < 3; i++ {
		waitReport(func(r *wire.Report) bool { return true }, "any report")
	}
	grown := ctl.Steps(maxSteps)
	if grown < 3 {
		t.Fatalf("congested pipeline grew batch size only to %d, want >= 3", grown)
	}

	openGate() // backlog drains
	waitReport(func(r *wire.Report) bool { return r.Backpressure == 0 }, "backpressure == 0")
	deadline := time.Now().Add(10 * time.Second)
	for ctl.Steps(maxSteps) > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("batch size stuck at %d after backlog cleared", ctl.Steps(maxSteps))
		}
		waitReport(func(r *wire.Report) bool { return r.Backpressure == 0 }, "backpressure == 0")
	}
}

// TestPayloadPoolBalancesUnderStress is the -race leak audit of the
// refcounted ingest path: many concurrent clients mix well-formed Data and
// DataBatch traffic with Hellos, heartbeats and garbage, with double-recycle
// detection armed; after a drained shutdown the payload pool must balance —
// zero live references and zero outstanding buffers.
func TestPayloadPoolBalancesUnderStress(t *testing.T) {
	transport.SetPoolDebug(true)
	defer transport.SetPoolDebug(false)
	before := transport.ReadPoolStats()

	net := transport.NewMemNetwork(transport.Options{})
	const cells, timesteps, p, nGroups = 40, 4, 2, 12
	const procs, simRanks = 2, 2
	design := testDesign(p, nGroups)
	sim := testSim(cells, timesteps)
	s := startServer(t, net, procs, cells, timesteps, p, func(c *Config) { c.FoldWorkers = 3 })

	var wg sync.WaitGroup
	errs := make(chan error, nGroups)
	for g := 0; g < nGroups; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs <- client.RunGroup(net, s.MainAddr(), client.RunConfig{
				ConnectOpts: client.ConnectOpts{GroupID: g, SimRanks: simRanks, BatchSteps: 1 + g%3}, Rows: design.GroupRows(g), Sim: sim,
			})
		}(g)
	}
	// Hostile traffic alongside: garbage bytes, truncated bulk frames,
	// wrong-shape data, stray Hellos and heartbeats on the data endpoints.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, addr := range s.Addrs() {
				snd, err := net.Dial(addr)
				if err != nil {
					continue
				}
				for j := 0; j < 20; j++ {
					switch j % 5 {
					case 0:
						snd.Send([]byte{0xFF, 1, 2, 3}) // unknown type
					case 1:
						snd.Send(wire.Encode(&wire.Data{GroupID: 999, Timestep: 0,
							CellLo: 0, CellHi: 5, Fields: [][]float64{make([]float64, 5)}})) // wrong field count
					case 2:
						full := wire.Encode(&wire.Data{GroupID: 999, Timestep: 0, CellLo: 0, CellHi: 8,
							Fields: make([][]float64, p+2)})
						snd.Send(full[:len(full)/2]) // truncated bulk frame
					case 3:
						snd.Send(wire.Encode(&wire.Heartbeat{Sender: "stray"}))
					case 4:
						snd.Send(wire.Encode(&wire.Hello{GroupID: 999, ReplyAddr: "mem://nowhere"}))
					}
				}
				snd.Close()
			}
		}(i)
	}
	wg.Wait()
	for g := 0; g < nGroups; g++ {
		if err := <-errs; err != nil {
			t.Fatalf("group failed: %v", err)
		}
	}
	waitFolds(t, s, int64(nGroups*timesteps*procs), 20*time.Second)
	s.Stop(false)

	after := transport.ReadPoolStats()
	if d := after.RefsActive() - before.RefsActive(); d != 0 {
		t.Fatalf("refcounted ingest leaked %d payload references", d)
	}
	if d := after.Outstanding() - before.Outstanding(); d != 0 {
		t.Fatalf("payload pool leaked %d buffers", d)
	}
	if math.Abs(float64(after.Retains-before.Retains)) == 0 {
		t.Fatal("stress test exercised no refcounted payloads")
	}
}
