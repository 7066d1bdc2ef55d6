package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"melissa/internal/core"
	"melissa/internal/mesh"
	"melissa/internal/transport"
	"melissa/internal/wire"
)

// TestFoldPoolStandalone drives the fold stage with nothing around it: a
// sharded accumulator, its partition, and encoded frames — no Server, no
// network, no group tracker. Six groups arrive in the six (framing × path)
// shapes: Data, DataBatch and DataBatchC, each once as whole-partition
// pieces (direct path) and once split into cell sub-ranges (assembled path).
// After every group a barrier rides the queues behind the routed steps: its
// each() must see exactly the folds routed so far on every shard, so the
// snapshot it takes shard by shard equals folding the same fields into one
// accumulator in order. Once the last barrier passed, the live state must
// be bitwise equal to that too, and every payload reference must have been
// released.
func TestFoldPoolStandalone(t *testing.T) {
	const cells, timesteps, p, shards, batch = 23, 6, 2, 3, 3
	part := mesh.Partition{Lo: 100, Hi: 100 + cells}
	combos := optionCombos()
	for _, opts := range []core.Options{combos[0], combos[len(combos)-1]} {
		pool := newFoldPool(core.NewSharded(cells, timesteps, p, opts, shards), part)
		pool.start()
		t.Cleanup(pool.stop)
		ref := core.NewAccumulator(cells, timesteps, p, opts)
		snap, refSnap := pool.accumulator().NewSnapshot(), ref.NewSnapshot()
		refsBefore := transport.ReadPoolStats().RefsActive()

		fields := func(group, step, lo, hi int) [][]float64 {
			out := make([][]float64, p+2)
			for f := range out {
				out[f] = make([]float64, hi-lo)
				for c := range out[f] {
					out[f][c] = float64(group+1) + 0.25*float64(step) + 0.01*float64(f*cells+lo+c)
				}
			}
			return out
		}
		folds := 0
		feed := func(frame []byte) {
			t.Helper()
			m, err := parseBulk(frame)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < m.steps; s++ {
				if pool.route(m, s) {
					folds++
				}
			}
			pool.release(m)
		}
		// frames encodes steps [s0, s1) of a group over local cells [lo, hi)
		// in the given framing.
		frames := func(framing wire.MsgType, group, s0, s1, lo, hi int) [][]byte {
			b := &wire.DataBatch{GroupID: group, CellLo: part.Lo + lo, CellHi: part.Lo + hi}
			var out [][]byte
			for s := s0; s < s1; s++ {
				fs := fields(group, s, lo, hi)
				b.Steps = append(b.Steps, wire.DataStep{Timestep: s, Fields: fs})
				if framing == wire.TypeData {
					out = append(out, wire.Encode(&wire.Data{GroupID: group, Timestep: s,
						CellLo: b.CellLo, CellHi: b.CellHi, Fields: fs}))
				}
			}
			switch framing {
			case wire.TypeDataBatch:
				out = append(out, wire.Encode(b))
			case wire.TypeDataBatchC:
				half := (hi - lo) / 2
				out = append(out, encodeBatchC(b, []int{half, hi - lo - half}))
			}
			return out
		}

		group := 0
		for _, cuts := range [][]int{{0, cells}, {0, 7, 15, cells}} { // direct, then assembled
			for _, framing := range []wire.MsgType{wire.TypeData, wire.TypeDataBatch, wire.TypeDataBatchC} {
				name := fmt.Sprintf("group %d (framing %d, %d pieces)", group, framing, len(cuts)-1)
				for s0 := 0; s0 < timesteps; s0 += batch {
					for i := 0; i+1 < len(cuts); i++ {
						for _, frame := range frames(framing, group, s0, s0+batch, cuts[i], cuts[i+1]) {
							feed(frame)
						}
					}
				}
				for s := 0; s < timesteps; s++ {
					fs := fields(group, s, 0, cells)
					ref.UpdateGroup(s, fs[0], fs[1], fs[2:])
				}
				if want := (group + 1) * timesteps; folds != want {
					t.Fatalf("%s: %d steps completed, want %d", name, folds, want)
				}
				done := make(chan struct{})
				pool.barrier(func(shard int) {
					pool.accumulator().SnapshotShard(shard, snap)
				}, func() { close(done) })
				<-done
				ref.SnapshotShard(0, refSnap) // a snapshot, not an encode: it leaves ref's sketches unflushed
				if !bytes.Equal(encodeSnapshot(snap), encodeSnapshot(refSnap)) {
					t.Fatalf("%s: the barrier's snapshot differs from %d folds applied in order", name, folds)
				}
				group++
			}
		}

		if got := transport.ReadPoolStats().RefsActive(); got != refsBefore {
			t.Fatalf("payload refs active %d after the last barrier, want %d", got, refsBefore)
		}
		if got := pool.foldCount(); got != int64(folds) {
			t.Fatalf("fold counter %d, want %d", got, folds)
		}
		if !bytes.Equal(encodeAccumulator(pool.accumulator()), encodeAccumulator(ref)) {
			t.Fatal("standalone pool state diverged from direct accumulation")
		}
	}
}

// TestInPlaceFoldHoldsPayloadUntilRelease: shards fold fields where they
// lie in the payload (or in a worker's decompressed words), so the payload
// must be read only while a reference to it is held. Each input — one frame,
// or the two pieces a step is split into — is fed through its own buffers;
// as soon as the last reference to it is dropped, the test fills the
// buffers with NaN bytes. A worker that read a payload after its release
// would fold NaNs, and -race reports the write against its read. The state
// must be bitwise equal to folding the same fields from fresh slices.
func TestInPlaceFoldHoldsPayloadUntilRelease(t *testing.T) {
	const cells, timesteps, p, shards = 29, 4, 3, 3
	part := mesh.Partition{Lo: 7, Hi: 7 + cells}
	opts := optionCombos()[15]
	pool := newFoldPool(core.NewSharded(cells, timesteps, p, opts, shards), part)
	pool.start()
	t.Cleanup(pool.stop)
	ref := core.NewAccumulator(cells, timesteps, p, opts)

	// shardCuts are the codec sub-ranges a client cuts over local cells
	// [lo, hi) on shard bounds.
	shardCuts := func(lo, hi int) []int {
		var cuts []int
		for i := 0; i < shards; i++ {
			slo, shi := pool.accumulator().ShardRange(i)
			if n := min(hi, shi) - max(lo, slo); n > 0 {
				cuts = append(cuts, n)
			}
		}
		return cuts
	}
	batch := func(group, lo, hi int) *wire.DataBatch {
		b := &wire.DataBatch{GroupID: group, CellLo: part.Lo + lo, CellHi: part.Lo + hi}
		for s := 0; s < timesteps; s++ {
			fs := make([][]float64, p+2)
			for f := range fs {
				fs[f] = make([]float64, hi-lo)
				for c := range fs[f] {
					fs[f][c] = math.Sin(float64(group*977+s*131+f*37+lo+c)) * float64(group+1)
				}
			}
			b.Steps = append(b.Steps, wire.DataStep{Timestep: s, Fields: fs})
		}
		return b
	}
	const cut = cells / 2 // inside shard 1, which then reads both pieces
	var inputs [][][]byte
	for g := 0; g < 6; g++ {
		b := batch(g, 0, cells)
		for _, st := range b.Steps {
			ref.UpdateGroup(st.Timestep, st.Fields[0], st.Fields[1], st.Fields[2:])
		}
		switch g {
		case 0:
			for _, st := range b.Steps {
				inputs = append(inputs, [][]byte{wire.Encode(&wire.Data{GroupID: g, Timestep: st.Timestep,
					CellLo: b.CellLo, CellHi: b.CellHi, Fields: st.Fields})})
			}
		case 1:
			inputs = append(inputs, [][]byte{wire.Encode(b)})
		case 2:
			inputs = append(inputs, [][]byte{encodeBatchC(b, shardCuts(0, cells))}) // folded from the decode cache
		case 3:
			inputs = append(inputs, [][]byte{encodeBatchC(b, []int{cells / 2, cells - cells/2})}) // copied
		case 4:
			inputs = append(inputs, [][]byte{wire.Encode(batch(g, 0, cut)), wire.Encode(batch(g, cut, cells))})
		case 5:
			inputs = append(inputs, [][]byte{encodeBatchC(batch(g, 0, cut), shardCuts(0, cut)),
				encodeBatchC(batch(g, cut, cells), shardCuts(cut, cells))})
		}
	}

	// Above the transport pool's buffer cap, so the final release drops a
	// buffer instead of pooling it and only this test ever writes it.
	bufs := [][]byte{make([]byte, 0, 8<<20), make([]byte, 0, 8<<20)}
	nan := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))
	base := transport.ReadPoolStats().RefsActive()
	for _, frames := range inputs {
		for i, frame := range frames {
			bufs[i] = append(bufs[i][:0], frame...)
			m, err := parseBulk(bufs[i])
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < m.steps; s++ {
				pool.route(m, s)
			}
			pool.release(m)
		}
		for transport.ReadPoolStats().RefsActive() != base {
			runtime.Gosched()
		}
		for _, buf := range bufs[:len(frames)] {
			for i := 0; i+8 <= len(buf); i += 8 {
				copy(buf[i:], nan)
			}
		}
	}
	done := make(chan struct{})
	pool.barrier(func(int) {}, func() { close(done) })
	<-done
	if !bytes.Equal(encodeAccumulator(pool.accumulator()), encodeAccumulator(ref)) {
		t.Fatal("in-place fold diverged from folding decoded copies")
	}
}

// TestPartialPiecesCostWhatTheyCarry: a piece that leaves its (group,
// timestep) incomplete costs the pool what it carries, not a partition's
// worth of fields. 256 one-cell pieces for distinct (group, timestep) keys
// into a 4,096-cell, p = 2 pool must grow the heap by under 1 MB; a copy of
// the p+2 fields per key would take 32 MiB.
func TestPartialPiecesCostWhatTheyCarry(t *testing.T) {
	const cells, timesteps, p, groups = 4096, 4, 2, 64
	pool := newFoldPool(core.NewSharded(cells, timesteps, p, core.Options{}, 2), mesh.Partition{Lo: 0, Hi: cells})
	pool.start()
	t.Cleanup(pool.stop)
	one := make([][]float64, p+2)
	for f := range one {
		one[f] = []float64{float64(f)}
	}
	var msgs []*bulkMsg
	for g := 0; g < groups; g++ {
		for s := 0; s < timesteps; s++ {
			m, err := parseBulk(wire.Encode(&wire.Data{GroupID: g, Timestep: s, CellLo: g, CellHi: g + 1, Fields: one}))
			if err != nil {
				t.Fatal(err)
			}
			msgs = append(msgs, m)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, m := range msgs {
		if pool.route(m, 0) {
			t.Fatal("a one-cell piece completed its (group, timestep)")
		}
		pool.release(m)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d pending one-cell pieces: heap grew %d bytes", len(msgs), grew)
	if grew >= 1e6 {
		t.Fatalf("%d pending one-cell pieces grew the heap by %d bytes, want under 1 MB", len(msgs), grew)
	}
}

// TestPendingPiecesReleasedAtStop: pieces whose (group, timestep) never
// completes hold their payloads until the pool stops, and the stop releases
// them — raw and codec batch pieces, through a bare pool and through
// Server.Stop(false).
func TestPendingPiecesReleasedAtStop(t *testing.T) {
	const cells, timesteps, p = 20, 3, 2
	frames := func() [][]byte {
		var out [][]byte
		for g, lo := range []int{0, 9} {
			b := &wire.DataBatch{GroupID: g, CellLo: lo, CellHi: lo + 7}
			for s := 0; s < timesteps; s++ {
				fs := make([][]float64, p+2)
				for f := range fs {
					fs[f] = make([]float64, 7)
				}
				b.Steps = append(b.Steps, wire.DataStep{Timestep: s, Fields: fs})
			}
			out = append(out, wire.Encode(b), encodeBatchC(b, []int{3, 4}))
		}
		return out
	}
	base := transport.ReadPoolStats().RefsActive()

	pool := newFoldPool(core.NewSharded(cells, timesteps, p, core.Options{}, 3), mesh.Partition{Lo: 0, Hi: cells})
	pool.start()
	held := base
	for replay := 0; replay < 2; replay++ { // a replayed piece releases the one it overwrites
		for _, frame := range frames() {
			m, err := parseBulk(frame)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < m.steps; s++ {
				if pool.route(m, s) {
					t.Fatal("a partial piece completed its (group, timestep)")
				}
			}
			pool.release(m)
		}
		got := transport.ReadPoolStats().RefsActive()
		if got == base || replay > 0 && got != held {
			t.Fatalf("pending pieces hold %d payload references after %d feeds, want %d", got-base, replay+1, held-base)
		}
		held = got
	}
	pool.stop()
	if got := transport.ReadPoolStats().RefsActive(); got != base {
		t.Fatalf("payload refs active %d after the pool stopped, want %d", got, base)
	}

	net := transport.NewMemNetwork(transport.Options{})
	s := startServer(t, net, 1, cells, timesteps, p, func(c *Config) { c.FoldWorkers = 3 })
	snd, err := net.Dial(s.MainAddr())
	if err != nil {
		t.Fatal(err)
	}
	sent := frames()
	for _, frame := range sent {
		if err := snd.Send(frame); err != nil {
			t.Fatal(err)
		}
	}
	snd.Close()
	s.Stop(false)
	if ws := s.Result().WireStats(); ws.Messages != int64(len(sent)) || s.TotalFolds() != 0 {
		t.Fatalf("server routed %d of %d frames and folded %d steps, want all routed and none folded",
			ws.Messages, len(sent), s.TotalFolds())
	}
	if got := transport.ReadPoolStats().RefsActive(); got != base {
		t.Fatalf("payload refs active %d after Server.Stop(false), want %d", got, base)
	}
}

// TestLaterPieceOverwritesEarlier: pieces of one (group, timestep) that
// overlap without containing each other fold in arrival order, so a later
// piece's cells win. A garbage piece over [0, 6) is overwritten by real
// pieces over [0, 3) and then [3, 10); every shard of three must fold the
// real values, whichever pieces it reads.
func TestLaterPieceOverwritesEarlier(t *testing.T) {
	const cells, timesteps, p = 10, 1, 1
	pool := newFoldPool(core.NewSharded(cells, timesteps, p, core.Options{}, 3), mesh.Partition{Lo: 0, Hi: cells})
	pool.start()
	t.Cleanup(pool.stop)
	fields := func(lo, hi int, seed float64) [][]float64 {
		out := make([][]float64, p+2)
		for f := range out {
			out[f] = make([]float64, hi-lo)
			for c := range out[f] {
				out[f][c] = seed + float64(10*f+lo+c)
			}
		}
		return out
	}
	for i, pc := range []struct {
		lo, hi int
		seed   float64
	}{{0, 6, 999}, {0, 3, 1}, {3, 10, 1}} {
		m, err := parseBulk(wire.Encode(&wire.Data{Timestep: 0, CellLo: pc.lo, CellHi: pc.hi, Fields: fields(pc.lo, pc.hi, pc.seed)}))
		if err != nil {
			t.Fatal(err)
		}
		if done := pool.route(m, 0); done != (i == 2) {
			t.Fatalf("piece %d completed the step: %v", i, done)
		}
		pool.release(m)
	}
	done := make(chan struct{})
	pool.barrier(func(int) {}, func() { close(done) })
	<-done
	ref := core.NewAccumulator(cells, timesteps, p, core.Options{})
	fs := fields(0, cells, 1)
	ref.UpdateGroup(0, fs[0], fs[1], fs[2:])
	if !bytes.Equal(encodeAccumulator(pool.accumulator()), encodeAccumulator(ref)) {
		t.Fatal("overlapping pieces did not fold in arrival order")
	}
}

// TestFoldAllocatesNothing: once warm, routing and folding a (group,
// timestep) allocates nothing, whether it arrives in one piece or two, raw
// or compressed: shells, assemblies, piece lists, spans and decode caches
// are all reused.
func TestFoldAllocatesNothing(t *testing.T) {
	if !poolsReuse() {
		t.Skip("sync.Pool drops a share of its items in this build (the race detector's)")
	}
	const cells, timesteps, p = 64, 2, 2
	pool := newFoldPool(core.NewSharded(cells, timesteps, p, core.Options{}, 2), mesh.Partition{Lo: 0, Hi: cells})
	pool.start()
	t.Cleanup(pool.stop)
	batch := func(lo, hi int) *wire.DataBatch {
		b := &wire.DataBatch{CellLo: lo, CellHi: hi}
		for s := 0; s < timesteps; s++ {
			fs := make([][]float64, p+2)
			for f := range fs {
				fs[f] = make([]float64, hi-lo)
			}
			b.Steps = append(b.Steps, wire.DataStep{Timestep: s, Fields: fs})
		}
		return b
	}
	for name, frames := range map[string][][]byte{
		"raw":         {wire.Encode(batch(0, cells))},
		"raw-split":   {wire.Encode(batch(0, 20)), wire.Encode(batch(20, cells))},
		"codec":       {encodeBatchC(batch(0, cells), []int{32, 32})},
		"codec-split": {encodeBatchC(batch(0, 20), []int{20}), encodeBatchC(batch(20, cells), []int{12, 32})},
	} {
		base := transport.ReadPoolStats().RefsActive()
		allocs := testing.AllocsPerRun(100, func() {
			for _, frame := range frames {
				payload := transport.GetPayload(len(frame)) // recycled by the last release
				copy(payload, frame)
				m, err := parseBulk(payload)
				if err != nil {
					t.Fatal(err)
				}
				for s := 0; s < m.steps; s++ {
					pool.route(m, s)
				}
				pool.release(m)
			}
			for transport.ReadPoolStats().RefsActive() != base {
				runtime.Gosched()
			}
		})
		if allocs != 0 {
			t.Errorf("%s: a warm fold allocated %.1f times per (group, timestep)", name, allocs)
		}
	}
}

// poolsReuse reports whether a sync.Pool hands back what was put in it. The
// race detector's build drops a random quarter of the Puts, so allocation
// counts that rest on pooling hold only without it.
func poolsReuse() bool {
	var pool sync.Pool
	for i := 0; i < 64; i++ {
		x := new(int)
		pool.Put(x)
		if pool.Get() != x {
			return false
		}
	}
	return true
}

// TestTimedOutGroupReleasesPendingPieces: a group whose step 0 folds but
// whose steps 1 and 2 never get their second piece times out, and the
// report that says so releases the pieces its pending assemblies hold. The
// payload references return to their baseline while the server still runs.
func TestTimedOutGroupReleasesPendingPieces(t *testing.T) {
	const cells, timesteps, p = 20, 3, 2
	batch := func(lo, hi int, steps ...int) []byte {
		b := &wire.DataBatch{GroupID: 0, CellLo: lo, CellHi: hi}
		for _, s := range steps {
			fs := make([][]float64, p+2)
			for f := range fs {
				fs[f] = make([]float64, hi-lo)
			}
			b.Steps = append(b.Steps, wire.DataStep{Timestep: s, Fields: fs})
		}
		return wire.Encode(b)
	}
	net := transport.NewMemNetwork(transport.Options{})
	launcher, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer launcher.Close()
	base := transport.ReadPoolStats().RefsActive()
	s := startServer(t, net, 1, cells, timesteps, p, func(c *Config) {
		c.GroupTimeout = 200 * time.Millisecond
		c.LauncherAddr = launcher.Addr()
		c.ReportInterval = 10 * time.Millisecond
	})
	defer s.Stop(false)
	snd, err := net.Dial(s.MainAddr())
	if err != nil {
		t.Fatal(err)
	}
	for _, frame := range [][]byte{batch(0, cells, 0), batch(0, 7, 1, 2)} {
		if err := snd.Send(frame); err != nil {
			t.Fatal(err)
		}
	}
	snd.Close()
	waitFolds(t, s, 1, 5*time.Second)
	for deadline := time.Now().Add(5 * time.Second); transport.ReadPoolStats().RefsActive()-base != 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("pending pieces hold %d payload references, want 2", transport.ReadPoolStats().RefsActive()-base)
		}
	}
	timedOut := false
	for deadline := time.Now().Add(5 * time.Second); !timedOut && time.Now().Before(deadline); {
		msg, err := launcher.Recv(time.Second)
		if err != nil {
			continue
		}
		if d, err := wire.Decode(msg.Payload); err == nil {
			if rep, ok := d.(*wire.Report); ok {
				timedOut = slices.Contains(rep.TimedOut, 0)
			}
		}
		transport.Recycle(msg.Payload)
	}
	if !timedOut {
		t.Fatal("the stalled group was never reported timed out")
	}
	if got := transport.ReadPoolStats().RefsActive() - base; got != 0 {
		t.Fatalf("%d payload references active after the timeout report, want 0", got)
	}
}

// TestStrayPieceTimesOut: a piece for a group that never commits a step (its
// other sim rank's piece never comes) holds a payload reference in its
// assembly. The group's liveness clock still runs out: the report after
// GroupTimeout lists it once and releases the reference, before any stop.
func TestStrayPieceTimesOut(t *testing.T) { strayPieceTimesOut(t, false) }

// TestStrayTimeoutWaitsForLauncher: a stray timeout found while the launcher
// is unreachable is not lost; the first report that reaches it lists it.
func TestStrayTimeoutWaitsForLauncher(t *testing.T) { strayPieceTimesOut(t, true) }

// strayPieceTimesOut sends one piece of a group that never commits a step
// and checks that it is listed timed out in exactly one report and its
// payload reference released. late keeps the launcher address unreachable
// until well after the timeout.
func strayPieceTimesOut(t *testing.T, late bool) {
	const cells, timesteps, p, group = 20, 3, 2, 5
	const launcherAddr = "mem://launcher"
	stray := &wire.DataBatch{GroupID: group, CellLo: 0, CellHi: 7}
	fs := make([][]float64, p+2)
	for f := range fs {
		fs[f] = make([]float64, 7)
	}
	stray.Steps = []wire.DataStep{{Timestep: 0, Fields: fs}}
	net := transport.NewMemNetwork(transport.Options{})
	listen := func() transport.Receiver {
		r, err := net.Listen(launcherAddr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		return r
	}
	var launcher transport.Receiver
	if !late {
		launcher = listen()
	}
	base := transport.ReadPoolStats().RefsActive()
	s := startServer(t, net, 1, cells, timesteps, p, func(c *Config) {
		c.GroupTimeout = 100 * time.Millisecond
		c.LauncherAddr = launcherAddr
		c.ReportInterval = 5 * time.Millisecond
	})
	defer s.Stop(false)
	snd, err := net.Dial(s.MainAddr())
	if err != nil {
		t.Fatal(err)
	}
	if err := snd.Send(wire.Encode(stray)); err != nil {
		t.Fatal(err)
	}
	snd.Close()
	if late {
		time.Sleep(300 * time.Millisecond) // the timeout passes; every dial fails
		launcher = listen()
	}
	listed := 0
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		msg, err := launcher.Recv(100 * time.Millisecond)
		if err != nil {
			continue
		}
		if d, err := wire.Decode(msg.Payload); err == nil {
			if rep, ok := d.(*wire.Report); ok && slices.Contains(rep.TimedOut, group) {
				listed++
				deadline = time.Now().Add(100 * time.Millisecond) // a few more reports
			}
		}
		transport.Recycle(msg.Payload)
	}
	if listed != 1 {
		t.Fatalf("the stray group was listed timed out in %d reports, want 1", listed)
	}
	if got := transport.ReadPoolStats().RefsActive() - base; got != 0 {
		t.Fatalf("%d payload references active after the timeout, want 0", got)
	}
}
