package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

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

// TestInPlaceFoldHoldsPayloadUntilRelease: the direct path folds fields
// where they lie in the payload (or in a worker's decompressed words), so
// the payload must be read only while a reference to it is held. Frames are
// fed one at a time through one buffer; as soon as the last reference to a
// frame is dropped, the test fills the buffer with NaN bytes. A worker that
// read the payload after its release would fold NaNs, and -race reports
// the write against its read. The state must be bitwise equal to folding
// the same frames decoded into fresh slices.
func TestInPlaceFoldHoldsPayloadUntilRelease(t *testing.T) {
	const cells, timesteps, p, shards = 29, 4, 3, 3
	part := mesh.Partition{Lo: 7, Hi: 7 + cells}
	opts := optionCombos()[15]
	pool := newFoldPool(core.NewSharded(cells, timesteps, p, opts, shards), part)
	pool.start()
	t.Cleanup(pool.stop)
	ref := core.NewAccumulator(cells, timesteps, p, opts)

	var shardCuts []int // the codec sub-ranges a client cuts on shard bounds
	for i := 0; i < shards; i++ {
		lo, hi := pool.accumulator().ShardRange(i)
		shardCuts = append(shardCuts, hi-lo)
	}
	batch := func(group int) *wire.DataBatch {
		b := &wire.DataBatch{GroupID: group, CellLo: part.Lo, CellHi: part.Hi}
		for s := 0; s < timesteps; s++ {
			fs := make([][]float64, p+2)
			for f := range fs {
				fs[f] = make([]float64, cells)
				for c := range fs[f] {
					fs[f][c] = math.Sin(float64(group*977+s*131+f*37+c)) * float64(group+1)
				}
			}
			b.Steps = append(b.Steps, wire.DataStep{Timestep: s, Fields: fs})
		}
		return b
	}
	var frames [][]byte
	for g := 0; g < 4; g++ {
		b := batch(g)
		switch g {
		case 0:
			for _, st := range b.Steps {
				frames = append(frames, wire.Encode(&wire.Data{GroupID: g, Timestep: st.Timestep,
					CellLo: b.CellLo, CellHi: b.CellHi, Fields: st.Fields}))
			}
		case 1:
			frames = append(frames, wire.Encode(b))
		case 2:
			frames = append(frames, encodeBatchC(b, shardCuts)) // folded from the decode cache
		case 3:
			frames = append(frames, encodeBatchC(b, []int{cells / 2, cells - cells/2})) // copied
		}
	}

	// Above the transport pool's buffer cap, so the final release drops the
	// buffer instead of pooling it and only this test ever writes it.
	buf := make([]byte, 0, 8<<20)
	nan := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))
	base := transport.ReadPoolStats().RefsActive()
	for _, frame := range frames {
		buf = append(buf[:0], frame...)
		m, err := parseBulk(buf)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < m.steps; s++ {
			pool.route(m, s)
		}
		pool.release(m)
		for transport.ReadPoolStats().RefsActive() != base {
			runtime.Gosched()
		}
		for i := 0; i+8 <= len(buf); i += 8 {
			copy(buf[i:], nan)
		}

		msg, err := wire.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		switch d := msg.(type) {
		case *wire.Data:
			ref.UpdateGroup(d.Timestep, d.Fields[0], d.Fields[1], d.Fields[2:])
		case *wire.DataBatch:
			for _, st := range d.Steps {
				ref.UpdateGroup(st.Timestep, st.Fields[0], st.Fields[1], st.Fields[2:])
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
