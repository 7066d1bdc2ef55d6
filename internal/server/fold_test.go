package server

import (
	"bytes"
	"fmt"
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
// After every group a barrier rides the queues behind the routed steps, with
// no quiesce in between: its each() must see exactly the folds routed so far
// on every shard. The final state must be bitwise equal to folding the same
// fields into a dense accumulator in order, and every payload reference must
// have been released.
func TestFoldPoolStandalone(t *testing.T) {
	const cells, timesteps, p, shards, batch = 23, 6, 2, 3, 3
	part := mesh.Partition{Lo: 100, Hi: 100 + cells}
	combos := optionCombos()
	for _, opts := range []core.Options{combos[0], combos[len(combos)-1]} {
		pool := newFoldPool(core.NewSharded(cells, timesteps, p, opts, shards), part)
		pool.start()
		t.Cleanup(pool.stop)
		ref := core.NewAccumulator(cells, timesteps, p, opts)
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
				seen := make([]int64, shards)
				done := make(chan struct{})
				pool.barrier(func(shard int) {
					for s := 0; s < timesteps; s++ {
						seen[shard] += pool.accumulator().ShardAccum(shard).N(s)
					}
				}, func() { close(done) })
				<-done
				for shard, n := range seen {
					if n != int64(folds) {
						t.Fatalf("%s: barrier saw %d folds on shard %d, want %d", name, n, shard, folds)
					}
				}
				group++
			}
		}

		pool.quiesce()
		if got := transport.ReadPoolStats().RefsActive(); got != refsBefore {
			t.Fatalf("payload refs active %d after quiesce, want %d", got, refsBefore)
		}
		if got := pool.foldCount(); got != int64(folds) {
			t.Fatalf("fold counter %d, want %d", got, folds)
		}
		if !bytes.Equal(encodeAccumulator(pool.accumulator().Dense()), encodeAccumulator(ref)) {
			t.Fatal("standalone pool state diverged from direct accumulation")
		}
	}
}
