package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"melissa/internal/client"
	"melissa/internal/core"
	"melissa/internal/enc"
	"melissa/internal/transport"
	"melissa/internal/wire"
)

// encodeBatchC hand-encodes a compressed bulk frame for direct injection.
func encodeBatchC(m *wire.DataBatch, rangeLens []int) []byte {
	w := enc.NewWriter(1 << 14)
	var bc wire.BatchCompressor
	bc.EncodeTo(w, m, rangeLens)
	return append([]byte(nil), w.Bytes()...)
}

// TestCodecIngestEquivalenceAllOptions is the compressed-path twin of
// TestIngestEquivalenceAllOptions: with the codec negotiated on both sides,
// every Options combination, FoldWorkers ∈ {1, 4}, unbatched and batched
// sends with multi-piece assembly (SimRanks = 2) must leave the accumulator
// bitwise identical to direct accumulation — and therefore to the raw wire
// path, which the existing test pins against the same oracle.
func TestCodecIngestEquivalenceAllOptions(t *testing.T) {
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
					c.WireCodec = true
				})
				for _, g := range groups {
					if err := client.RunGroup(net, s.MainAddr(), client.RunConfig{
						ConnectOpts: client.ConnectOpts{GroupID: g, SimRanks: 2, BatchSteps: batch, WireCodec: true}, Rows: design.GroupRows(g),
						Sim: testSim(cells, timesteps),
					}); err != nil {
						t.Fatalf("%s: group %d: %v", name, g, err)
					}
					waitFolds(t, s, int64((g+1)*timesteps), 10*time.Second)
				}
				s.Stop(false)
				ws := s.Result().WireStats()
				if ws.Messages == 0 || ws.WireBytes >= ws.RawBytes {
					t.Fatalf("%s: codec negotiated but wire bytes not reduced: %+v", name, ws)
				}
				got := encodeAccumulator(s.Procs()[0].Accumulator())
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: compressed ingest diverged from direct accumulation", name)
				}
			}
		}
	}
}

// TestCodecNegotiationFallback runs the full 2×2 knob matrix on a two-process
// server. The codec is only active when both sides opt in; every other
// pairing must silently fall back to the raw framing (WireBytes == RawBytes)
// — and all four cells must produce identical statistic fields. Per-cell
// statistics are independent across cells, so the partitioned server fields
// must equal the unpartitioned reference exactly.
func TestCodecNegotiationFallback(t *testing.T) {
	const cells, timesteps, p, nGroups = 24, 3, 2, 2
	design := testDesign(p, nGroups)
	groups := []int{0, 1}
	opts := core.Options{MinMax: true, Quantiles: []float64{0.5}}
	ref := referenceAccumulator(cells, timesteps, p, opts, design, groups)

	for _, serverOn := range []bool{false, true} {
		for _, clientOn := range []bool{false, true} {
			name := fmt.Sprintf("server=%v/client=%v", serverOn, clientOn)
			net := transport.NewMemNetwork(transport.Options{})
			s := startServer(t, net, 2, cells, timesteps, p, func(c *Config) {
				c.FoldWorkers = 2
				c.Stats = opts
				c.WireCodec = serverOn
			})
			for _, g := range groups {
				if err := client.RunGroup(net, s.MainAddr(), client.RunConfig{
					ConnectOpts: client.ConnectOpts{GroupID: g, SimRanks: 2, BatchSteps: 2, WireCodec: clientOn}, Rows: design.GroupRows(g),
					Sim: testSim(cells, timesteps),
				}); err != nil {
					t.Fatalf("%s: group %d: %v", name, g, err)
				}
				waitFolds(t, s, int64((g+1)*timesteps*2), 10*time.Second)
			}
			s.Stop(false)
			ws := s.Result().WireStats()
			if serverOn && clientOn {
				if ws.WireBytes >= ws.RawBytes || ws.Ratio() <= 1 {
					t.Fatalf("%s: both sides opted in but traffic not compressed: %+v", name, ws)
				}
			} else if ws.WireBytes != ws.RawBytes {
				t.Fatalf("%s: fallback pairing should ship raw frames, got %+v", name, ws)
			}
			res := s.Result()
			for step := 0; step < timesteps; step++ {
				checkField(t, name, "mean", res.MeanField(step), ref.MeanField(step, nil))
				checkField(t, name, "variance", res.VarianceField(step), ref.VarianceField(step, nil))
				for k := 0; k < p; k++ {
					checkField(t, name, "first", res.FirstField(step, k), ref.FirstField(step, k, nil))
					checkField(t, name, "total", res.TotalField(step, k), ref.TotalField(step, k, nil))
				}
			}
		}
	}
}

func checkField(t *testing.T, name, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %s field length %d, want %d", name, what, len(got), len(want))
	}
	for c := range got {
		if got[c] != want[c] {
			t.Fatalf("%s: %s field cell %d: got %v, want %v", name, what, c, got[c], want[c])
		}
	}
}

// TestCodecClientWireStats checks the sender-side byte accounting directly on
// a Connection: with the codec negotiated the wire count must undercut the
// raw-framing count, and the raw count must match what the server accounts as
// RawBytes so the two ends of the telemetry agree.
func TestCodecClientWireStats(t *testing.T) {
	const cells, timesteps, p = 64, 3, 2
	net := transport.NewMemNetwork(transport.Options{})
	s := startServer(t, net, 1, cells, timesteps, p, func(c *Config) {
		c.FoldWorkers = 2
		c.WireCodec = true
	})
	conn, err := client.ConnectWith(net, s.MainAddr(), client.ConnectOpts{
		GroupID: 0, SimRanks: 1, Timeout: 5 * time.Second,
		WireCodec: true, BatchSteps: timesteps,
	})
	if err != nil {
		t.Fatal(err)
	}
	fields := make([][]float64, p+2)
	for fi := range fields {
		f := make([]float64, cells)
		for c := range f {
			f[c] = float64(fi) + float64(c)*0.25
		}
		fields[fi] = f
	}
	for step := 0; step < timesteps; step++ {
		if err := conn.SendTimestep(step, fields); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.Flush(); err != nil {
		t.Fatal(err)
	}
	wireB, rawB := conn.WireStats()
	if wireB >= rawB {
		t.Fatalf("client codec stats: wire %d >= raw %d", wireB, rawB)
	}
	conn.Close()
	waitFolds(t, s, timesteps, 10*time.Second)
	s.Stop(false)
	ws := s.Result().WireStats()
	if ws.RawBytes != rawB {
		t.Fatalf("server raw accounting %d != client raw accounting %d", ws.RawBytes, rawB)
	}
	if ws.WireBytes != wireB {
		t.Fatalf("server wire accounting %d != client wire accounting %d", ws.WireBytes, wireB)
	}
}

// TestCodecOutOfOrderPieces drives hand-crafted compressed frames at a
// codec-off server: decoding is unconditional (the knob only controls
// advertisement), so a mixed fleet interoperates. Pieces arrive out of
// order, mixed raw/compressed, with shard-misaligned range cuts (the
// FoldShards hint is advisory), and replays after commit are discarded.
func TestCodecOutOfOrderPieces(t *testing.T) {
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
	sendC := func(step, lo, hi int, seed float64, rangeLens []int) {
		t.Helper()
		m := &wire.DataBatch{GroupID: 0, CellLo: lo, CellHi: hi, Steps: []wire.DataStep{
			{Timestep: step, Fields: fields(lo, hi, seed)},
		}}
		if err := snd.Send(encodeBatchC(m, rangeLens)); err != nil {
			t.Fatal(err)
		}
	}
	send := func(msg any) {
		t.Helper()
		if err := snd.Send(wire.Encode(msg)); err != nil {
			t.Fatal(err)
		}
	}

	// Step 0: three compressed pieces out of order, the middle one replayed
	// with garbage first (partial assemblies tolerate replays by overwrite).
	// Range cuts deliberately ignore the 3-worker shard layout.
	sendC(0, 7, 10, 1, []int{1, 2})
	sendC(0, 3, 7, 999, []int{4})
	sendC(0, 3, 7, 1, []int{3, 1})
	sendC(0, 0, 3, 1, []int{3})
	waitFolds(t, s, 1, 5*time.Second)

	// Step 1: a compressed partial goes pending, a raw full-cover piece
	// completes the assembly, then a compressed replay must be discarded.
	sendC(1, 0, 4, 2, []int{2, 2})
	send(&wire.Data{GroupID: 0, Timestep: 1, CellLo: 0, CellHi: 10, Fields: fields(0, 10, 2)})
	sendC(1, 0, 10, 777, []int{10})
	waitFolds(t, s, 2, 5*time.Second)
	s.Stop(false)

	ref := core.NewAccumulator(cells, timesteps, p, core.Options{})
	for step := 0; step < timesteps; step++ {
		fs := fields(0, cells, float64(step+1))
		ref.UpdateGroup(step, fs[0], fs[1], fs[2:])
	}
	if !bytes.Equal(encodeAccumulator(s.Procs()[0].Accumulator()), encodeAccumulator(ref)) {
		t.Fatal("compressed piece routing diverged from reference")
	}
}

// TestCodecCorruptFramesDroppedPoolBalances floods a server with mutilated
// compressed frames — truncations, appended tails, bit flips, stomped range
// tables — concurrently with legitimate codec-negotiated groups, with pool
// double-recycle detection armed. The seed frame targets a timestep past the
// study, so even a mutation that survives parsing and validation can never
// fold: every injected frame must be dropped whole, without panic, without
// touching the real groups' statistics, and the payload pool must balance.
func TestCodecCorruptFramesDroppedPoolBalances(t *testing.T) {
	transport.SetPoolDebug(true)
	defer transport.SetPoolDebug(false)
	before := transport.ReadPoolStats()

	const cells, timesteps, p, nGroups = 40, 4, 2, 6
	design := testDesign(p, nGroups)
	sim := testSim(cells, timesteps)
	opts := core.Options{MinMax: true, HigherMoments: true}
	groups := make([]int, nGroups)
	for g := range groups {
		groups[g] = g
	}
	want := encodeAccumulator(referenceAccumulator(cells, timesteps, p, opts, design, groups))

	net := transport.NewMemNetwork(transport.Options{})
	s := startServer(t, net, 1, cells, timesteps, p, func(c *Config) {
		c.FoldWorkers = 3
		c.Stats = opts
		c.WireCodec = true
	})

	// A well-formed compressed frame whose timestep is past the study: the
	// corruption seed. Mutations below never touch the header's group or
	// timestep words, so any variant either fails Parse/Validate or is
	// dropped at routing — none can reach a fold worker's accumulator.
	seedFields := make([][]float64, p+2)
	for fi := range seedFields {
		f := make([]float64, cells)
		for c := range f {
			f[c] = float64(fi*cells + c)
		}
		seedFields[fi] = f
	}
	good := encodeBatchC(&wire.DataBatch{GroupID: 999, CellLo: 0, CellHi: cells, Steps: []wire.DataStep{
		{Timestep: timesteps, Fields: seedFields},
	}}, []int{14, 13, 13})
	// Offset of the first byte past tag, group id, cell bounds, step count
	// and the one timestep word — mutations start here.
	const mutLo = 1 + 3*8 + 4 + 8

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7 + i)))
			snd, err := net.Dial(s.MainAddr())
			if err != nil {
				return
			}
			defer snd.Close()
			for j := 0; j < 60; j++ {
				frame := append([]byte(nil), good...)
				switch j % 5 {
				case 0: // truncate anywhere, header or blocks
					frame = frame[:1+rng.Intn(len(frame)-1)]
				case 1: // trailing junk after the last block
					frame = append(frame, byte(rng.Intn(256)), byte(rng.Intn(256)))
				case 2: // single bit flip in counts, range table or blocks
					pos := mutLo + rng.Intn(len(frame)-mutLo)
					frame[pos] ^= 1 << uint(rng.Intn(8))
				case 3: // stomp a 4-byte window (range sizes, tokens, values)
					pos := mutLo + rng.Intn(len(frame)-mutLo-4)
					for k := 0; k < 4; k++ {
						frame[pos+k] = byte(rng.Intn(256))
					}
				case 4: // intact frame — still dropped, timestep out of study
				}
				snd.Send(frame)
			}
		}(i)
	}
	// Legitimate codec-negotiated traffic alongside, sequentially so the
	// fold order — and therefore the accumulator bytes — stay deterministic.
	for _, g := range groups {
		if err := client.RunGroup(net, s.MainAddr(), client.RunConfig{
			ConnectOpts: client.ConnectOpts{GroupID: g, SimRanks: 2, BatchSteps: 1 + g%3, WireCodec: true}, Rows: design.GroupRows(g), Sim: sim,
		}); err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
		waitFolds(t, s, int64((g+1)*timesteps), 10*time.Second)
	}
	wg.Wait()
	s.Stop(false)

	got := encodeAccumulator(s.Procs()[0].Accumulator())
	if !bytes.Equal(got, want) {
		t.Fatal("corrupted compressed traffic altered the real groups' statistics")
	}

	after := transport.ReadPoolStats()
	if d := after.RefsActive() - before.RefsActive(); d != 0 {
		t.Fatalf("compressed ingest leaked %d payload references", d)
	}
	if d := after.Outstanding() - before.Outstanding(); d != 0 {
		t.Fatalf("payload pool leaked %d buffers", d)
	}
}

// TestCodecNxMDecompressions: with 3 sim ranks feeding 2 processes, every
// process assembles each (group, timestep) from two pieces, and a fold
// worker whose shard straddles the cut reads a block of each. Each worker
// keeps one decode cache per piece index, so a batch-8 codec study
// decompresses every block a worker reads once per message, not once per
// step: 40 ranges, as many as decoding each piece into a partition-sized
// copy took. A cache shared across piece indices thrashes between the two
// messages and decompresses several times that.
func TestCodecNxMDecompressions(t *testing.T) {
	const cells, timesteps, p, groups = 96, 16, 2, 2
	design := testDesign(p, groups)
	net := transport.NewMemNetwork(transport.Options{})
	s := startServer(t, net, 2, cells, timesteps, p, func(c *Config) {
		c.FoldWorkers = 4
		c.WireCodec = true
	})
	before := mCodecSeconds.Count()
	for g := 0; g < groups; g++ {
		if err := client.RunGroup(net, s.MainAddr(), client.RunConfig{
			ConnectOpts: client.ConnectOpts{GroupID: g, SimRanks: 3, BatchSteps: 8, WireCodec: true},
			Rows:        design.GroupRows(g), Sim: testSim(cells, timesteps),
		}); err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
	}
	waitFolds(t, s, 2*groups*timesteps, 10*time.Second)
	s.Stop(false)
	if got := mCodecSeconds.Count() - before; got != 40 {
		t.Fatalf("the N×M codec study decompressed %d ranges, want 40", got)
	}
}
