package client

import (
	"bytes"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"melissa/internal/enc"
	"melissa/internal/mesh"
	"melissa/internal/transport"
	"melissa/internal/wire"
)

// fakeServer answers one Hello with a canned Welcome and then collects Data
// messages, standing in for the real server in client-side unit tests.
type fakeServer struct {
	net      *transport.MemNetwork
	welcome  wire.Welcome
	mainRecv transport.Receiver
	dataRecv []transport.Receiver
	data     chan *wire.Data
	frames   chan []byte // every payload the data receivers got
	sink     atomic.Bool // recycle payloads unread instead
}

func newFakeServer(t testing.TB, procs, cells, timesteps, p int) *fakeServer {
	t.Helper()
	f := &fakeServer{
		net:    transport.NewMemNetwork(transport.Options{}),
		data:   make(chan *wire.Data, 1024),
		frames: make(chan []byte, 1024),
	}
	var err error
	f.mainRecv, err = f.net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	f.welcome = wire.Welcome{
		Timesteps:   timesteps,
		Cells:       cells,
		P:           p,
		Partitions:  mesh.BlockPartition(cells, procs),
		DurableStep: wire.NoDurability, // no checkpointing in the fake
	}
	for i := 0; i < procs; i++ {
		r, err := f.net.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		f.dataRecv = append(f.dataRecv, r)
		f.welcome.ServerAddr = append(f.welcome.ServerAddr, r.Addr())
		go func(r transport.Receiver) {
			for {
				m, err := r.Recv(0)
				if err != nil {
					return
				}
				if f.sink.Load() {
					transport.Recycle(m.Payload)
					continue
				}
				if d, err := wire.Decode(m.Payload); err == nil {
					if data, ok := d.(*wire.Data); ok {
						f.data <- data
					}
				}
				f.frames <- m.Payload
			}
		}(r)
	}
	go func() {
		for {
			m, err := f.mainRecv.Recv(0)
			if err != nil {
				return
			}
			decoded, err := wire.Decode(m.Payload)
			if err != nil {
				continue
			}
			hello, ok := decoded.(*wire.Hello)
			if !ok {
				continue
			}
			s, err := f.net.Dial(hello.ReplyAddr)
			if err != nil {
				continue
			}
			s.Send(wire.Encode(&f.welcome))
			s.Close()
		}
	}()
	return f
}

func (f *fakeServer) close() {
	f.mainRecv.Close()
	for _, r := range f.dataRecv {
		r.Close()
	}
}

func TestConnectHandshake(t *testing.T) {
	f := newFakeServer(t, 3, 90, 10, 4)
	defer f.close()
	conn, err := ConnectWith(f.net, f.mainRecv.Addr(), ConnectOpts{GroupID: 5, SimRanks: 2, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.opts.GroupID != 5 || conn.Layout.Cells != 90 || conn.Layout.P != 4 {
		t.Fatalf("connection %+v", conn.Layout)
	}
	// 2 sim ranks × 3 server procs with 90 cells: the block overlap count.
	if len(conn.routes) < 3 || len(conn.routes) > 4 {
		t.Fatalf("unexpected route count %d", len(conn.routes))
	}
}

func TestConnectTimeoutWithoutServer(t *testing.T) {
	net := transport.NewMemNetwork(transport.Options{})
	dead, _ := net.Listen("") // nobody answers
	defer dead.Close()
	start := time.Now()
	_, err := ConnectWith(net, dead.Addr(), ConnectOpts{GroupID: 1, SimRanks: 1, Timeout: 100 * time.Millisecond})
	if err == nil {
		t.Fatal("connect succeeded without a server")
	}
	if time.Since(start) < 80*time.Millisecond {
		t.Fatal("timeout returned too early")
	}
}

func TestConnectInvalidRanks(t *testing.T) {
	net := transport.NewMemNetwork(transport.Options{})
	if _, err := ConnectWith(net, "mem://x", ConnectOpts{GroupID: 1, SimRanks: 0, Timeout: time.Second}); err == nil {
		t.Fatal("zero ranks accepted")
	}
}

func TestSendTimestepValidation(t *testing.T) {
	f := newFakeServer(t, 2, 40, 5, 2)
	defer f.close()
	conn, err := ConnectWith(f.net, f.mainRecv.Addr(), ConnectOpts{GroupID: 0, SimRanks: 2, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	mk := func(n, cells int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = make([]float64, cells)
		}
		return out
	}
	if err := conn.SendTimestep(0, mk(3, 40)); err == nil {
		t.Fatal("wrong field count accepted")
	}
	if err := conn.SendTimestep(0, mk(4, 39)); err == nil {
		t.Fatal("wrong cell count accepted")
	}
	if err := conn.SendTimestep(0, mk(4, 40)); err != nil {
		t.Fatal(err)
	}
}

// Every cell must arrive exactly once per (timestep, field) across all
// server processes — the client half of the partition-completeness invariant.
func TestSendTimestepCoversAllCellsOnce(t *testing.T) {
	const procs, cells, p = 3, 70, 2
	f := newFakeServer(t, procs, cells, 4, p)
	defer f.close()
	conn, err := ConnectWith(f.net, f.mainRecv.Addr(), ConnectOpts{GroupID: 1, SimRanks: 4, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	fields := make([][]float64, p+2)
	for i := range fields {
		fields[i] = make([]float64, cells)
		for c := range fields[i] {
			fields[i][c] = float64(i*1000 + c)
		}
	}
	if err := conn.SendTimestep(2, fields); err != nil {
		t.Fatal(err)
	}

	seen := make([]int, cells)
	for got := 0; got < len(conn.routes); got++ {
		select {
		case d := <-f.data:
			if d.Timestep != 2 || d.GroupID != 1 || len(d.Fields) != p+2 {
				t.Fatalf("bad data message %+v", d)
			}
			for c := d.CellLo; c < d.CellHi; c++ {
				seen[c]++
				// Values carry their origin: verify slicing is aligned.
				if d.Fields[1][c-d.CellLo] != float64(1000+c) {
					t.Fatalf("cell %d misrouted: %v", c, d.Fields[1][c-d.CellLo])
				}
			}
		case <-time.After(2 * time.Second):
			t.Fatal("missing data message")
		}
	}
	for c, n := range seen {
		if n != 1 {
			t.Fatalf("cell %d delivered %d times", c, n)
		}
	}
}

func TestRunGroupLockstep(t *testing.T) {
	const cells, timesteps, p = 24, 6, 2
	f := newFakeServer(t, 2, cells, timesteps, p)
	defer f.close()

	// A simulation that records the steps it was allowed to produce.
	sim := SimFunc(func(row []float64, emit func(step int, field []float64) bool) {
		field := make([]float64, cells)
		for s := 0; s < timesteps; s++ {
			for c := range field {
				field[c] = row[0] + float64(s)
			}
			if !emit(s, field) {
				return
			}
		}
	})
	rows := make([][]float64, p+2)
	for i := range rows {
		rows[i] = []float64{float64(i), 1}
	}
	if err := RunGroup(f.net, f.mainRecv.Addr(), RunConfig{
		ConnectOpts: ConnectOpts{GroupID: 3, SimRanks: 2}, Rows: rows, Sim: sim,
	}); err != nil {
		t.Fatal(err)
	}
	// Per (step) each server proc receives its share; count total messages.
	want := timesteps * 2 // 2 sim-ranks aligned onto 2 server procs
	got := 0
	timeout := time.After(2 * time.Second)
	for got < want {
		select {
		case d := <-f.data:
			got++
			if d.Timestep < 0 || d.Timestep >= timesteps {
				t.Fatalf("bad timestep %d", d.Timestep)
			}
		case <-timeout:
			t.Fatalf("got %d of %d messages", got, want)
		}
	}
}

func TestRunGroupValidation(t *testing.T) {
	net := transport.NewMemNetwork(transport.Options{})
	if err := RunGroup(net, "x", RunConfig{Rows: [][]float64{{1}}, Sim: SimFunc(nil)}); err == nil {
		t.Fatal("too few rows accepted")
	}
	rows := [][]float64{{1}, {2}, {3}}
	if err := RunGroup(net, "x", RunConfig{Rows: rows}); err == nil {
		t.Fatal("nil sim accepted")
	}
}

func TestRunGroupRowMismatchRejected(t *testing.T) {
	f := newFakeServer(t, 1, 10, 2, 3) // server expects p+2 = 5 rows
	defer f.close()
	rows := [][]float64{{1}, {2}, {3}} // only 3
	err := RunGroup(f.net, f.mainRecv.Addr(), RunConfig{
		ConnectOpts: ConnectOpts{GroupID: 0}, Rows: rows,
		Sim: SimFunc(func(row []float64, emit func(int, []float64) bool) {}),
	})
	if err == nil {
		t.Fatal("row/p mismatch accepted")
	}
}

func TestRunGroupSimulationEndsEarly(t *testing.T) {
	const cells, timesteps = 8, 5
	f := newFakeServer(t, 1, cells, timesteps, 1)
	defer f.close()
	// Simulation stops after 2 steps: the group must fail, not hang.
	sim := SimFunc(func(row []float64, emit func(step int, field []float64) bool) {
		field := make([]float64, cells)
		emit(0, field)
		emit(1, field)
	})
	rows := [][]float64{{1}, {2}, {3}}
	err := RunGroup(f.net, f.mainRecv.Addr(), RunConfig{ConnectOpts: ConnectOpts{GroupID: 1}, Rows: rows, Sim: sim})
	if err == nil {
		t.Fatal("early-ending simulation not reported")
	}
}

// The frames the members write are the frames wire.EncodeTo and
// BatchCompressor.EncodeTo make of the same message, byte for byte: raw
// Data, a full and a partial final DataBatch, and codec frames cut into one
// and into three ranges.
func TestMemberFramesMatchEncode(t *testing.T) {
	const procs, cells, p = 2, 14, 1
	for _, tc := range []struct {
		name          string
		batch, steps  int
		codec, shards int // shards: fold shards per process (codec)
	}{
		{"data", 1, 2, 0, 0},
		{"full-batch", 3, 3, 0, 0},
		{"partial-batch", 3, 5, 0, 0},
		{"codec-1-range", 2, 3, 1, 1},
		{"codec-3-ranges", 2, 3, 1, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFakeServer(t, procs, cells, tc.steps, p)
			defer f.close()
			if tc.codec != 0 {
				f.welcome.Caps = wire.CapWireCodec
				f.welcome.FoldShards = []int{tc.shards, tc.shards}
			}
			conn, err := ConnectWith(f.net, f.mainRecv.Addr(), ConnectOpts{GroupID: 4, SimRanks: 1,
				Timeout: 2 * time.Second, BatchSteps: tc.batch, WireCodec: tc.codec != 0})
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			value := func(step, m, c int) float64 { return math.Sin(float64(c)/3+float64(m)) + float64(step) }
			fields := make([][]float64, p+2)
			for i := range fields {
				fields[i] = make([]float64, cells)
			}
			for step := 0; step < tc.steps; step++ {
				for m, fl := range fields {
					for c := range fl {
						fl[c] = value(step, m, c)
					}
				}
				if err := conn.SendTimestep(step, fields); err != nil {
					t.Fatal(err)
				}
			}
			if err := conn.Flush(); err != nil {
				t.Fatal(err)
			}
			// One frame per route and batch (ceil(steps/batch) per route).
			want := procs * ((tc.steps + tc.batch - 1) / tc.batch)
			for i := 0; i < want; i++ {
				frame := <-f.frames
				decoded, err := wire.Decode(frame)
				if err != nil {
					t.Fatal(err)
				}
				// Rebuild the message the frame claims to carry from the
				// fields themselves, and encode it the one-call way.
				var lo, hi int
				var steps []int
				switch m := decoded.(type) {
				case *wire.Data:
					lo, hi, steps = m.CellLo, m.CellHi, []int{m.Timestep}
				case *wire.DataBatch:
					lo, hi = m.CellLo, m.CellHi
					for _, st := range m.Steps {
						steps = append(steps, st.Timestep)
					}
				}
				msg := &wire.DataBatch{GroupID: 4, CellLo: lo, CellHi: hi}
				for _, step := range steps {
					st := wire.DataStep{Timestep: step}
					for m := 0; m < p+2; m++ {
						cut := make([]float64, hi-lo)
						for c := range cut {
							cut[c] = value(step, m, lo+c)
						}
						st.Fields = append(st.Fields, cut)
					}
					msg.Steps = append(msg.Steps, st)
				}
				w := enc.NewWriter(0)
				switch {
				case tc.codec != 0:
					var lens []int
					for _, sh := range mesh.BlockPartition(hi-lo, tc.shards) {
						lens = append(lens, sh.Len())
					}
					var bc wire.BatchCompressor
					bc.EncodeTo(w, msg, lens)
				case tc.batch == 1:
					st := msg.Steps[0]
					wire.EncodeTo(w, &wire.Data{GroupID: 4, Timestep: st.Timestep, CellLo: lo, CellHi: hi, Fields: st.Fields})
				default:
					wire.EncodeTo(w, msg)
				}
				if !bytes.Equal(frame, w.Bytes()) {
					t.Fatalf("frame of cells [%d,%d) steps %v differs from its one-call encoding", lo, hi, steps)
				}
			}
		})
	}
}

// A send that fails on one route (a cut connection, no retry budget) does
// not hold back the other route, and the connection stays usable: later
// SendTimestep calls fail on the cut route but still ship every step to the
// healthy one, in frames of at most BatchSteps steps, raw and codec alike.
func TestSendTimestepAfterRouteFailure(t *testing.T) {
	const procs, cells, p, rounds = 2, 12, 1, 3
	for _, tc := range []struct {
		name  string
		batch int
		codec bool
	}{{"data", 1, false}, {"batch", 2, false}, {"codec", 2, true}} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFakeServer(t, procs, cells, rounds*tc.batch, p)
			defer f.close()
			if tc.codec {
				f.welcome.Caps = wire.CapWireCodec
				f.welcome.FoldShards = []int{1, 1}
			}
			// Process 0's data connection breaks after its first frame.
			chaos := transport.NewChaosNetwork(f.net, transport.ChaosPlan{Rules: []transport.ChaosRule{
				{Addr: f.welcome.ServerAddr[0], Dial: 0, CutAfterFrames: 1},
			}})
			conn, err := ConnectWith(chaos, f.mainRecv.Addr(), ConnectOpts{GroupID: 2, SimRanks: 1,
				Timeout: 2 * time.Second, BatchSteps: tc.batch, WireCodec: tc.codec})
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			value := func(step, m, c int) float64 { return float64(1000*step + 100*m + c) }
			fields := [][]float64{make([]float64, cells), make([]float64, cells), make([]float64, cells)}
			failed := 0
			for step := 0; step < rounds*tc.batch; step++ {
				for m, fl := range fields {
					for c := range fl {
						fl[c] = value(step, m, c)
					}
				}
				if err := conn.SendTimestep(step, fields); err != nil {
					failed++
				}
			}
			if failed != rounds-1 {
				t.Fatalf("%d SendTimestep calls failed, want %d (every ship to the cut process after its first)", failed, rounds-1)
			}
			// Process 1 gets every step, intact; process 0 its first frame.
			healthy := f.welcome.Partitions[1]
			var got []int
			for len(got) < rounds*tc.batch {
				var frame []byte
				select {
				case frame = <-f.frames:
				case <-time.After(2 * time.Second):
					t.Fatalf("process 1 got steps %v, want 0..%d", got, rounds*tc.batch-1)
				}
				decoded, err := wire.Decode(frame)
				if err != nil {
					t.Fatal(err)
				}
				batch, ok := decoded.(*wire.DataBatch)
				if d, single := decoded.(*wire.Data); single {
					batch, ok = &wire.DataBatch{CellLo: d.CellLo, Steps: []wire.DataStep{{Timestep: d.Timestep, Fields: d.Fields}}}, true
				}
				if !ok || len(batch.Steps) > tc.batch {
					t.Fatalf("frame %T with more than %d steps", decoded, tc.batch)
				}
				if batch.CellLo != healthy.Lo {
					continue
				}
				for _, st := range batch.Steps {
					for m, fl := range st.Fields {
						for c, v := range fl {
							if v != value(st.Timestep, m, healthy.Lo+c) {
								t.Fatalf("step %d field %d cell %d = %v", st.Timestep, m, healthy.Lo+c, v)
							}
						}
					}
					got = append(got, st.Timestep)
				}
			}
			for i, step := range got {
				if step != i {
					t.Fatalf("process 1 got steps %v, want 0..%d in order", got, rounds*tc.batch-1)
				}
			}
		})
	}
}

// BenchmarkSendTimestep times one SendTimestep of p+2 fields into a mem
// sink that recycles every frame: raw Data frames, four-step DataBatch
// frames and codec frames. Steady state allocates nothing (CI gates 0
// allocs/op on all three).
func BenchmarkSendTimestep(b *testing.B) {
	const cells, p = 4096, 4
	for _, bc := range []struct {
		name  string
		batch int
		codec bool
	}{{"data", 1, false}, {"batch4", 4, false}, {"codec", 4, true}} {
		b.Run(bc.name, func(b *testing.B) {
			f := newFakeServer(b, 2, cells, 1, p)
			defer f.close()
			f.sink.Store(true)
			if bc.codec {
				f.welcome.Caps = wire.CapWireCodec
				f.welcome.FoldShards = []int{2, 2}
			}
			conn, err := ConnectWith(f.net, f.mainRecv.Addr(), ConnectOpts{GroupID: 0, SimRanks: 1,
				Timeout: 2 * time.Second, BatchSteps: bc.batch, WireCodec: bc.codec})
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			fields := make([][]float64, p+2)
			for i := range fields {
				fields[i] = make([]float64, cells)
				for c := range fields[i] {
					fields[i][c] = math.Sin(float64(c)/64 + float64(i))
				}
			}
			for step := 0; step < 4*bc.batch; step++ { // warm the pools and scratch
				if err := conn.SendTimestep(step, fields); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(8 * cells * (p + 2)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := conn.SendTimestep(i, fields); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
