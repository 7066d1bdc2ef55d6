package client

import (
	"testing"
	"time"

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
}

func newFakeServer(t *testing.T, procs, cells, timesteps, p int) *fakeServer {
	t.Helper()
	f := &fakeServer{
		net:  transport.NewMemNetwork(transport.Options{}),
		data: make(chan *wire.Data, 1024),
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
				if d, err := wire.Decode(m.Payload); err == nil {
					if data, ok := d.(*wire.Data); ok {
						f.data <- data
					}
				}
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
	if conn.Messages() < 3 || conn.Messages() > 4 {
		t.Fatalf("unexpected route count %d", conn.Messages())
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
	for got := 0; got < conn.Messages(); got++ {
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
