package client

import (
	"testing"
	"time"

	"melissa/internal/mesh"
	"melissa/internal/transport"
	"melissa/internal/wire"
)

// TestBatchControllerDynamics: congested hints must grow the effective
// batch size towards the cap, and clear hints must decay it back to 1 —
// the client half of the adaptive-batching loop.
func TestBatchControllerDynamics(t *testing.T) {
	var c BatchController
	const maxSteps = 8
	if got := c.Steps(maxSteps); got != 1 {
		t.Fatalf("idle controller batches %d steps, want 1", got)
	}
	for i := 0; i < 10; i++ {
		c.Observe(1.0)
	}
	if got := c.Steps(maxSteps); got != maxSteps {
		t.Fatalf("saturated controller batches %d steps, want %d", got, maxSteps)
	}
	// One clear report must not collapse the batch all the way back...
	c.Observe(0)
	if got := c.Steps(maxSteps); got <= 1 || got >= maxSteps {
		t.Fatalf("one clear hint moved batch to %d, want strictly between 1 and %d", got, maxSteps)
	}
	// ...but a cleared backlog must decay it to 1.
	for i := 0; i < 10; i++ {
		c.Observe(0)
	}
	if got := c.Steps(maxSteps); got != 1 {
		t.Fatalf("cleared controller batches %d steps, want 1", got)
	}
	// Hints outside [0,1] clamp instead of corrupting the level.
	c.Observe(42)
	if l := c.Level(); l > 1 {
		t.Fatalf("level %v escaped [0,1]", l)
	}
	if got := c.Steps(1); got != 1 {
		t.Fatalf("cap 1 batches %d steps, want 1", got)
	}
}

// frameKind summarizes one received wire frame for the adaptive test.
type frameKind struct {
	batch bool
	steps int
}

// TestConnectionAdaptiveBatching drives a Connection against a scripted
// congestion controller and checks the wire traffic: batches grow to the
// cap while the controller reports congestion and shrink back to
// single-step messages once it clears.
func TestConnectionAdaptiveBatching(t *testing.T) {
	const cells, timesteps, p = 12, 12, 1
	net := transport.NewMemNetwork(transport.Options{})
	reply, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer reply.Close()
	dataRecv, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer dataRecv.Close()
	frames := make(chan frameKind, 256)
	go func() {
		for {
			m, err := dataRecv.Recv(0)
			if err != nil {
				return
			}
			switch wire.PayloadType(m.Payload) {
			case wire.TypeDataBatch:
				var v wire.DataBatchView
				if err := v.Parse(m.Payload); err == nil {
					frames <- frameKind{batch: true, steps: v.NumSteps()}
				}
			case wire.TypeData:
				frames <- frameKind{steps: 1}
			}
		}
	}()
	mainRecv, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer mainRecv.Close()
	go func() {
		m, err := mainRecv.Recv(0)
		if err != nil {
			return
		}
		hello, _ := wire.Decode(m.Payload)
		s, err := net.Dial(hello.(*wire.Hello).ReplyAddr)
		if err != nil {
			return
		}
		s.Send(wire.Encode(&wire.Welcome{
			Timesteps:   timesteps,
			Cells:       cells,
			P:           p,
			ServerAddr:  []string{dataRecv.Addr()},
			Partitions:  mesh.BlockPartition(cells, 1),
			DurableStep: wire.NoDurability, // no checkpointing in the fake
		}))
		s.Close()
	}()

	ctl := &BatchController{}
	conn, err := ConnectWith(net, mainRecv.Addr(), ConnectOpts{
		GroupID: 0, SimRanks: 1, Timeout: 5 * time.Second,
		MaxBatchSteps: 4, Congestion: ctl,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	fields := make([][]float64, p+2)
	for f := range fields {
		fields[f] = make([]float64, cells)
	}
	// Phase 1: congested server — batches must grow to the cap.
	for i := 0; i < 4; i++ {
		ctl.Observe(1.0)
	}
	for step := 0; step < 8; step++ {
		if err := conn.SendTimestep(step, fields); err != nil {
			t.Fatal(err)
		}
	}
	// Phase 2: backlog cleared — batches must shrink back to one step.
	for i := 0; i < 8; i++ {
		ctl.Observe(0)
	}
	for step := 8; step < timesteps; step++ {
		if err := conn.SendTimestep(step, fields); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.Flush(); err != nil {
		t.Fatal(err)
	}

	var got []frameKind
	total := 0
	for total < timesteps {
		select {
		case fr := <-frames:
			got = append(got, fr)
			total += fr.steps
		case <-time.After(5 * time.Second):
			t.Fatalf("received %d of %d steps", total, timesteps)
		}
	}
	if len(got) == 0 || !got[0].batch || got[0].steps != 4 {
		t.Fatalf("congested phase opened with %+v, want a 4-step batch", got[0])
	}
	last := got[len(got)-1]
	if last.steps != 1 {
		t.Fatalf("cleared phase ended with %d-step frames, want 1", last.steps)
	}
	if len(got) >= timesteps {
		t.Fatalf("adaptive batching sent %d frames for %d steps — never batched", len(got), timesteps)
	}
}

// TestConnectionLocalFallbackSignal: with no launcher-fed controller the
// connection derives its level from its own send-queue occupancy, which is
// zero here — so adaptive mode must degrade to single-step batches.
func TestConnectionLocalFallbackSignal(t *testing.T) {
	f := newFakeServer(t, 1, 8, 3, 1)
	defer f.close()
	conn, err := ConnectWith(f.net, f.mainRecv.Addr(), ConnectOpts{
		GroupID: 0, SimRanks: 1, Timeout: 5 * time.Second, MaxBatchSteps: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	fields := [][]float64{make([]float64, 8), make([]float64, 8), make([]float64, 8)}
	for step := 0; step < 3; step++ {
		if err := conn.SendTimestep(step, fields); err != nil {
			t.Fatal(err)
		}
		if conn.effSteps != 1 {
			t.Fatalf("idle local signal produced batch size %d, want 1", conn.effSteps)
		}
	}
}
