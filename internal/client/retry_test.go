package client

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"melissa/internal/mesh"
	"melissa/internal/transport"
	"melissa/internal/wire"
)

func TestRetryDelayBackoffAndCap(t *testing.T) {
	p := RetryPolicy{
		MaxReconnects: 5,
		BaseDelay:     10 * time.Millisecond,
		MaxDelay:      80 * time.Millisecond,
	}.withDefaults()
	rng := retryRNG(p, 0)
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 80 * time.Millisecond, // capped
	}
	for attempt, w := range want {
		if got := p.backoff(attempt); got != w {
			t.Fatalf("attempt %d: backoff %v, want %v", attempt, got, w)
		}
		// The jittered delay stays within ±20% of the exact backoff.
		lo, hi := time.Duration(0.8*float64(w)), time.Duration(1.2*float64(w))
		if got := p.delay(attempt, rng); got < lo || got > hi {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, got, lo, hi)
		}
	}
}

func TestRetryDelayDeterministicPerGroup(t *testing.T) {
	p := RetryPolicy{MaxReconnects: 3, Seed: 42}.withDefaults()
	seq := func(group int) []time.Duration {
		rng := retryRNG(p, group)
		out := make([]time.Duration, 6)
		for i := range out {
			out[i] = p.delay(i, rng)
		}
		return out
	}
	a, b := seq(7), seq(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same group diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := seq(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different groups drew identical jitter sequences")
	}
}

func TestRetryDefaults(t *testing.T) {
	p := RetryPolicy{MaxReconnects: 1}.withDefaults()
	if p.BaseDelay <= 0 || p.MaxDelay <= 0 || p.AckTimeout <= 0 {
		t.Fatalf("defaults not filled: %+v", p)
	}
}

// dataFrame encodes a one-field, one-cell Data frame whose value is its step.
func dataFrame(step int) []byte {
	return wire.Encode(&wire.Data{Timestep: step, CellHi: 1, Fields: [][]float64{{float64(step)}}})
}

// batchFrame encodes a one-field, one-cell DataBatch frame of steps
// first..last whose values are their steps.
func batchFrame(first, last int) []byte {
	m := &wire.DataBatch{CellHi: 1}
	for st := first; st <= last; st++ {
		m.Steps = append(m.Steps, wire.DataStep{Timestep: st, Fields: [][]float64{{float64(st)}}})
	}
	return wire.Encode(m)
}

func TestRetainRingEvictsOldest(t *testing.T) {
	var r retainRing
	for step := 0; step < 7; step++ {
		r.push(4, dataFrame(step), step, step, 1)
	}
	if r.n != 4 {
		t.Fatalf("ring holds %d, want 4", r.n)
	}
	// Frames of steps 3..6 retained, oldest first.
	for i := 0; i < r.n; i++ {
		e := r.at(i)
		if e.first != 3+i || e.last != 3+i {
			t.Fatalf("slot %d: steps %d..%d, want %d", i, e.first, e.last, 3+i)
		}
		if !bytes.Equal(e.frame, dataFrame(3+i)) {
			t.Fatalf("slot %d carries a stale frame", i)
		}
	}
}

// The retention ring holds its own copy of every frame it keeps: no view of
// the caller's fields and none of the buffer Send took. Overwriting both
// after SendTimestep returns leaves the retained frames intact.
func TestRetainRingCopiesFrames(t *testing.T) {
	const cells, p = 8, 1
	f := newFakeServer(t, 1, cells, 4, p)
	defer f.close()
	conn, err := ConnectWith(f.net, f.mainRecv.Addr(), ConnectOpts{GroupID: 0, SimRanks: 1,
		Timeout: 2 * time.Second, BatchSteps: 2, Retry: RetryPolicy{MaxReconnects: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fields := make([][]float64, p+2)
	for i := range fields {
		fields[i] = make([]float64, cells)
	}
	var want [][]byte
	for step := 0; step < 4; step++ {
		for i, fl := range fields {
			for c := range fl {
				fl[c] = float64(100*step + 10*i + c)
			}
		}
		if err := conn.SendTimestep(step, fields); err != nil {
			t.Fatal(err)
		}
		if step%2 == 1 {
			sent := <-f.frames
			want = append(want, bytes.Clone(sent))
			clear(sent) // the receiver's buffer is the one Send took
		}
		for _, fl := range fields {
			for c := range fl {
				fl[c] = -1
			}
		}
	}
	r := &conn.retain[0]
	if r.n != len(want) {
		t.Fatalf("ring holds %d frames, want %d", r.n, len(want))
	}
	for i := range want {
		if e := r.at(i); !bytes.Equal(e.frame, want[i]) || e.first != 2*i || e.last != 2*i+1 {
			t.Fatalf("frame %d (steps %d..%d) differs from what was sent", i, e.first, e.last)
		}
	}
}

// The legacy path (zero retry policy) must carry no retention cost and never
// attempt recovery: retainFrame is a no-op.
func TestRetryDisabledNoRetention(t *testing.T) {
	c := &Connection{routes: make([]mesh.Transfer, 1)}
	c.retainFrame(0, dataFrame(0), 0, 0, 1)
	if c.retain != nil {
		t.Fatal("disabled policy allocated retention state")
	}
}

// A restored server whose frontier rolled back past the retention window
// cannot be healed by resending — the discontiguity would leave a silent
// hole in the statistics. resendRank must refuse with errResumeGap (the
// reconnect loop's signal to abort, which escalates the group to the legacy
// full-replay path) exactly when the first step of the oldest retained frame
// is beyond ack+1, and otherwise resend every frame that carries a step
// beyond ack, whole.
func TestResendRankResumeGap(t *testing.T) {
	net := transport.NewMemNetwork(transport.Options{})
	inbox, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer inbox.Close()
	s, err := net.Dial(inbox.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c := &Connection{
		routes:  []mesh.Transfer{{ServerRank: 0, Cells: mesh.Partition{Lo: 0, Hi: 1}}},
		senders: []transport.Sender{s},
		retain:  make([]retainRing, 1),
	}
	// Retained window: the batches of steps 3..4 and 5..6 (1..2 evicted).
	for first := 1; first <= 5; first += 2 {
		c.retain[0].push(2, batchFrame(first, first+1), first, first+1, 1)
	}

	// Server rolled back to step 1: step 2 is gone from both sides.
	err = c.resendRank(0, 1)
	if !errors.Is(err, errResumeGap) {
		t.Fatalf("rollback past retention returned %v, want errResumeGap", err)
	}
	// Acked step 2, the boundary (the oldest retained step is ack+1), and
	// acked step 3, inside the oldest batch: both batches resend whole, and
	// the server's replay-discard drops step 3 in the second case.
	for _, ack := range []int{2, 3} {
		if err := c.resendRank(0, ack); err != nil {
			t.Fatalf("contiguous resend after ack %d failed: %v", ack, err)
		}
		for _, first := range []int{3, 5} {
			m, err := inbox.Recv(time.Second)
			if err != nil {
				t.Fatalf("ack %d: resent batch %d never arrived: %v", ack, first, err)
			}
			decoded, err := wire.Decode(m.Payload)
			if err != nil {
				t.Fatal(err)
			}
			b, ok := decoded.(*wire.DataBatch)
			if !ok || len(b.Steps) != 2 {
				t.Fatalf("ack %d: resent frame %T %+v, want a two-step DataBatch", ack, decoded, decoded)
			}
			for i, st := range b.Steps {
				if st.Timestep != first+i || st.Fields[0][0] != float64(first+i) {
					t.Fatalf("ack %d: resent batch %d step %d carries step %d, field %v",
						ack, first, i, st.Timestep, st.Fields[0][0])
				}
			}
		}
	}
	// Acked past every retained step: nothing to resend.
	if err := c.resendRank(0, 6); err != nil {
		t.Fatal(err)
	}
	if m, err := inbox.Recv(50 * time.Millisecond); err == nil {
		t.Fatalf("resend past the ack sent %d bytes", len(m.Payload))
	}
}
