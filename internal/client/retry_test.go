package client

import (
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
		Multiplier:    2,
		Jitter:        -1, // disable jitter: exact doubling
	}.withDefaults()
	rng := retryRNG(p, 0)
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		80 * time.Millisecond, 80 * time.Millisecond, // capped
	}
	for attempt, w := range want {
		if got := p.delay(attempt, rng); got != w {
			t.Fatalf("attempt %d: delay %v, want %v", attempt, got, w)
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
	if p.BaseDelay <= 0 || p.MaxDelay <= 0 || p.Multiplier < 1 || p.Jitter <= 0 || p.AckTimeout <= 0 {
		t.Fatalf("defaults not filled: %+v", p)
	}
	if (RetryPolicy{}).enabled() {
		t.Fatal("zero policy must be disabled")
	}
	if !(RetryPolicy{MaxReconnects: 1}).enabled() {
		t.Fatal("budget 1 must enable retries")
	}
}

func TestRetainRingEvictsOldest(t *testing.T) {
	var r retainRing
	for step := 0; step < 7; step++ {
		r.push(4, &wire.DataStep{Timestep: step, Fields: [][]float64{{float64(step)}}})
	}
	if r.n != 4 {
		t.Fatalf("ring holds %d, want 4", r.n)
	}
	// Steps 3..6 retained, oldest first.
	for i := 0; i < r.n; i++ {
		st := r.at(i)[0]
		if st.Timestep != 3+i {
			t.Fatalf("slot %d: step %d, want %d", i, st.Timestep, 3+i)
		}
		if st.Fields[0][0] != float64(3+i) {
			t.Fatalf("slot %d carries stale field %v", i, st.Fields[0][0])
		}
	}
}

func TestRetainRingCopiesFields(t *testing.T) {
	var r retainRing
	f := []float64{1, 2, 3}
	r.push(2, &wire.DataStep{Timestep: 0, Fields: [][]float64{f}})
	f[0] = 99 // caller reuses its buffer
	if got := r.at(0)[0].Fields[0][0]; got != 1 {
		t.Fatalf("ring aliases the caller's buffer: %v", got)
	}
}

// The legacy path (zero retry policy) must carry no retention cost and never
// attempt recovery: retainStep is a no-op.
func TestRetryDisabledNoRetention(t *testing.T) {
	c := &Connection{routes: make([]mesh.Transfer, 1)}
	c.retainStep(0, &wire.DataStep{Fields: [][]float64{{1}}})
	if c.retain != nil {
		t.Fatal("disabled policy allocated retention state")
	}
}

// A restored server whose frontier rolled back past the retention window
// cannot be healed by resending — the discontiguity would leave a silent
// hole in the statistics. resendRank must refuse with errResumeGap (the
// reconnect loop's signal to abort, which escalates the group to the legacy
// full-replay path) exactly when the oldest retained step is beyond ack+1,
// and resend normally at the boundary.
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
	// Retained window: steps 5 and 6 (everything older evicted).
	c.retain[0].push(2, &wire.DataStep{Timestep: 5, Fields: [][]float64{{5}}})
	c.retain[0].push(2, &wire.DataStep{Timestep: 6, Fields: [][]float64{{6}}})

	// Server rolled back to step 2: steps 3-4 are gone from both sides.
	err = c.resendRank(0, 2)
	if !errors.Is(err, errResumeGap) {
		t.Fatalf("rollback past retention returned %v, want errResumeGap", err)
	}
	// Boundary: ack+1 == oldest retained — contiguous, both steps resend.
	if err := c.resendRank(0, 4); err != nil {
		t.Fatalf("contiguous resend failed: %v", err)
	}
	for _, want := range []int{5, 6} {
		m, err := inbox.Recv(time.Second)
		if err != nil {
			t.Fatalf("resent step %d never arrived: %v", want, err)
		}
		decoded, err := wire.Decode(m.Payload)
		if err != nil {
			t.Fatal(err)
		}
		d, ok := decoded.(*wire.Data)
		if !ok || d.Timestep != want {
			t.Fatalf("resent frame %T %+v, want Data step %d", decoded, decoded, want)
		}
		if d.Fields[0][0] != float64(want) {
			t.Fatalf("resent step %d carries field %v", want, d.Fields[0][0])
		}
	}
}
