package client

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"
	"unsafe"

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
		if got := p.delay(attempt, &rng); got < lo || got > hi {
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
			out[i] = p.delay(i, &rng)
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

// TestRetryRNGSeededLazily: a connection that never retried holds an
// unseeded jitter stream, and once it draws, the stream is exactly the one a
// source seeded eagerly with the same policy and group gives.
func TestRetryRNGSeededLazily(t *testing.T) {
	f := newFakeServer(t, 2, 16, 2, 2)
	defer f.close()
	p := RetryPolicy{MaxReconnects: 3, Seed: 42}
	conn, err := ConnectWith(f.net, f.mainRecv.Addr(), ConnectOpts{GroupID: 7, SimRanks: 1, Timeout: 2 * time.Second, Retry: p})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.rng.src != nil {
		t.Fatal("a connection that never retried seeded its jitter source")
	}
	p = p.withDefaults()
	group := uint64(7)
	eager := rand.New(rand.NewSource(p.Seed ^ int64(group*0x9e3779b97f4a7c15)))
	for attempt := 0; attempt < 8; attempt++ {
		want := time.Duration(float64(p.backoff(attempt)) * (1 + backoffJitter*(2*eager.Float64()-1)))
		if got := p.delay(attempt, &conn.rng); got != want {
			t.Fatalf("attempt %d: lazily seeded delay %v, eagerly seeded %v", attempt, got, want)
		}
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

// The retention ring holds the frame it sent, not a copy: its entry is the
// backing array the receiver got. The caller overwriting its fields, the
// receiver recycling its reference and the pool handing out and scribbling
// over buffers of the same size leave the retained bytes unchanged.
func TestRetainRingHoldsSentFrames(t *testing.T) {
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
			if e := conn.retain[0].at(len(want)); unsafe.SliceData(e.frame) != unsafe.SliceData(sent) {
				t.Fatalf("frame %d: the ring holds a different buffer than the receiver got", len(want))
			}
			want = append(want, bytes.Clone(sent))
			transport.Recycle(sent)
		}
		for _, fl := range fields { // no view of the caller's fields either
			for c := range fl {
				fl[c] = -1
			}
		}
	}
	churnPool(t, len(want[0]), 64)
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

// churnPool sends n pooled buffers of size bytes, each filled with garbage,
// through a mem pipe whose receiver recycles them: a buffer that went back
// to the pool while someone still held it would come out scribbled over.
func churnPool(t *testing.T, size, n int) {
	t.Helper()
	net := transport.NewMemNetwork(transport.Options{})
	recv, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	s, err := net.Dial(recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < n; i++ {
		b := transport.GetPayload(size)
		for j := range b {
			b[j] = 0xEE
		}
		if err := s.Send(b); err != nil {
			t.Fatal(err)
		}
		m, err := recv.Recv(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		transport.Recycle(m.Payload)
	}
}

// A group's retention holds are released however its connection ends: a
// clean finish, a retry budget used up on refused redials, and a resume gap
// (the server's frontier is behind the oldest retained step). The fake
// server keeps every frame it got unrecycled, so each frame the ring still
// held would count in the pool's Held level.
func TestRetainedFramesReleasedOnEveryExit(t *testing.T) {
	const cells, p = 8, 1
	for _, tc := range []struct {
		name      string
		timesteps int
		rules     func(dataAddr string) []transport.ChaosRule
		wantErr   string // "" for success
	}{
		{"success", 6, func(string) []transport.ChaosRule { return nil }, ""},
		{"budget", 6, func(a string) []transport.ChaosRule {
			return []transport.ChaosRule{{Addr: a, Dial: 0, CutAfterFrames: 2}, {Addr: a, Dial: -1, Refuse: true}}
		}, "retry budget (2) exhausted"},
		{"resume-gap", resendWindow + 8, func(a string) []transport.ChaosRule {
			return []transport.ChaosRule{{Addr: a, Dial: 0, CutAfterFrames: resendWindow + 4}}
		}, errResumeGap.Error()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFakeServer(t, 1, cells, tc.timesteps, p)
			defer f.close()
			f.acked.Store(-1) // a server that lost everything
			before := transport.ReadPoolStats()
			chaos := transport.NewChaosNetwork(f.net, transport.ChaosPlan{Rules: tc.rules(f.welcome.ServerAddr[0])})
			sim := SimFunc(func(row []float64, emit func(step int, field []float64) bool) {
				field := make([]float64, cells)
				for s := 0; s < tc.timesteps && emit(s, field); s++ {
				}
			})
			err := RunGroup(chaos, f.mainRecv.Addr(), RunConfig{
				ConnectOpts: ConnectOpts{GroupID: 1, SimRanks: 1,
					Retry: RetryPolicy{MaxReconnects: 2, BaseDelay: time.Millisecond, AckTimeout: time.Second}},
				Rows: [][]float64{{0}, {1}, {2}}, Sim: sim,
			})
			if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
				t.Fatalf("group ended with %v, want %q", err, tc.wantErr)
			}
			if got := transport.ReadPoolStats().Held - before.Held; got != 0 {
				t.Fatalf("the ring still holds %d frames after the group ended (%v)", got, err)
			}
			for len(f.frames) > 0 {
				transport.Recycle(<-f.frames)
			}
		})
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
