package transport

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func chaosPair(t *testing.T, plan ChaosPlan) (*ChaosNetwork, Receiver) {
	t.Helper()
	net := NewChaosNetwork(NewMemNetwork(Options{}), plan)
	recv, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recv.Close() })
	return net, recv
}

func recvOne(t *testing.T, recv Receiver) []byte {
	t.Helper()
	msg, err := recv.Recv(2 * time.Second)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	out := append([]byte(nil), msg.Payload...)
	Recycle(msg.Payload)
	return out
}

func TestChaosPassThrough(t *testing.T) {
	net, recv := chaosPair(t, ChaosPlan{Seed: 1})
	s, err := net.Dial(recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, recv); string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
	if st := net.Stats(); st != (ChaosStats{}) {
		t.Fatalf("empty plan injected faults: %+v", st)
	}
}

func TestChaosRefuseByOrdinal(t *testing.T) {
	net, recv := chaosPair(t, ChaosPlan{Rules: []ChaosRule{
		{Dial: 1, Refuse: true}, // only the second dial to any address
	}})
	addr := recv.Addr()
	s0, err := net.Dial(addr)
	if err != nil {
		t.Fatalf("dial 0 refused: %v", err)
	}
	defer s0.Close()
	if _, err := net.Dial(addr); err == nil {
		t.Fatal("dial 1 not refused")
	}
	s2, err := net.Dial(addr)
	if err != nil {
		t.Fatalf("dial 2 refused: %v", err)
	}
	defer s2.Close()
	if got := net.Stats().Refusals; got != 1 {
		t.Fatalf("refusals = %d", got)
	}
}

func TestChaosCutWithTailDrop(t *testing.T) {
	net, recv := chaosPair(t, ChaosPlan{Rules: []ChaosRule{
		{CutAfterFrames: 5, DropTailFrames: 2},
	}})
	s, err := net.Dial(recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Frames 1..3 deliver, 4..5 are silently swallowed, 6 fails.
	for i := 0; i < 5; i++ {
		if err := s.Send([]byte{byte(i)}); err != nil {
			t.Fatalf("frame %d: %v", i+1, err)
		}
	}
	err = s.Send([]byte{99})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("post-cut send: %v", err)
	}
	// A cut connection stays cut.
	if err := s.Send([]byte{100}); !errors.Is(err, ErrClosed) {
		t.Fatalf("second post-cut send: %v", err)
	}
	for i := 0; i < 3; i++ {
		if got := recvOne(t, recv); got[0] != byte(i) {
			t.Fatalf("frame %d: got %d", i+1, got[0])
		}
	}
	if _, err := recv.Recv(50 * time.Millisecond); err == nil {
		t.Fatal("dropped tail frame was delivered")
	}
	st := net.Stats()
	if st.Cuts != 1 || st.Dropped != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestChaosDuplicate(t *testing.T) {
	net, recv := chaosPair(t, ChaosPlan{Rules: []ChaosRule{{DuplicateFrame: 2}}})
	s, err := net.Dial(recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Send([]byte{1})
	s.Send([]byte{2})
	s.Send([]byte{3})
	want := []byte{1, 2, 2, 3}
	for i, w := range want {
		if got := recvOne(t, recv); got[0] != w {
			t.Fatalf("frame %d: got %d want %d", i, got[0], w)
		}
	}
	if got := net.Stats().Duplicated; got != 1 {
		t.Fatalf("duplicated = %d", got)
	}
}

func TestChaosCorruptAndTruncateAreDetectable(t *testing.T) {
	net, recv := chaosPair(t, ChaosPlan{Seed: 7, Rules: []ChaosRule{
		{CorruptFrame: 1, TruncateFrame: 2},
	}})
	s, err := net.Dial(recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	orig := []byte{42, 1, 2, 3, 4, 5, 6, 7}
	for i := 0; i < 3; i++ {
		s.Send(append([]byte(nil), orig...)) // Send takes its buffer
	}

	corrupted := recvOne(t, recv)
	if corrupted[0] == orig[0] {
		t.Fatal("type tag not clobbered — corruption must be detectable")
	}
	if orig[0] != 42 {
		t.Fatal("Send mutated the caller's buffer")
	}
	truncated := recvOne(t, recv)
	if len(truncated) != len(orig)/2 {
		t.Fatalf("truncated frame is %d bytes, want %d", len(truncated), len(orig)/2)
	}
	clean := recvOne(t, recv)
	if len(clean) != len(orig) || clean[0] != 42 {
		t.Fatalf("third frame damaged: %v", clean)
	}
	st := net.Stats()
	if st.Corrupted != 1 || st.Truncated != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestChaosLatency(t *testing.T) {
	net, recv := chaosPair(t, ChaosPlan{Seed: 3, Rules: []ChaosRule{
		{Latency: 20 * time.Millisecond},
	}})
	s, err := net.Dial(recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	start := time.Now()
	if err := s.Send([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("latency rule added only %v", elapsed)
	}
	recvOne(t, recv)
	if got := net.Stats().Delayed; got != 1 {
		t.Fatalf("delayed = %d", got)
	}
}

// Determinism: the same plan and seed produce byte-identical corrupted frames
// run after run, and distinct connections draw independent streams.
func TestChaosDeterministicCorruption(t *testing.T) {
	run := func() []byte {
		net, recv := chaosPair(t, ChaosPlan{Seed: 99, Rules: []ChaosRule{{CorruptFrame: 1}}})
		s, err := net.Dial(recv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		payload := make([]byte, 64)
		for i := range payload {
			payload[i] = byte(i)
		}
		if err := s.Send(payload); err != nil {
			t.Fatal(err)
		}
		return recvOne(t, recv)
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatal("same seed produced different corruption")
	}
}

// The rule list is ordered: the first match wins, so a specific rule listed
// before a catch-all shadows it.
func TestChaosFirstRuleWins(t *testing.T) {
	net, recv := chaosPair(t, ChaosPlan{Rules: []ChaosRule{
		{Dial: 0, CutAfterFrames: 1}, // first dial: cut after one frame
		{Dial: -1, Refuse: true},     // every other dial refused
	}})
	addr := recv.Addr()
	s, err := net.Dial(addr)
	if err != nil {
		t.Fatalf("first dial hit the catch-all: %v", err)
	}
	defer s.Close()
	if err := s.Send([]byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Send([]byte{2}); !errors.Is(err, ErrClosed) {
		t.Fatalf("cut rule not applied: %v", err)
	}
	if _, err := net.Dial(addr); err == nil {
		t.Fatal("second dial not refused by catch-all")
	}
}

// TestChaosFaultsKeepPoolBalanced: every fault passes the payload's
// ownership through — clobbered or cut short in place, copied once for a
// duplicate, left to the collector when dropped or refused — so the pool
// counters balance once the receiver has recycled what arrived, for pool
// buffers and plain heap slices alike.
func TestChaosFaultsKeepPoolBalanced(t *testing.T) {
	for _, tc := range []struct {
		name      string
		rule      ChaosRule
		delivered int
	}{
		{"corrupt", ChaosRule{CorruptFrame: 2}, 5},
		{"truncate", ChaosRule{TruncateFrame: 2}, 5},
		{"duplicate", ChaosRule{DuplicateFrame: 2}, 6},
		{"drop-tail", ChaosRule{CutAfterFrames: 4, DropTailFrames: 2}, 2},
		{"cut", ChaosRule{CutAfterFrames: 2}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := ReadPoolStats()
			net, recv := chaosPair(t, ChaosPlan{Seed: 5, Rules: []ChaosRule{tc.rule}})
			s, err := net.Dial(recv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				buf := make([]byte, 64)
				if i%2 == 0 {
					buf = GetPayload(64)
				}
				s.Send(buf)
			}
			s.Close()
			got := 0
			for ; ; got++ {
				msg, err := recv.Recv(20 * time.Millisecond)
				if err != nil {
					break
				}
				if got%2 == 0 {
					Recycle(msg.Payload)
				} else {
					var ref Ref
					ref.Init(msg.Payload, 1)
					ref.Release()
				}
			}
			if got != tc.delivered {
				t.Fatalf("%d frames delivered, want %d", got, tc.delivered)
			}
			after := ReadPoolStats()
			if d := after.Outstanding() - before.Outstanding(); d != 0 {
				t.Fatalf("%d payload buffers outstanding", d)
			}
			if d := after.RefsActive() - before.RefsActive(); d != 0 {
				t.Fatalf("%d payload references active", d)
			}
		})
	}
}

// TestChaosCorruptLeavesHeldFrameIntact: a frame a retention ring holds
// goes through a connection that corrupts it. The receiver gets a damaged
// copy; the held frame keeps its bytes, so resending it on a clean
// connection delivers the original, and every reference comes back.
func TestChaosCorruptLeavesHeldFrameIntact(t *testing.T) {
	before := ReadPoolStats()
	net, recv := chaosPair(t, ChaosPlan{Seed: 9, Rules: []ChaosRule{{Dial: 0, CorruptFrame: 1}}})
	frame := GetPayload(64)
	for i := range frame {
		frame[i] = byte(i)
	}
	want := append([]byte(nil), frame...)
	for dial := 0; dial < 2; dial++ {
		s, err := net.Dial(recv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		Hold(frame) // the ring's reference (dial 0), then the resend's (dial 1)
		if err := s.Send(frame); err != nil {
			t.Fatal(err)
		}
		s.Close()
		got := recvOne(t, recv)
		if corrupt := dial == 0; bytes.Equal(got, want) == corrupt {
			t.Fatalf("dial %d delivered %x, want the original %x corrupted=%v", dial, got, want, corrupt)
		}
		if !bytes.Equal(frame, want) {
			t.Fatalf("dial %d: the held frame changed to %x", dial, frame)
		}
	}
	Unhold(frame) // the ring lets go
	after := ReadPoolStats()
	if after.Held != before.Held {
		t.Fatalf("%d holds left", after.Held-before.Held)
	}
	if d := after.Outstanding() - before.Outstanding(); d != 0 {
		t.Fatalf("%d payload references outstanding", d)
	}
}
