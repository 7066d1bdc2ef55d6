package transport

import (
	"os"
	"testing"
	"time"
)

// TestMain runs the package with the pool debugger armed, so a test that
// hands one buffer to two Sends, or recycles it twice, panics where it does
// so instead of poisoning the shared pool for a later test.
func TestMain(m *testing.M) {
	SetPoolDebug(true)
	os.Exit(m.Run())
}

// TestRefLifecycle: references added by Init and Retain must balance against
// Release, with the final release recycling the buffer, and the counters
// must record the traffic.
func TestRefLifecycle(t *testing.T) {
	before := ReadPoolStats()
	payload := take(GetPayload(128))

	var r Ref
	r.Init(payload, 1)
	r.Retain(3)
	for i := 0; i < 3; i++ {
		if r.Release() {
			t.Fatalf("release %d of 4 reported final", i+1)
		}
	}
	if !r.Release() {
		t.Fatal("final release not reported")
	}
	after := ReadPoolStats()
	if d := (after.Retains - before.Retains) - (after.Releases - before.Releases); d != 0 {
		t.Fatalf("ref counters unbalanced by %d", d)
	}
	if d := after.Outstanding() - before.Outstanding(); d != 0 {
		t.Fatalf("payload outstanding changed by %d", d)
	}
}

// TestRefOverReleasePanics: dropping more references than were taken is a
// double-free and must fail loudly.
func TestRefOverReleasePanics(t *testing.T) {
	var r Ref
	r.Init(take(GetPayload(16)), 1)
	r.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	r.Release()
}

// TestRetainAfterFreePanics: retaining a payload whose last reference is
// gone is a use-after-free and must fail loudly.
func TestRetainAfterFreePanics(t *testing.T) {
	var r Ref
	r.Init(take(GetPayload(16)), 1)
	r.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("retain-after-free did not panic")
		}
	}()
	r.Retain(1)
}

// TestPoolDebugDoubleRecyclePanics: with debug tracking on (TestMain),
// recycling the same buffer twice must panic at the second Recycle.
func TestPoolDebugDoubleRecyclePanics(t *testing.T) {
	payload := take(GetPayload(64))
	Recycle(payload)
	defer func() {
		if recover() == nil {
			t.Fatal("double recycle did not panic")
		}
	}()
	Recycle(payload)
}

// TestPoolDebugDoubleSendPanics: with debug tracking on, handing a buffer to
// Send while an earlier Send of it is still undelivered must panic at the
// second Send, before the counters move.
func TestPoolDebugDoubleSendPanics(t *testing.T) {
	net := NewMemNetwork(Options{})
	recv, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	snd, err := net.Dial(recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()
	buf := make([]byte, 64)
	if err := snd.Send(buf); err != nil {
		t.Fatal(err)
	}
	before := ReadPoolStats()
	defer func() {
		if recover() == nil {
			t.Fatal("double hand-off did not panic")
		}
		if d := ReadPoolStats().Gets - before.Gets; d != 0 {
			t.Fatalf("the refused hand-off moved the custody count by %d", d)
		}
	}()
	snd.Send(buf)
}

// TestPoolDebugTracksReuse: get → take → recycle → get of the same buffer
// must stay legal under debug tracking (the live state flips back on reuse).
func TestPoolDebugTracksReuse(t *testing.T) {
	for i := 0; i < 4; i++ {
		p := take(GetPayload(256))
		Recycle(p)
	}
}

// TestPoolStatsBalanceAfterPipe: a drained mem-network exchange must leave
// no outstanding payloads once the consumer recycles what it received.
func TestPoolStatsBalanceAfterPipe(t *testing.T) {
	before := ReadPoolStats()
	net := NewMemNetwork(Options{})
	recv, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	snd, err := net.Dial(recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := snd.Send(make([]byte, 512)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		m, err := recv.Recv(0)
		if err != nil {
			t.Fatal(err)
		}
		Recycle(m.Payload)
	}
	snd.Close()
	recv.Close()
	after := ReadPoolStats()
	if d := after.Outstanding() - before.Outstanding(); d != 0 {
		t.Fatalf("pipe leaked %d payload buffers", d)
	}
	if gets := after.Gets - before.Gets; gets < 100 {
		t.Fatalf("pool recorded %d gets, want >= 100", gets)
	}
}

// TestPoolBalancesWhenReceiverCloses: closing a receiver with payloads
// queued in its inbox and in Sends blocked on the full inbox leaves no
// buffer outstanding once the receiver is drained: the transport recycles
// every payload it refuses.
func TestPoolBalancesWhenReceiverCloses(t *testing.T) {
	before := ReadPoolStats()
	net := NewMemNetwork(Options{recvBuffer: 2})
	recv, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	snd, err := net.Dial(recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 10)
	for i := 0; i < 10; i++ {
		go func() { sent <- snd.Send(make([]byte, 512)) }()
	}
	time.Sleep(20 * time.Millisecond) // the inbox fills; 8 Sends block
	recv.Close()
	for i := 0; i < 10; i++ {
		<-sent
	}
	for {
		m, err := recv.Recv(0)
		if err != nil {
			break
		}
		Recycle(m.Payload)
	}
	snd.Close()
	if d := ReadPoolStats().Outstanding() - before.Outstanding(); d != 0 {
		t.Fatalf("closing the receiver leaked %d payload buffers", d)
	}
}

// TestTCPPoolBalancesWhenReceiverCloses is the TCP twin of
// TestPoolBalancesWhenReceiverCloses: closing the receiver breaks the
// connection under a partly read frame and Sends blocked on the full socket,
// and every payload on either end must come back to the pool.
func TestTCPPoolBalancesWhenReceiverCloses(t *testing.T) {
	before := ReadPoolStats()
	const sends = 16
	net := NewTCPNetwork(Options{recvBuffer: 2})
	recv, err := net.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	snd, err := net.Dial(recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, sends)
	for i := 0; i < sends; i++ {
		go func() { sent <- snd.Send(make([]byte, 1<<20)) }()
	}
	time.Sleep(50 * time.Millisecond) // inbox, reader and sockets fill; the rest of the Sends block
	recv.Close()
	for i := 0; i < sends; i++ {
		select {
		case <-sent:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d Sends still blocked after the receiver closed", sends-i)
		}
	}
	snd.Close()
	// The receiver's read loops exit asynchronously: drain what they still
	// deliver until the pool balances.
	deadline := time.Now().Add(5 * time.Second)
	for {
		for {
			m, err := recv.Recv(0)
			if err != nil {
				break
			}
			Recycle(m.Payload)
		}
		d := ReadPoolStats().Outstanding() - before.Outstanding()
		if d == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("closing the receiver leaked %d payload buffers", d)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
