package transport

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// networks returns both implementations so every behavior is verified
// against the in-memory and the TCP transport alike.
func networks() map[string]func(Options) Network {
	return map[string]func(Options) Network{
		"mem": func(o Options) Network { return NewMemNetwork(o) },
		"tcp": func(o Options) Network { return NewTCPNetwork(o) },
	}
}

func TestSendRecvBasic(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			n := mk(Options{})
			r, err := n.Listen("")
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			s, err := n.Dial(r.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			if err := s.Send([]byte("hello melissa")); err != nil {
				t.Fatal(err)
			}
			m, err := r.Recv(2 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if string(m.Payload) != "hello melissa" {
				t.Fatalf("payload %q", m.Payload)
			}
		})
	}
}

// TestSendTakesOwnership: Send moves the caller's buffer instead of copying
// it. In memory the receiver gets the sender's very backing array; over TCP
// the pump recycles the sent buffer once written. On both, the pool counters
// balance whether the buffer came from the pool or is a plain heap slice,
// and whether the receiver recycles it directly or through a Ref.
func TestSendTakesOwnership(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			before := ReadPoolStats()
			n := mk(Options{})
			r, _ := n.Listen("")
			defer r.Close()
			s, _ := n.Dial(r.Addr())
			defer s.Close()

			for i, buf := range [][]byte{GetPayload(4096), make([]byte, 4096)} {
				buf[0], buf[4095] = byte(i+1), 9
				sent := unsafe.SliceData(buf)
				if err := s.Send(buf); err != nil {
					t.Fatal(err)
				}
				m, err := r.Recv(2 * time.Second)
				if err != nil {
					t.Fatal(err)
				}
				if len(m.Payload) != 4096 || m.Payload[0] != byte(i+1) || m.Payload[4095] != 9 {
					t.Fatalf("buffer %d: payload damaged", i)
				}
				shared := unsafe.SliceData(m.Payload) == sent
				switch {
				case name == "mem" && !shared:
					t.Fatalf("buffer %d: the in-memory receiver got a copy", i)
				case name == "tcp" && !shared: // else the reader already reused it from the pool
					waitRecycled(t, sent)
				}
				if i == 0 {
					Recycle(m.Payload)
				} else {
					var ref Ref
					ref.Init(m.Payload, 1)
					ref.Release()
				}
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

// waitRecycled waits until the pool debugger has seen the buffer starting at
// p recycled.
func waitRecycled(t *testing.T, p *byte) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		debugMu.Lock()
		live, known := debugLive[p]
		debugMu.Unlock()
		if known && !live {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the sent buffer never went back to the pool")
		}
	}
}

func TestPerSenderFIFO(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			n := mk(Options{})
			r, _ := n.Listen("")
			defer r.Close()
			s, _ := n.Dial(r.Addr())
			defer s.Close()

			const count = 500
			for i := 0; i < count; i++ {
				if err := s.Send([]byte(fmt.Sprintf("%06d", i))); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < count; i++ {
				m, err := r.Recv(2 * time.Second)
				if err != nil {
					t.Fatal(err)
				}
				if want := fmt.Sprintf("%06d", i); string(m.Payload) != want {
					t.Fatalf("out of order: got %q want %q", m.Payload, want)
				}
			}
		})
	}
}

// TestFanInFromManySenders: eight senders share one small inbox, so they
// block and are woken in turn; every message arrives, and each sender's in
// the order it sent them.
func TestFanInFromManySenders(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			n := mk(Options{RecvBuffer: 4})
			r, _ := n.Listen("")
			defer r.Close()

			const senders, per = 8, 200
			var wg sync.WaitGroup
			for id := 0; id < senders; id++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					s, err := n.Dial(r.Addr())
					if err != nil {
						t.Errorf("dial: %v", err)
						return
					}
					defer s.Close()
					for i := 0; i < per; i++ {
						if err := s.Send([]byte{byte(id), byte(i)}); err != nil {
							t.Errorf("send: %v", err)
							return
						}
					}
				}(id)
			}
			next := make([]int, senders)
			for i := 0; i < senders*per; i++ {
				m, err := r.Recv(5 * time.Second)
				if err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
				id, seq := m.Payload[0], int(m.Payload[1])
				if seq != next[id] {
					t.Fatalf("sender %d: message %d arrived when %d was due", id, seq, next[id])
				}
				next[id]++
			}
			wg.Wait()
		})
	}
}

func TestRecvTimeout(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			n := mk(Options{})
			r, _ := n.Listen("")
			defer r.Close()
			start := time.Now()
			_, err := r.Recv(50 * time.Millisecond)
			if err != ErrTimeout {
				t.Fatalf("err = %v, want ErrTimeout", err)
			}
			if time.Since(start) < 40*time.Millisecond {
				t.Fatal("returned too early")
			}
		})
	}
}

func TestBackpressureBlocksOnlyWhenBothBuffersFull(t *testing.T) {
	// The Sec. 5.3 saturation mechanism: sends succeed while buffer space
	// remains (send queue + inbox), then block; draining the inbox unblocks.
	for name, mk := range networks() {
		if name == "tcp" {
			continue // kernel socket buffers make the exact threshold fuzzy
		}
		t.Run(name, func(t *testing.T) {
			n := mk(Options{SendBuffer: 2, RecvBuffer: 2})
			r, _ := n.Listen("")
			defer r.Close()
			s, _ := n.Dial(r.Addr())
			defer s.Close()

			done := make(chan int, 1)
			go func() {
				sent := 0
				for i := 0; i < 10; i++ {
					if err := s.Send([]byte{byte(i)}); err != nil {
						break
					}
					sent++
				}
				done <- sent
			}()
			select {
			case sent := <-done:
				t.Fatalf("sender never blocked (sent %d of 10)", sent)
			case <-time.After(100 * time.Millisecond):
				// expected: sender is parked on a full pipeline
			}
			// Drain everything; the sender must now finish all 10.
			for i := 0; i < 10; i++ {
				if _, err := r.Recv(2 * time.Second); err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
			}
			select {
			case sent := <-done:
				if sent != 10 {
					t.Fatalf("sender finished with %d of 10", sent)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("sender still blocked after drain")
			}
		})
	}
}

func TestTCPBackpressureEventuallyBlocks(t *testing.T) {
	// With TCP the threshold includes kernel buffers, but a sender pushing
	// large messages at a non-reading receiver must still block eventually.
	n := NewTCPNetwork(Options{SendBuffer: 2, RecvBuffer: 2})
	r, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	s, _ := n.Dial(r.Addr())
	defer s.Close()

	done := make(chan int, 1)
	go func() {
		sent := 0
		for i := 0; i < 256; i++ {
			// 1 MiB frames defeat kernel buffering fast.
			if err := s.Send(GetPayload(1 << 20)); err != nil {
				break
			}
			sent++
		}
		done <- sent
	}()
	select {
	case sent := <-done:
		t.Fatalf("TCP sender never blocked (sent %d MiB)", sent)
	case <-time.After(300 * time.Millisecond):
	}
	got := 0
	for got < 256 {
		if _, err := r.Recv(5 * time.Second); err != nil {
			t.Fatalf("recv after %d: %v", got, err)
		}
		got++
	}
	if sent := <-done; sent != 256 {
		t.Fatalf("sent %d of 256", sent)
	}
}

// TestTCPSendFailsAfterPeerGone: once the peer is gone the pump dies on a
// write error, and Send — one blocked on the full queue included — must fail
// promptly instead of waiting on a queue nothing drains any more. A group
// under backpressure whose server dies reconnects on that error.
func TestTCPSendFailsAfterPeerGone(t *testing.T) {
	n := NewTCPNetwork(Options{SendBuffer: 2})
	for round := 0; round < 20; round++ {
		r, err := n.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		s, err := n.Dial(r.Addr())
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
		done := make(chan error, 1)
		go func() {
			for {
				if err := s.Send(GetPayload(4 << 20)); err != nil {
					done <- err
					return
				}
			}
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("round %d: Send failed with %v, want ErrClosed", round, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: Send still blocked 5 s after the peer closed", round)
		}
		s.Close()
	}
}

func TestCloseSemantics(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			n := mk(Options{})
			r, _ := n.Listen("")
			s, _ := n.Dial(r.Addr())

			// Messages sent before close are still deliverable.
			if err := s.Send([]byte("x")); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Recv(2 * time.Second); err != nil {
				t.Fatal(err)
			}
			s.Close()
			if err := s.Send([]byte("y")); err == nil {
				t.Fatal("send after close succeeded")
			}
			r.Close()
			if _, err := r.Recv(10 * time.Millisecond); err != ErrClosed && err != ErrTimeout {
				t.Fatalf("recv on closed receiver: %v", err)
			}
		})
	}
}

func TestMemDialUnknownAddress(t *testing.T) {
	n := NewMemNetwork(Options{})
	if _, err := n.Dial("mem://nope"); err == nil {
		t.Fatal("dial to unknown address succeeded")
	}
}

func TestTCPDialUnreachable(t *testing.T) {
	n := NewTCPNetwork(Options{})
	if _, err := n.Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestMemAddressReuseRejected(t *testing.T) {
	n := NewMemNetwork(Options{})
	r, err := n.Listen("mem://fixed")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("mem://fixed"); err == nil {
		t.Fatal("duplicate listen succeeded")
	}
	r.Close()
	// After close the address is released.
	if _, err := n.Listen("mem://fixed"); err != nil {
		t.Fatalf("listen after close: %v", err)
	}
}

func TestConcurrentSendsSingleSender(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			n := mk(Options{})
			r, _ := n.Listen("")
			defer r.Close()
			s, _ := n.Dial(r.Addr())
			defer s.Close()

			const workers, per = 4, 100
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if err := s.Send([]byte("m")); err != nil {
							t.Errorf("send: %v", err)
							return
						}
					}
				}()
			}
			for i := 0; i < workers*per; i++ {
				if _, err := r.Recv(5 * time.Second); err != nil {
					t.Fatalf("recv: %v", err)
				}
			}
			wg.Wait()
		})
	}
}

// TestRecvQueuedAllocatesNothing: Recv with a deadline takes a message that
// is already waiting without arming a timer, on both networks. The server
// run loop calls it once per frame.
func TestRecvQueuedAllocatesNothing(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			n := mk(Options{})
			r, _ := n.Listen("")
			defer r.Close()
			s, _ := n.Dial(r.Addr())
			defer s.Close()
			const runs = 50
			for i := 0; i <= runs; i++ { // AllocsPerRun adds one warm-up call
				if err := s.Send([]byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			in := inboxOf(r)
			for deadline := time.Now().Add(5 * time.Second); held(in) < runs+1; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d messages arrived", held(in), runs+1)
				}
			}
			allocs := testing.AllocsPerRun(runs, func() {
				if _, err := r.Recv(time.Second); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("Recv of a queued message allocated %.1f times", allocs)
			}
		})
	}
}

func inboxOf(r Receiver) *inbox {
	switch r := r.(type) {
	case *memReceiver:
		return &r.in
	case *tcpReceiver:
		return &r.in
	}
	panic(fmt.Sprintf("no inbox in %T", r))
}

func held(in *inbox) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.n
}

// TestInboxBytesIndependentOfRecvBuffer: an inbox's storage grows with what
// it holds, so a reply inbox that receives one message costs the same bytes
// at RecvBuffer 1 and 1,024.
func TestInboxBytesIndependentOfRecvBuffer(t *testing.T) {
	cycleBytes := func(recvBuffer int) uint64 {
		n := NewMemNetwork(Options{RecvBuffer: recvBuffer})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			r, _ := n.Listen("")
			s, _ := n.Dial(r.Addr())
			if err := s.Send(nil); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Recv(time.Second); err != nil {
				t.Fatal(err)
			}
			s.Close()
			r.Close()
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := cycleBytes(1), cycleBytes(1024)
	if large > small+100*256 {
		t.Fatalf("100 inbox cycles allocated %d bytes at RecvBuffer 1024, %d at RecvBuffer 1", large, small)
	}
}

// TestBlockedSendReleasedByClose: a Send waiting on a full in-memory inbox
// fails once the receiver, or its own sender, closes, and the transport
// recycles the payload it refused.
func TestBlockedSendReleasedByClose(t *testing.T) {
	for _, closer := range []string{"receiver", "sender"} {
		t.Run(closer, func(t *testing.T) {
			before := ReadPoolStats()
			n := NewMemNetwork(Options{RecvBuffer: 1})
			r, _ := n.Listen("")
			s, _ := n.Dial(r.Addr())
			if err := s.Send(GetPayload(64)); err != nil {
				t.Fatal(err)
			}
			blocked := GetPayload(64)
			id := unsafe.SliceData(blocked)
			done := make(chan error, 1)
			go func() { done <- s.Send(blocked) }()
			select {
			case err := <-done:
				t.Fatalf("Send into a full inbox returned %v", err)
			case <-time.After(20 * time.Millisecond):
			}
			if closer == "receiver" {
				r.Close()
			} else {
				s.Close()
			}
			select {
			case err := <-done:
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("released Send returned %v, want ErrClosed", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("Send still blocked 5 s after the %s closed", closer)
			}
			waitRecycled(t, id)
			m, err := r.Recv(time.Second)
			if err != nil {
				t.Fatalf("the message held before the close: %v", err)
			}
			Recycle(m.Payload)
			s.Close()
			r.Close()
			if d := ReadPoolStats().Outstanding() - before.Outstanding(); d != 0 {
				t.Fatalf("%d payload buffers outstanding", d)
			}
		})
	}
}
