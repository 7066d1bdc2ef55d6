package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"
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

func TestSenderMayReuseBuffer(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			n := mk(Options{})
			r, _ := n.Listen("")
			defer r.Close()
			s, _ := n.Dial(r.Addr())
			defer s.Close()

			buf := []byte("first")
			if err := s.Send(buf); err != nil {
				t.Fatal(err)
			}
			copy(buf, "XXXXX") // mutate after send: must not corrupt delivery
			m, err := r.Recv(2 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if string(m.Payload) != "first" {
				t.Fatalf("send did not copy: got %q", m.Payload)
			}
		})
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

func TestFanInFromManySenders(t *testing.T) {
	for name, mk := range networks() {
		t.Run(name, func(t *testing.T) {
			n := mk(Options{})
			r, _ := n.Listen("")
			defer r.Close()

			const senders, per = 8, 50
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
						if err := s.Send([]byte{byte(id)}); err != nil {
							t.Errorf("send: %v", err)
							return
						}
					}
				}(id)
			}
			counts := make(map[byte]int)
			for i := 0; i < senders*per; i++ {
				m, err := r.Recv(5 * time.Second)
				if err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
				counts[m.Payload[0]]++
			}
			wg.Wait()
			for id := 0; id < senders; id++ {
				if counts[byte(id)] != per {
					t.Fatalf("sender %d delivered %d of %d", id, counts[byte(id)], per)
				}
			}
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

	big := make([]byte, 1<<20) // 1 MiB frames defeat kernel buffering fast
	done := make(chan int, 1)
	go func() {
		sent := 0
		for i := 0; i < 256; i++ {
			if err := s.Send(big); err != nil {
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
