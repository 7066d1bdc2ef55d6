package transport

import "testing"

// benchPipe measures one-way message throughput for a given payload size:
// each Send takes a pool buffer, and the receiver recycles it. The receiver
// waits without a deadline, so allocs/op counts no timer, only what Send,
// the TCP read loop and the inbox allocate per message.
func benchPipe(b *testing.B, n Network, payload int) {
	r, err := n.Listen("")
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close() // releases the receiving goroutine if a Send fails
	s, err := n.Dial(r.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	done := make(chan struct{})
	go func() {
		for i := 0; i < b.N; i++ {
			m, err := r.Recv(0)
			if err != nil {
				b.Error(err)
				break
			}
			Recycle(m.Payload)
		}
		close(done)
	}()
	b.SetBytes(int64(payload))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Send(GetPayload(payload)); err != nil {
			b.Fatal(err)
		}
	}
	<-done
}

func BenchmarkMemPipe1KB(b *testing.B) {
	benchPipe(b, NewMemNetwork(Options{}), 1<<10)
}

func BenchmarkMemPipe64KB(b *testing.B) {
	benchPipe(b, NewMemNetwork(Options{}), 64<<10)
}

func BenchmarkTCPPipe1KB(b *testing.B) {
	benchPipe(b, NewTCPNetwork(Options{}), 1<<10)
}

func BenchmarkTCPPipe64KB(b *testing.B) {
	benchPipe(b, NewTCPNetwork(Options{}), 64<<10)
}
