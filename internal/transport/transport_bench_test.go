package transport

import (
	"testing"
	"time"
)

// benchPipe measures one-way message throughput for a given payload size:
// each Send takes a pool buffer, and the receiver recycles it.
func benchPipe(b *testing.B, n Network, payload int) {
	r, err := n.Listen("")
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	s, err := n.Dial(r.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	done := make(chan struct{})
	go func() {
		for i := 0; i < b.N; i++ {
			m, err := r.Recv(10 * time.Second)
			if err != nil {
				b.Error(err)
				break
			}
			Recycle(m.Payload)
		}
		close(done)
	}()
	b.SetBytes(int64(payload))
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
