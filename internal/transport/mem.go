package transport

import (
	"fmt"
	"sync"
	"time"
)

// MemNetwork is an in-process Network: addresses are registry keys and
// message passing uses channels. It preserves the buffered/blocking
// semantics of the TCP implementation so the whole framework can be tested
// deterministically in one process.
type MemNetwork struct {
	opts Options

	mu        sync.Mutex
	nextID    int
	receivers map[string]*memReceiver
}

// NewMemNetwork returns an empty in-memory network.
func NewMemNetwork(opts Options) *MemNetwork {
	return &MemNetwork{
		opts:      opts.withDefaults(),
		receivers: make(map[string]*memReceiver),
	}
}

// Listen implements Network.
func (n *MemNetwork) Listen(hint string) (Receiver, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	addr := hint
	if addr == "" {
		n.nextID++
		addr = fmt.Sprintf("mem://%d", n.nextID)
	}
	if _, exists := n.receivers[addr]; exists {
		return nil, fmt.Errorf("transport: address %q already in use", addr)
	}
	r := &memReceiver{
		net:   n,
		addr:  addr,
		inbox: make(chan Message, n.opts.RecvBuffer),
		done:  make(chan struct{}),
	}
	n.receivers[addr] = r
	return r, nil
}

// Dial implements Network.
func (n *MemNetwork) Dial(addr string) (Sender, error) {
	n.mu.Lock()
	r, ok := n.receivers[addr]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no receiver at %q", addr)
	}
	s := &memSender{
		recv:     r,
		queue:    make(chan []byte, n.opts.SendBuffer),
		done:     make(chan struct{}),
		pumpDone: make(chan struct{}),
	}
	go s.pump()
	return s, nil
}

type memReceiver struct {
	net  *MemNetwork
	addr string

	inbox chan Message
	done  chan struct{}
	once  sync.Once
}

func (r *memReceiver) Addr() string { return r.addr }

func (r *memReceiver) Recv(timeout time.Duration) (Message, error) {
	if timeout <= 0 {
		select {
		case m := <-r.inbox:
			return m, nil
		case <-r.done:
			return r.drainOrClosed()
		}
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case m := <-r.inbox:
		return m, nil
	case <-r.done:
		return r.drainOrClosed()
	case <-timer.C:
		return Message{}, ErrTimeout
	}
}

// drainOrClosed lets a closed receiver still hand out messages that were
// already buffered, then reports ErrClosed.
func (r *memReceiver) drainOrClosed() (Message, error) {
	select {
	case m := <-r.inbox:
		return m, nil
	default:
		return Message{}, ErrClosed
	}
}

func (r *memReceiver) Close() error {
	r.once.Do(func() {
		close(r.done)
		r.net.mu.Lock()
		delete(r.net.receivers, r.addr)
		r.net.mu.Unlock()
	})
	return nil
}

type memSender struct {
	recv     *memReceiver
	queue    chan []byte
	done     chan struct{}
	pumpDone chan struct{}
	once     sync.Once

	mu     sync.Mutex
	closed bool
}

// pump is the background delivery thread (the ZeroMQ I/O thread): it drains
// the local queue into the remote inbox, blocking when the inbox is full.
// After Close it flushes what is queued and exits. When the receiver closes
// instead, it recycles the payload in hand and everything queued, and exits.
func (s *memSender) pump() {
	defer close(s.pumpDone)
	for {
		var payload []byte
		select {
		case payload = <-s.queue:
		case <-s.done:
			select {
			case payload = <-s.queue:
			default:
				return
			}
		}
		select {
		case s.recv.inbox <- Message{Payload: payload}:
			continue
		case <-s.recv.done:
		}
		for {
			Recycle(payload)
			select {
			case payload = <-s.queue:
			default:
				return
			}
		}
	}
}

func (s *memSender) Send(payload []byte) error {
	take(payload)
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if !closed {
		select {
		case s.queue <- payload:
			return nil
		case <-s.recv.done:
		case <-s.done:
		}
	}
	Recycle(payload)
	return ErrClosed
}

// Close flushes the queued messages into the receiver inbox (the interface
// contract) and releases the connection: it waits for the pump to finish,
// so a caller that exits right after Close cannot lose delivered-looking
// data. The wait ends early when the receiver goes away.
func (s *memSender) Close() error {
	s.once.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		close(s.done)
	})
	<-s.pumpDone
	return nil
}
