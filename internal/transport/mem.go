package transport

import (
	"fmt"
	"strconv"
	"sync"
	"time"
)

// MemNetwork is an in-process Network: addresses are registry keys and Send
// puts the payload straight into the receiver's inbox. It preserves the
// bounded, blocking semantics of the TCP implementation so the whole
// framework can be tested deterministically in one process.
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
		addr = "mem://" + strconv.Itoa(n.nextID)
	}
	if _, exists := n.receivers[addr]; exists {
		return nil, fmt.Errorf("transport: address %q already in use", addr)
	}
	r := &memReceiver{net: n, addr: addr}
	r.in.init(n.opts.recvBuffer)
	n.receivers[addr] = r
	return r, nil
}

// Dial implements Network. The connection is a handle on the receiver's
// inbox: no goroutine, no buffer of its own.
func (n *MemNetwork) Dial(addr string) (Sender, error) {
	n.mu.Lock()
	r, ok := n.receivers[addr]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no receiver at %q", addr)
	}
	return &memSender{in: &r.in}, nil
}

type memReceiver struct {
	net  *MemNetwork
	addr string
	in   inbox
}

func (r *memReceiver) Addr() string { return r.addr }

func (r *memReceiver) Recv(timeout time.Duration) (Message, error) { return r.in.recv(timeout) }

func (r *memReceiver) Close() error {
	r.in.close()
	r.net.mu.Lock()
	if r.net.receivers[r.addr] == r {
		delete(r.net.receivers, r.addr)
	}
	r.net.mu.Unlock()
	return nil
}

type memSender struct {
	in     *inbox
	closed bool // guarded by in.mu
}

// Send puts the payload into the receiver's inbox, waiting while it is full.
// It fails once either end is closed, and then recycles the payload.
func (s *memSender) Send(payload []byte) error {
	take(payload)
	if err := s.in.put(Message{Payload: payload}, &s.closed); err != nil {
		Recycle(payload)
		return err
	}
	return nil
}

// Close releases the connection. Every message Send returned for is already
// in the receiver's inbox, so there is nothing to flush; a Send still waiting
// for room fails.
func (s *memSender) Close() error {
	s.in.mu.Lock()
	defer s.in.mu.Unlock()
	s.closed = true
	s.in.room.Broadcast()
	return nil
}
