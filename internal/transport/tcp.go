package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// TCPNetwork is the real-socket Network used for distributed deployments:
// every message is a length-prefixed frame over TCP. It reproduces ZeroMQ's
// deployment model from the paper — dynamic connections from simulation
// groups to server processes over ordinary sockets, with kernel + user-space
// buffering and blocking only when buffers fill up.
type TCPNetwork struct {
	opts Options
}

// NewTCPNetwork returns a TCP-backed network.
func NewTCPNetwork(opts Options) *TCPNetwork {
	return &TCPNetwork{opts: opts.withDefaults()}
}

// maxFrameSize bounds a single message (64 MiB) to fail fast on corrupted
// length prefixes rather than allocating absurd buffers.
const maxFrameSize = 64 << 20

// Listen implements Network. An empty hint listens on 127.0.0.1:0.
func (n *TCPNetwork) Listen(hint string) (Receiver, error) {
	if hint == "" {
		hint = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", hint)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", hint, err)
	}
	r := &tcpReceiver{
		ln:    ln,
		opts:  n.opts,
		inbox: make(chan Message, n.opts.RecvBuffer),
		done:  make(chan struct{}),
	}
	go r.acceptLoop()
	return r, nil
}

// applySockOpts applies the study-shape-derived kernel buffer sizes (0 keeps
// the OS defaults). Sizing errors are ignored — the kernel clamps to its own
// limits anyway and an undersized buffer only costs throughput, never
// correctness.
func applySockOpts(conn net.Conn, opts Options) {
	tc, ok := conn.(*net.TCPConn)
	if !ok {
		return
	}
	if opts.SendSockBytes > 0 {
		tc.SetWriteBuffer(opts.SendSockBytes)
	}
	if opts.RecvSockBytes > 0 {
		tc.SetReadBuffer(opts.RecvSockBytes)
	}
}

// Dial implements Network.
func (n *TCPNetwork) Dial(addr string) (Sender, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	applySockOpts(conn, n.opts)
	s := &tcpSender{
		conn:     conn,
		frameBuf: n.opts.FrameBufBytes,
		queue:    make(chan []byte, n.opts.SendBuffer),
		done:     make(chan struct{}),
		pumpDone: make(chan struct{}),
		errCh:    make(chan error, 1),
	}
	go s.pump()
	return s, nil
}

type tcpReceiver struct {
	ln    net.Listener
	opts  Options
	inbox chan Message
	done  chan struct{}
	once  sync.Once

	mu    sync.Mutex
	conns []net.Conn
}

func (r *tcpReceiver) Addr() string { return r.ln.Addr().String() }

func (r *tcpReceiver) acceptLoop() {
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return // listener closed
		}
		applySockOpts(conn, r.opts)
		r.mu.Lock()
		r.conns = append(r.conns, conn)
		r.mu.Unlock()
		go r.readLoop(conn)
	}
}

// readLoop turns one connection's frames into inbox messages. When the
// inbox is full this goroutine blocks, the kernel socket buffers fill, and
// the sender eventually blocks too: end-to-end backpressure, as with
// ZeroMQ's high-water marks.
func (r *tcpReceiver) readLoop(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, r.opts.FrameBufBytes)
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return
		}
		size := binary.LittleEndian.Uint32(lenBuf[:])
		if size > maxFrameSize {
			return
		}
		payload := getPayload(int(size))
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}
		select {
		case r.inbox <- Message{Payload: payload}:
		case <-r.done:
			return
		}
	}
}

func (r *tcpReceiver) Recv(timeout time.Duration) (Message, error) {
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

func (r *tcpReceiver) drainOrClosed() (Message, error) {
	select {
	case m := <-r.inbox:
		return m, nil
	default:
		return Message{}, ErrClosed
	}
}

func (r *tcpReceiver) Close() error {
	r.once.Do(func() {
		close(r.done)
		r.ln.Close()
		r.mu.Lock()
		for _, c := range r.conns {
			c.Close()
		}
		r.mu.Unlock()
	})
	return nil
}

type tcpSender struct {
	conn     net.Conn
	frameBuf int
	queue    chan []byte
	done     chan struct{}
	pumpDone chan struct{}
	errCh    chan error
	once     sync.Once

	mu     sync.Mutex
	closed bool
}

// pump is the writer goroutine: it frames and writes queued payloads.
func (s *tcpSender) pump() {
	defer close(s.pumpDone)
	bw := bufio.NewWriterSize(s.conn, s.frameBuf)
	var lenBuf [4]byte
	write := func(payload []byte) error {
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(payload)))
		if _, err := bw.Write(lenBuf[:]); err != nil {
			return err
		}
		if _, err := bw.Write(payload); err != nil {
			return err
		}
		return nil
	}
	for {
		select {
		case payload := <-s.queue:
			err := write(payload)
			Recycle(payload)
			if err != nil {
				s.fail(err)
				return
			}
			// Opportunistically batch whatever else is queued before
			// flushing, then flush so single messages are not delayed.
		batch:
			for {
				select {
				case more := <-s.queue:
					err := write(more)
					Recycle(more)
					if err != nil {
						s.fail(err)
						return
					}
				default:
					break batch
				}
			}
			if err := bw.Flush(); err != nil {
				s.fail(err)
				return
			}
		case <-s.done:
			// Flush remaining queued messages best-effort, then close.
			for {
				select {
				case payload := <-s.queue:
					err := write(payload)
					Recycle(payload)
					if err != nil {
						s.conn.Close()
						return
					}
				default:
					bw.Flush()
					s.conn.Close()
					return
				}
			}
		}
	}
}

func (s *tcpSender) fail(err error) {
	select {
	case s.errCh <- err:
	default:
	}
	s.conn.Close()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

func (s *tcpSender) Send(payload []byte) error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	select {
	case err := <-s.errCh:
		s.errCh <- err // keep for later callers
		return fmt.Errorf("%w: %v", ErrClosed, err)
	default:
	}
	cp := getPayload(len(payload))
	copy(cp, payload)
	select {
	case s.queue <- cp:
		return nil
	case <-s.done:
		return ErrClosed
	}
}

// Close flushes the queued messages onto the socket (the interface
// contract) and releases the connection: it waits for the pump, so a
// process that exits right after Close has actually handed its frames to
// the kernel. A dead peer ends the wait via a write error.
func (s *tcpSender) Close() error {
	s.once.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		close(s.done)
	})
	<-s.pumpDone
	return nil
}
