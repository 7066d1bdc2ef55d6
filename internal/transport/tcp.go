package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	olog "melissa/internal/obs/log"
)

// TCPNetwork is the real-socket Network used for distributed deployments:
// every message is a length-prefixed frame over TCP. It reproduces ZeroMQ's
// deployment model from the paper — dynamic connections from simulation
// groups to server processes over ordinary sockets, buffered by the kernel
// socket buffers and the receiver's inbox, and blocking only when they fill
// up.
type TCPNetwork struct {
	opts Options
}

// NewTCPNetwork returns a TCP-backed network.
func NewTCPNetwork(opts Options) *TCPNetwork {
	return &TCPNetwork{opts: opts.withDefaults()}
}

// oversizeLim rate-limits the log line for a length prefix over the frame
// bound: a misconfigured peer reconnects and repeats it.
var oversizeLim = olog.Limiter{Interval: 5 * time.Second}

// frameBufSize is the receiver's user-space bufio buffer. It reads small
// frames in bulk, one syscall for many. A frame larger than the buffer
// passes bufio by: once the buffer is empty, bufio reads the rest straight
// from the socket into the payload, so at most one buffer's worth of a bulk
// data frame is copied through it.
const frameBufSize = 64 << 10

// Listen implements Network. An empty hint listens on 127.0.0.1:0.
func (n *TCPNetwork) Listen(hint string) (Receiver, error) {
	if hint == "" {
		hint = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", hint)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", hint, err)
	}
	r := &tcpReceiver{ln: ln, opts: n.opts, conns: make(map[net.Conn]struct{})}
	r.in.init(n.opts.recvBuffer)
	go r.acceptLoop()
	return r, nil
}

// Dial implements Network. The sender is the connection itself: Send writes
// the socket, and no goroutine runs behind it.
func (n *TCPNetwork) Dial(addr string) (Sender, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return &tcpSender{conn: conn}, nil
}

type tcpReceiver struct {
	ln   net.Listener
	opts Options
	in   inbox

	mu     sync.Mutex
	conns  map[net.Conn]struct{} // connections whose read loop runs
	closed bool
}

func (r *tcpReceiver) Addr() string { return r.ln.Addr().String() }

func (r *tcpReceiver) acceptLoop() {
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return // listener closed
		}
		r.mu.Lock()
		r.conns[conn] = struct{}{}
		if r.closed { // accepted as Close ran: the read loop ends at once
			conn.Close()
		}
		r.mu.Unlock()
		go r.readLoop(conn)
	}
}

// forget closes conn and drops it from the set Close closes.
func (r *tcpReceiver) forget(conn net.Conn) {
	conn.Close()
	r.mu.Lock()
	delete(r.conns, conn)
	r.mu.Unlock()
}

// readLoop turns one connection's frames into inbox messages. When the
// inbox is full this goroutine blocks, the kernel socket buffers fill, and
// the sender eventually blocks too: end-to-end backpressure, as with
// ZeroMQ's high-water marks.
func (r *tcpReceiver) readLoop(conn net.Conn) {
	defer r.forget(conn)
	br := bufio.NewReaderSize(conn, frameBufSize)
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return
		}
		size := binary.LittleEndian.Uint32(lenBuf[:])
		if int64(size) > int64(r.opts.maxFrame) {
			// Corrupt, hostile, or a peer configured for larger batches:
			// fail before sizing a buffer by it.
			oversizeLim.Log(0, olog.Warn, "transport.oversize_frame", "from", conn.RemoteAddr().String(),
				"bytes", size, "bound", r.opts.maxFrame)
			return
		}
		payload := take(GetPayload(int(size)))
		if _, err := io.ReadFull(br, payload); err != nil {
			Recycle(payload)
			return
		}
		if err := r.in.put(Message{Payload: payload}, nil); err != nil {
			Recycle(payload)
			return
		}
	}
}

func (r *tcpReceiver) Recv(timeout time.Duration) (Message, error) { return r.in.recv(timeout) }

func (r *tcpReceiver) Close() error {
	r.in.close()
	r.ln.Close()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	for c := range r.conns {
		c.Close()
	}
	return nil
}

// tcpSender writes each frame to the socket inside Send. The kernel socket
// buffer is its only buffer: Send blocks while it is full, which is the
// backpressure from a receiver whose inbox is full.
type tcpSender struct {
	conn net.Conn
	once sync.Once // closes conn

	mu  sync.Mutex
	hdr [4]byte     // the length prefix being written
	vec [2][]byte   // prefix and payload
	iov net.Buffers // over vec; a sender field because WriteTo would move a local one to the heap
	err error       // the first write error, wrapping ErrClosed; every later Send returns it
}

// Send writes the length prefix and the payload in one vectored write, then
// recycles the payload; it recycles it on failure too. The first write
// error, Close included, closes the connection and fails this and every
// later Send.
func (s *tcpSender) Send(payload []byte) error {
	take(payload)
	defer Recycle(payload)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	binary.LittleEndian.PutUint32(s.hdr[:], uint32(len(payload)))
	s.vec = [2][]byte{s.hdr[:], payload}
	s.iov = s.vec[:]
	if _, err := s.iov.WriteTo(s.conn); err != nil {
		s.err = fmt.Errorf("%w: %v", ErrClosed, err)
		s.close()
		return s.err
	}
	return nil
}

// Close closes the connection. It does not take the Send lock, so it
// releases a Send blocked on a full socket; that Send fails. Frames Send
// returned for are in the kernel, which still delivers them.
func (s *tcpSender) Close() error {
	s.close()
	return nil
}

func (s *tcpSender) close() { s.once.Do(func() { s.conn.Close() }) }
