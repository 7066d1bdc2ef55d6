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
// groups to server processes over ordinary sockets, with kernel + user-space
// buffering and blocking only when buffers fill up.
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

// frameBufSize is the user-space bufio buffer on both ends of a connection.
// It coalesces small frames into one syscall. A frame larger than the buffer
// passes bufio by: once the buffer is empty, bufio moves the rest straight
// between the socket and the payload, so at most one buffer's worth of a
// bulk data frame is copied through it.
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
	r := &tcpReceiver{ln: ln, opts: n.opts}
	r.in.init(n.opts.RecvBuffer)
	go r.acceptLoop()
	return r, nil
}

// Dial implements Network.
func (n *TCPNetwork) Dial(addr string) (Sender, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	s := &tcpSender{
		conn:     conn,
		queue:    make(chan []byte, n.opts.SendBuffer),
		done:     make(chan struct{}),
		pumpDone: make(chan struct{}),
	}
	go s.pump()
	return s, nil
}

type tcpReceiver struct {
	ln   net.Listener
	opts Options
	in   inbox
	once sync.Once

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
			if ok, suppressed := oversizeLim.Allow(0); ok {
				olog.Warnw("transport.oversize_frame", "from", conn.RemoteAddr().String(),
					"bytes", size, "bound", r.opts.maxFrame, "suppressed", suppressed)
			}
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
	r.once.Do(func() {
		r.in.close()
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
	queue    chan []byte
	done     chan struct{} // closed by Close
	pumpDone chan struct{} // closed when the pump exits
	err      error         // the write error that ended the pump; read after pumpDone
	once     sync.Once
}

// pump is the writer goroutine: it frames queued payloads into the
// connection and flushes whenever the queue runs empty, so a burst shares
// syscalls and a lone message is not delayed. It exits after Close once the
// queue is drained, or on the first write error.
func (s *tcpSender) pump() {
	bw := bufio.NewWriterSize(s.conn, frameBufSize)
	var lenBuf [4]byte
	var err error
	for err == nil {
		var payload []byte
		select {
		case payload = <-s.queue:
		default:
			if err = bw.Flush(); err != nil {
				continue
			}
			select {
			case payload = <-s.queue:
			case <-s.done:
				select {
				case payload = <-s.queue:
				default:
					s.exit(nil)
					return
				}
			}
		}
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(payload)))
		if _, err = bw.Write(lenBuf[:]); err == nil {
			_, err = bw.Write(payload)
		}
		Recycle(payload)
	}
	s.exit(err)
}

// exit ends the pump: it records the error, releases the connection, marks
// the sender dead for Send and recycles whatever is still queued.
func (s *tcpSender) exit(err error) {
	s.err = err
	s.conn.Close()
	close(s.pumpDone)
	s.drain()
}

// drain recycles every queued payload. It runs once nothing pumps the queue
// any more; concurrent drains are safe.
func (s *tcpSender) drain() {
	for {
		select {
		case payload := <-s.queue:
			Recycle(payload)
		default:
			return
		}
	}
}

// deadErr is what Send returns once the pump has exited.
func (s *tcpSender) deadErr() error {
	if s.err != nil {
		return fmt.Errorf("%w: %v", ErrClosed, s.err)
	}
	return ErrClosed
}

// Send queues the payload itself for the pump, which writes it and then
// recycles it. Send fails once the pump has exited (a write error or Close):
// nothing would drain the queue any more. A payload queued just as the pump
// exits is recycled here, so it neither leaks nor counts as sent.
func (s *tcpSender) Send(payload []byte) error {
	take(payload)
	select {
	case s.queue <- payload:
		select {
		case <-s.pumpDone:
			s.drain()
			return s.deadErr()
		default:
			return nil
		}
	case <-s.pumpDone:
		Recycle(payload)
		return s.deadErr()
	case <-s.done:
		Recycle(payload)
		return ErrClosed
	}
}

// Close flushes the queued messages onto the socket (the interface
// contract) and releases the connection: it waits for the pump, so a
// process that exits right after Close has actually handed its frames to
// the kernel. A dead peer ends the wait via a write error; whatever the
// pump could not write is recycled.
func (s *tcpSender) Close() error {
	s.once.Do(func() { close(s.done) })
	<-s.pumpDone
	s.drain()
	return nil
}
