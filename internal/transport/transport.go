// Package transport provides the asynchronous, buffered messaging layer
// standing in for ZeroMQ (Sec. 4.1.3). Its semantics mirror the properties
// the paper relies on:
//
//   - messages are queued on the sender side and delivered by a background
//     pump, so Send is normally non-blocking;
//   - both sides hold bounded buffers; Send blocks only when *both* the
//     send-side and receive-side buffers are full — the backpressure that
//     suspended the simulations in the 15-node experiment (Sec. 5.3);
//   - per-connection ordering is FIFO (TCP/ZeroMQ guarantee), while
//     messages from different connections interleave arbitrarily;
//   - receivers drain a single inbox regardless of how many clients are
//     connected (PUSH/PULL fan-in);
//   - Send takes its payload, as ZeroMQ's zero-copy send does: the transport
//     moves the caller's buffer, never a copy of it, and recycles it.
//
// Two implementations share the Network interface: an in-memory network for
// tests, benchmarks and single-process studies, and a TCP network (package
// net) for real distributed deployments with dynamic connection.
package transport

import (
	"errors"
	"time"
)

// Errors returned by senders and receivers.
var (
	// ErrClosed is returned when the endpoint (or its peer) is closed.
	ErrClosed = errors.New("transport: endpoint closed")
	// ErrTimeout is returned by Recv when no message arrived in time.
	ErrTimeout = errors.New("transport: receive timeout")
)

// Message is one delivered payload.
type Message struct {
	// Payload is the message body: the buffer the sender handed to Send
	// (in memory) or one the TCP reader filled. It is the receiver's;
	// consumers that copy everything out of it (wire.Decode and the
	// DecodeInto variants do) may hand the buffer back with Recycle, and
	// consumers that share it across workers wrap it in a Ref (pool.go).
	Payload []byte
}

// Sender is the client end of a one-way channel (ZeroMQ PUSH-like).
// Implementations are safe for concurrent use.
type Sender interface {
	// Send enqueues one payload and takes ownership of it, whether it
	// succeeds or fails: the caller never touches the slice again. It
	// blocks only when both the local queue and the remote inbox are full,
	// and returns ErrClosed once either end is closed.
	Send(payload []byte) error
	// Close flushes queued messages and releases the connection.
	Close() error
}

// QueueProber has no implementation and no caller in this module. It stays
// declared only because bench/tracenet.go still names it; delete it together
// with that reference.
type QueueProber interface {
	QueueFraction() float64
}

// Receiver is the server end (ZeroMQ PULL-like): a single inbox fan-in for
// any number of senders.
type Receiver interface {
	// Recv waits up to timeout for one message. A timeout ≤ 0 waits
	// indefinitely. It returns ErrTimeout or ErrClosed.
	Recv(timeout time.Duration) (Message, error)
	// Addr returns the address peers dial to reach this receiver.
	Addr() string
	// Close shuts the inbox down; blocked senders are released with errors.
	Close() error
}

// Network abstracts endpoint creation so the server, clients and launcher
// run identically in-process and over real sockets.
type Network interface {
	// Listen creates a receiver. hint may be empty ("pick an address") or a
	// concrete address, e.g. "127.0.0.1:0" for TCP.
	Listen(hint string) (Receiver, error)
	// Dial opens a sender towards the receiver at addr.
	Dial(addr string) (Sender, error)
}

// Options sizes the bounded buffers ("buffer sizes can be user controlled",
// Sec. 4.1.3) and carries socket-level tuning.
type Options struct {
	// SendBuffer is the per-sender queue capacity in messages.
	SendBuffer int
	// RecvBuffer is the per-receiver inbox capacity in messages.
	RecvBuffer int
	// SendSockBytes/RecvSockBytes set the kernel socket buffers
	// (SO_SNDBUF/SO_RCVBUF) on every TCP connection, dialed and accepted.
	// 0 keeps the OS default. Sizing them to hold at least one full data
	// frame keeps a simulation's write from stalling mid-frame and lets the
	// kernel absorb a frame ahead of the fold pipeline; ForStudyCodec derives
	// both from the study shape. Ignored by the in-memory network.
	SendSockBytes int
	RecvSockBytes int
}

// DefaultOptions returns the buffer sizes used when an Options field is 0.
func DefaultOptions() Options {
	return Options{SendBuffer: 64, RecvBuffer: 1024}
}

// Socket sizing bounds for ForStudyCodec: at least the conventional 64 KiB,
// at most 8 MiB so a huge partition cannot pin unbounded per-connection
// memory.
const (
	minSockBytes = 1 << 16
	maxSockBytes = 8 << 20
)

// codecFrameDivisor is the planning ratio for codec-negotiated connections:
// the delta-XOR+ZRLE codec measures ~1.7× on full-precision chaotic fields
// and ~3.2× on single-precision-widened ones, so buffer sizing assumes a
// conservative 2× — enough to halve the per-connection memory of a large
// study without risking mid-frame stalls when a field barely compresses
// (the 64 KiB floors still absorb small frames either way).
const codecFrameDivisor = 2

// ForStudyCodec returns Options with the kernel socket buffers derived from
// the study shape instead of the OS defaults: one data frame carries
// cells × (p+2) float64 fields per timestep and clients batch batchSteps
// timesteps per frame (wire.DataBatch), so the socket buffers are sized to
// hold a full frame (clamped to [64 KiB, 8 MiB]). When codec is true the
// expected frame size is divided by the conservative compression ratio the
// codec guarantees on typical fields, shrinking the buffers a
// codec-negotiated connection pins. cells should be the largest
// per-server-process partition a connection will carry; non-positive inputs
// fall back to 1 (p, batchSteps) or the defaults (cells).
func ForStudyCodec(cells, p, batchSteps int, codec bool) Options {
	opts := DefaultOptions()
	if cells <= 0 {
		return opts
	}
	if p < 1 {
		p = 1
	}
	if batchSteps < 1 {
		batchSteps = 1
	}
	// 8 bytes per float plus a small allowance for headers/cell ranges.
	frame := 8*cells*(p+2)*batchSteps + 4096
	if codec {
		frame = 8*cells*(p+2)*batchSteps/codecFrameDivisor + 4096
	}
	sock := frame
	if sock < minSockBytes {
		sock = minSockBytes
	}
	if sock > maxSockBytes {
		sock = maxSockBytes
	}
	opts.SendSockBytes = sock
	opts.RecvSockBytes = sock
	return opts
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.SendBuffer <= 0 {
		o.SendBuffer = d.SendBuffer
	}
	if o.RecvBuffer <= 0 {
		o.RecvBuffer = d.RecvBuffer
	}
	return o
}
