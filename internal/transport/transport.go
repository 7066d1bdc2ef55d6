// Package transport provides the asynchronous, buffered messaging layer
// standing in for ZeroMQ (Sec. 4.1.3). Its semantics mirror the properties
// the paper relies on:
//
//   - Send returns once the message is buffered, so it is normally
//     non-blocking: in memory it goes straight into the receiver's inbox,
//     over TCP into the kernel socket buffer;
//   - buffers are bounded, and Send blocks only while all of them towards
//     the receiver are full — the inbox, plus the kernel socket buffers over
//     TCP. That is the backpressure that suspended the simulations in the
//     15-node experiment (Sec. 5.3);
//   - an inbox's storage grows with what it holds, up to its bound;
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

	"melissa/internal/wire"
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
	// Send hands one payload over and takes ownership of it, whether it
	// succeeds or fails: the caller never touches the slice again. It
	// returns once the frame is in the receiver's inbox (memory) or in the
	// kernel socket buffer (TCP), so it blocks only while the buffers
	// towards the receiver are full. It returns an error wrapping ErrClosed
	// once either end is closed.
	Send(payload []byte) error
	// Close releases the connection. Every frame Send returned for is
	// already buffered, so there is nothing left to flush; a Send still
	// blocked fails.
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

// Options bounds TCP frames. The inbox bound is inboxLimit on both networks.
type Options struct {
	// maxFrame is the largest frame a TCP receiver accepts (0 means
	// defaultMaxFrame); ForStudyCodec derives it from the study shape.
	maxFrame int
	// recvBuffer overrides inboxLimit when positive; tests use it for tiny
	// inboxes.
	recvBuffer int
}

// inboxLimit bounds a receiver's inbox in messages.
const inboxLimit = 1024

// ForStudyCodec returns Options with the TCP frame bound derived from the
// study shape instead of the fixed 64 MiB bound: one data frame carries
// cells × (p+2) float64 fields per timestep and clients batch batchSteps
// timesteps per frame (wire.DataBatch). The bound admits a full batch in
// either framing, since receivers decode both, so codec does not change
// the result; it is never less than defaultMaxFrame. The kernel socket
// buffers keep the OS defaults and its autotuning. cells should be the
// largest per-server-process partition a connection will carry;
// non-positive inputs fall back to 1 (p, batchSteps) or the defaults
// (cells).
func ForStudyCodec(cells, p, batchSteps int, codec bool) Options {
	if cells <= 0 {
		return Options{}
	}
	p, batchSteps = max(p, 1), max(batchSteps, 1)
	return Options{maxFrame: int(max(wire.MaxBulkFrameBytes(batchSteps, p+2, cells), defaultMaxFrame))}
}

// defaultMaxFrame bounds TCP frames when no study shape is given, and is the
// floor for every shape: control frames grow with what the shape does not
// carry (a Report lists every running and finished group at 8 bytes each,
// so 64 MiB holds about 8M groups).
const defaultMaxFrame = 64 << 20

func (o Options) withDefaults() Options {
	if o.maxFrame <= 0 {
		o.maxFrame = defaultMaxFrame
	}
	return o
}
