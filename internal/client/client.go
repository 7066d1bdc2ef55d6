// Package client implements the Melissa client side: the simulation group.
//
// A group runs p+2 simulations synchronously (Sec. 3.3), one per row of the
// pick-freeze matrices (A_i, B_i, C^1_i .. C^p_i). Data leaves the group in
// the two-stage pattern of Sec. 4.1.2: the fields of all p+2 simulations are
// first gathered per simulation rank onto the main simulation (stage 1,
// MPI_Gather in the paper), then each main-simulation rank pushes its piece
// to exactly the server processes whose partitions it overlaps (stage 2, the
// static N×M redistribution).
//
// The integration API mirrors the paper's three-function library:
// ConnectWith (Initialise), SendTimestep (Process), Close (Finalize).
package client

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"melissa/internal/mesh"
	"melissa/internal/transport"
	"melissa/internal/wire"
)

// Simulation is the solver abstraction the group runtime drives: Run
// integrates one parameter set and must call emit once per output timestep,
// in increasing step order. emit has read the field when it returns, so the
// simulation may overwrite the buffer at once. Run aborts early when emit
// returns false.
type Simulation interface {
	Run(row []float64, emit func(step int, field []float64) bool)
}

// SimFunc adapts a plain function to the Simulation interface.
type SimFunc func(row []float64, emit func(step int, field []float64) bool)

// Run implements Simulation.
func (f SimFunc) Run(row []float64, emit func(step int, field []float64) bool) {
	f(row, emit)
}

// Connection is an established group↔server session: the result of the
// dynamic connection handshake, holding one sender per server process this
// group needs (every one of them, in the block-partitioned layout).
type Connection struct {
	// Layout is the server's Welcome: study shape, partitioning, process
	// addresses and negotiated capabilities.
	Layout *wire.Welcome

	// opts are the options the connection was built with (Retry with its
	// defaults resolved); they do not change afterwards.
	opts ConnectOpts

	net     transport.Network
	senders []transport.Sender
	routes  []mesh.Transfer

	// Resilience state: budget consumed, the backoff/jitter stream, the
	// per-route retention rings and one record per server process.
	reconnects int
	rng        *rand.Rand
	retain     []retainRing
	ranks      []rankState

	// durability reports whether the server checkpoints at all
	// (Welcome.DurableStep != wire.NoDurability). maxStep is the highest
	// timestep handed to SendTimestep — the durable-drain target.
	durability bool
	maxStep    int

	// Framing state (frames.go): out[ri] is route ri's frame under
	// construction, frameSteps the steps a frame carries (BatchSteps, at
	// least 1) and codec whether frames are compressed, by comp; the byte
	// counters total what went out. A Connection is not safe for concurrent
	// use, except that the members of an open step fill their own slots
	// concurrently.
	out        []routeOut
	frameSteps int
	codec      bool
	comp       wire.BatchCompressor
	wireBytes  int64
	rawBytes   int64
}

// rankState is the connection's record of one server process, filled when
// the connection is made.
type rankState struct {
	// resumeFloor is the last step the process had folded when a resumed
	// attempt connected (-1 = nothing): pieces at or below it are skipped.
	// skipped counts those pieces, spacing the liveness pings.
	resumeFloor, skipped int
	// durable is the process's last known checkpoint-committed step for
	// this group (-1 = nothing durable), refreshed by every ResumeAck.
	// ckptReqAt is the step the last early-checkpoint request went out at
	// (-1 = none; rate limiting).
	durable, ckptReqAt int
}

// ConnectOpts is the one declaration of a group connection's options: the
// handshake arguments, the resilience policy covering dials, handshakes and
// sends, and the framing of the data path. ConnectWith resolves them once;
// the connection keeps them unchanged for its lifetime.
type ConnectOpts struct {
	// GroupID is the design row index i of this group; SimRanks the number
	// of parallel ranks per simulation (the N of the N×M redistribution).
	GroupID  int
	SimRanks int
	// Timeout bounds each handshake attempt (Welcome wait).
	Timeout time.Duration

	// Retry is the connection-resilience policy (retry.go): failed dials,
	// handshakes and sends redial the server process, perform the resume
	// handshake and resend the retained unacked window while the reconnect
	// budget lasts. A zero budget keeps the legacy fail-fast behavior and
	// the two costs only a budget pays for: retention and the durable drain.
	Retry RetryPolicy
	// Resume marks a (re)connection of a group whose data may already be
	// partially folded — a restarted attempt. The handshake then asks every
	// server process for its fold frontier, and SendTimestep skips the
	// pieces each process already folded ("session resume without replay
	// traffic"): the solver still recomputes, the network does not recarry.
	Resume bool
	// OnReconnect, when non-nil, is called after each consumed reconnect
	// (serverRank is -1 for handshake-path retries; attempt counts budget
	// used so far). The launcher uses it to grant in-progress reconnects
	// grace against group timeouts.
	OnReconnect func(serverRank, attempt int)

	// BatchSteps, when > 1, buffers that many timesteps per server process
	// and ships them as a single wire.DataBatch message, amortizing framing
	// and syscall/channel overhead (call Flush — or Close — to push a partial
	// final batch). The default 1 sends one Data message per (sim rank,
	// server process, timestep). Batching stretches the group's inter-message
	// gap by the same factor — server-side group timeouts must account for it
	// (the launcher scales its GroupTimeout automatically).
	BatchSteps int
	// WireCodec, when true, ships field payloads in the compressed framing
	// (delta-XOR + entropy coding, wire.TypeDataBatchC) — provided the server
	// negotiated the capability in the Welcome (Hello always advertises it;
	// a server configured without the codec answers without the bit and the
	// connection transparently stays on the raw format). Payloads are cut on
	// the receiving process's fold-shard boundaries (Welcome.FoldShards) so
	// each fold worker decompresses exactly its own block.
	WireCodec bool
}

// ConnectWith performs the dynamic-connection handshake of Sec. 4.1.3: it
// contacts the server main process, retrieves the data partitioning and the
// server process addresses, and opens direct connections to every server
// process this group's ranks will feed. The handshake itself is retried
// under the same backoff/budget policy as mid-study sends, and a resumed
// attempt learns each server process's fold frontier so it does not resend
// folded data.
func ConnectWith(net transport.Network, mainAddr string, o ConnectOpts) (*Connection, error) {
	if o.SimRanks < 1 {
		return nil, fmt.Errorf("client: group %d needs at least one rank", o.GroupID)
	}
	o.Retry = o.Retry.withDefaults()
	retry := o.Retry
	rng := retryRNG(retry, o.GroupID)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if attempt > retry.MaxReconnects {
				return nil, lastErr
			}
			time.Sleep(retry.delay(attempt-1, rng))
			cReconnects.Inc()
			if o.OnReconnect != nil {
				o.OnReconnect(-1, attempt)
			}
		}
		conn, err := connectOnce(net, mainAddr, o, rng, o.Resume || attempt > 0)
		if err != nil {
			lastErr = err
			continue
		}
		// Handshake retries consume the same per-group budget as send-path
		// reconnects.
		conn.reconnects = attempt
		return conn, nil
	}
}

func connectOnce(net transport.Network, mainAddr string, o ConnectOpts, rng *rand.Rand, resume bool) (*Connection, error) {
	groupID, simRanks, timeout := o.GroupID, o.SimRanks, o.Timeout
	reply, err := net.Listen("")
	if err != nil {
		return nil, fmt.Errorf("client: group %d reply inbox: %w", groupID, err)
	}
	defer reply.Close()

	main, err := net.Dial(mainAddr)
	if err != nil {
		return nil, fmt.Errorf("client: group %d cannot reach server: %w", groupID, err)
	}
	// Caps always advertises the full capability set of this build — whether
	// a capability is used is the server's call (echoed in Welcome.Caps) and
	// the connection's knobs.
	hello := &wire.Hello{GroupID: groupID, SimRanks: simRanks, ReplyAddr: reply.Addr(), Caps: wire.CapWireCodec, Resume: resume}
	if err := main.Send(wire.Encode(hello)); err != nil {
		main.Close()
		return nil, fmt.Errorf("client: group %d hello: %w", groupID, err)
	}
	main.Close()

	msg, err := reply.Recv(timeout)
	if err != nil {
		return nil, fmt.Errorf("client: group %d waiting for welcome: %w", groupID, err)
	}
	decoded, err := wire.Decode(msg.Payload)
	transport.Recycle(msg.Payload) // Decode copied everything out
	if err != nil {
		return nil, fmt.Errorf("client: group %d: %w", groupID, err)
	}
	welcome, ok := decoded.(*wire.Welcome)
	if !ok {
		return nil, fmt.Errorf("client: group %d expected Welcome, got %T", groupID, decoded)
	}

	simParts := mesh.BlockPartition(welcome.Cells, simRanks)
	routes := mesh.Route(simParts, welcome.Partitions)

	conn := &Connection{
		Layout: welcome,
		opts:   o,
		net:    net,
		routes: routes,
		rng:    rng,
		ranks: slices.Repeat([]rankState{{resumeFloor: -1, durable: -1, ckptReqAt: -1}},
			len(welcome.ServerAddr)),
		maxStep:    -1,
		out:        make([]routeOut, len(routes)),
		frameSteps: max(1, o.BatchSteps),
		codec:      o.WireCodec && welcome.Caps&wire.CapWireCodec != 0,
		// The Welcome reveals whether this server checkpoints: a
		// NoDurability sentinel means nothing ever becomes durable
		// (retention then only covers reconnects within this server's life).
		durability: welcome.DurableStep != wire.NoDurability,
	}
	conn.noteDurable(0, welcome.DurableStep)
	for ri, tr := range routes {
		conn.out[ri].runs = make([]int, welcome.P+2)
		if conn.codec {
			conn.out[ri].batch.RangeLens = conn.rangeLens(tr)
		}
	}
	// Open one connection per server process that appears in the routing
	// ("each main simulation process opens individual communication
	// channels to each necessary server process").
	conn.senders = make([]transport.Sender, len(welcome.ServerAddr))
	needed := make(map[int]bool)
	for _, tr := range routes {
		needed[tr.ServerRank] = true
	}
	for rank := range needed {
		s, err := net.Dial(welcome.ServerAddr[rank])
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("client: group %d dialing server %d: %w", groupID, rank, err)
		}
		conn.senders[rank] = s
	}
	if resume {
		// Learn each process's fold frontier so the resumed attempt skips
		// resending folded pieces. Rank 0's answer rode along in the Welcome;
		// the others are queried over the fresh data connections.
		conn.ranks[0].resumeFloor = welcome.LastStep
		for rank, s := range conn.senders {
			if s == nil || rank == 0 {
				continue
			}
			ack, err := conn.resumeQueryOn(s, rank)
			if err != nil {
				conn.Close()
				return nil, err
			}
			conn.ranks[rank].resumeFloor = ack.LastStep
			conn.noteDurable(rank, ack.DurableStep)
		}
	}
	return conn, nil
}

// SendTimestep pushes one timestep of all p+2 fields to the server — the
// Process call of the 3-function API. fields[0] is f(A_i), fields[1] f(B_i),
// fields[2+k] f(C^k_i); each covers the full mesh. The stage-1 gather is
// implicit (fields are already assembled per simulation); stage 2 cuts them
// along the static routing into one frame per (sim rank, server process)
// pair and timestep, or batch of BatchSteps timesteps.
//
// SendTimestep borrows the fields: it copies each route's cut into the
// frame under construction before it returns, and keeps no reference, so
// the caller may overwrite them at once.
func (c *Connection) SendTimestep(step int, fields [][]float64) error {
	if len(fields) != c.Layout.P+2 {
		return fmt.Errorf("client: group %d: %d fields, want %d", c.opts.GroupID, len(fields), c.Layout.P+2)
	}
	for i, f := range fields {
		if err := c.checkField(i, f); err != nil {
			return err
		}
	}
	if err := c.openStep(step); err != nil {
		return err
	}
	for i, f := range fields {
		c.putField(i, f)
	}
	return c.closeStep()
}

// checkField reports a field of member i that does not cover the mesh.
func (c *Connection) checkField(i int, f []float64) error {
	if len(f) != c.Layout.Cells {
		return fmt.Errorf("client: group %d field %d has %d cells, want %d",
			c.opts.GroupID, i, len(f), c.Layout.Cells)
	}
	return nil
}

// rangeLens returns route tr's compressed sub-range lengths: the receiving
// process's fold-shard boundaries intersected with the route's cell range.
// The server resolves its shard count with the same block rule
// (core.NewSharded), so each block lands on exactly one fold worker.
func (c *Connection) rangeLens(tr mesh.Transfer) []int {
	part := c.Layout.Partitions[tr.ServerRank]
	shards := 1
	if tr.ServerRank < len(c.Layout.FoldShards) {
		shards = c.Layout.FoldShards[tr.ServerRank]
	}
	shards = min(max(shards, 1), part.Len())
	lens := []int{}
	for _, sh := range mesh.BlockPartition(part.Len(), shards) {
		lo := max(sh.Lo+part.Lo, tr.Cells.Lo)
		hi := min(sh.Hi+part.Lo, tr.Cells.Hi)
		if lo < hi {
			lens = append(lens, hi-lo)
		}
	}
	return lens
}

// WireStats returns the bytes this connection put on the wire and the bytes
// the same payloads would have cost in the raw format (equal when the codec
// is off — the negotiated-codec savings is their ratio).
func (c *Connection) WireStats() (wireBytes, rawBytes int64) {
	return c.wireBytes, c.rawBytes
}

// Close releases all server connections — the Finalize call. Buffered
// batches are flushed best-effort first.
func (c *Connection) Close() {
	c.Flush()
	c.closeSenders()
}

// closeSenders releases the server connections without flushing.
func (c *Connection) closeSenders() {
	for _, s := range c.senders {
		if s != nil {
			s.Close()
		}
	}
}
