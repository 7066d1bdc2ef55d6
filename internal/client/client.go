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
	"time"

	"melissa/internal/enc"
	"melissa/internal/mesh"
	"melissa/internal/transport"
	"melissa/internal/wire"
)

// Simulation is the solver abstraction the group runtime drives: Run
// integrates one parameter set and must call emit once per output timestep,
// in increasing step order. Run aborts early when emit returns false.
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
	// per-route retention rings, the per-rank resume floors of a resumed
	// attempt (-1 = nothing folded) and the per-rank skipped-piece counters
	// driving liveness pings.
	reconnects  int
	rng         *rand.Rand
	retain      []retainRing
	resumeFloor []int
	skipped     []int

	// Durable-frontier state: durability reports whether the server
	// checkpoints at all (Welcome.DurableStep != wire.NoDurability); when it
	// does, durable[rank] is that process's last known checkpoint-committed
	// step for this group (-1 = nothing durable), refreshed by every
	// ResumeAck. maxStep is the highest timestep handed to SendTimestep — the
	// durable-drain target. ckptReqAt[rank] is the step the last
	// early-checkpoint request went out at (rate limiting).
	durability bool
	durable    []int
	maxStep    int
	ckptReqAt  []int

	// Framing state (shipSteps): the per-connection compressor, the per-route
	// shard-aligned sub-range lengths (computed on first use), the message
	// shells the encoders read from (fields, so handing their address to an
	// encoder allocates nothing), and the raw-vs-wire byte counters.
	comp      wire.BatchCompressor
	rangeLens [][]int
	dataMsg   wire.Data
	batchMsg  wire.DataBatch
	wireBytes int64
	rawBytes  int64

	// pending[r] buffers the not-yet-sent steps of route r when batching;
	// step and field storage is reused across flushes. cutStep is the
	// one-step shell of the current route cut: its Fields hold sub-slice
	// headers into the caller's fields, never a copy. A Connection is not
	// safe for concurrent use.
	pending [][]wire.DataStep
	cutStep [1]wire.DataStep
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

	// Retry is the connection-resilience policy (retry.go): with a non-zero
	// reconnect budget, failed dials, handshakes and sends transparently
	// redial the server process, perform the resume handshake and resend the
	// retained unacked window. The zero value keeps the legacy fail-fast
	// behavior.
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
	if o.Retry.enabled() {
		o.Retry = o.Retry.withDefaults()
	}
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
			if !retry.enabled() {
				return nil, err
			}
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
		Layout:  welcome,
		opts:    o,
		net:     net,
		routes:  routes,
		rng:     rng,
		maxStep: -1,
	}
	// The Welcome reveals whether this server checkpoints: a NoDurability
	// sentinel means nothing ever becomes durable (retention then only
	// covers reconnects within this server's life).
	conn.durability = welcome.DurableStep != wire.NoDurability
	if conn.durability {
		conn.durable = make([]int, len(welcome.ServerAddr))
		conn.ckptReqAt = make([]int, len(welcome.ServerAddr))
		for i := range conn.durable {
			conn.durable[i] = -1
			conn.ckptReqAt[i] = -1
		}
		conn.durable[0] = welcome.DurableStep
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
		conn.resumeFloor = make([]int, len(conn.senders))
		for rank := range conn.resumeFloor {
			conn.resumeFloor[rank] = -1
		}
		conn.resumeFloor[0] = welcome.LastStep
		for rank, s := range conn.senders {
			if s == nil || rank == 0 {
				continue
			}
			ack, err := conn.resumeQueryOn(s, rank)
			if err != nil {
				conn.Close()
				return nil, err
			}
			conn.resumeFloor[rank] = ack.LastStep
			conn.noteAck(ack)
		}
	}
	return conn, nil
}

// SendTimestep pushes one timestep of all p+2 fields to the server — the
// Process call of the 3-function API. fields[0] is f(A_i), fields[1] f(B_i),
// fields[2+k] f(C^k_i); each covers the full mesh. The stage-1 gather is
// implicit (fields are already assembled per simulation); stage 2 cuts them
// along the static routing and ships one message per (sim rank, server
// process) pair.
func (c *Connection) SendTimestep(step int, fields [][]float64) error {
	if len(fields) != c.Layout.P+2 {
		return fmt.Errorf("client: group %d: %d fields, want %d", c.opts.GroupID, len(fields), c.Layout.P+2)
	}
	for i, f := range fields {
		if len(f) != c.Layout.Cells {
			return fmt.Errorf("client: group %d field %d has %d cells, want %d",
				c.opts.GroupID, i, len(f), c.Layout.Cells)
		}
	}
	if step > c.maxStep {
		c.maxStep = step
	}
	cut := &c.cutStep[0]
	cut.Timestep = step
	if cut.Fields == nil {
		cut.Fields = make([][]float64, len(fields))
	}
	for ri, tr := range c.routes {
		if skip, err := c.skipResumed(tr.ServerRank, step); skip || err != nil {
			if err != nil {
				return err
			}
			continue // the server already folded this piece (resume floor)
		}
		for fi, f := range fields {
			cut.Fields[fi] = f[tr.Cells.Lo:tr.Cells.Hi]
		}
		var err error
		if c.batching() {
			err = c.bufferStep(ri, cut)
		} else {
			// Unbatched: ship the caller's slices as cut, no copy.
			err = c.shipSteps(ri, c.cutStep[:], true)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// batching reports whether timesteps go through the per-route batch buffers.
func (c *Connection) batching() bool {
	return c.opts.BatchSteps > 1
}

// shipSteps is the one place route ri's steps become a frame on the wire.
// The framing follows the negotiated format: a codec connection always sends
// a TypeDataBatchC frame (a single step is its degenerate batch, so the
// server needs no third bulk path); a raw connection sends one TypeData frame
// per step when unbatched and a TypeDataBatch otherwise. recover marks a
// first transmission: the steps enter the retention ring before the send, and
// a failed send goes through reconnect + windowed resend. A resend passes
// false and pushes directly — its caller's reconnect loop owns the errors.
func (c *Connection) shipSteps(ri int, steps []wire.DataStep, recover bool) error {
	tr := c.routes[ri]
	single := len(steps) == 1 && !c.batching()
	rawSize := wire.DataBatchSizeBytes(len(steps), len(steps[0].Fields), tr.Cells.Len())
	if single {
		rawSize = wire.DataSizeBytes(len(steps[0].Fields), tr.Cells.Len())
	}
	if recover {
		for i := range steps {
			c.retainStep(ri, &steps[i])
		}
	}
	w := enc.GetWriter(int(rawSize))
	codecOn := c.codecNegotiated()
	if single && !codecOn {
		c.dataMsg = wire.Data{GroupID: c.opts.GroupID, Timestep: steps[0].Timestep,
			CellLo: tr.Cells.Lo, CellHi: tr.Cells.Hi, Fields: steps[0].Fields}
		wire.EncodeTo(w, &c.dataMsg)
	} else {
		c.batchMsg = wire.DataBatch{GroupID: c.opts.GroupID, CellLo: tr.Cells.Lo, CellHi: tr.Cells.Hi, Steps: steps}
		if codecOn {
			c.comp.EncodeTo(w, &c.batchMsg, c.routeRangeLens(ri))
		} else {
			wire.EncodeTo(w, &c.batchMsg)
		}
	}
	c.wireBytes += int64(w.Len())
	c.rawBytes += rawSize
	cWireBytes.Add(int64(w.Len()))
	cRawBytes.Add(rawSize)
	cMessages.Inc()
	var err error
	if recover {
		err = c.sendFrame(tr.ServerRank, w.Bytes())
	} else {
		err = c.senders[tr.ServerRank].Send(w.Bytes())
	}
	enc.PutWriter(w) // Send copied the payload
	if err != nil {
		return fmt.Errorf("client: group %d steps %d..%d to server %d: %w", c.opts.GroupID,
			steps[0].Timestep, steps[len(steps)-1].Timestep, tr.ServerRank, err)
	}
	return nil
}

// codecNegotiated reports whether compressed frames may be sent: the local
// knob is on and the server granted the capability.
func (c *Connection) codecNegotiated() bool {
	return c.opts.WireCodec && c.Layout.Caps&wire.CapWireCodec != 0
}

// routeRangeLens returns route ri's compressed sub-range lengths: the
// receiving process's fold-shard boundaries intersected with the route's
// cell range, computed once per route. The server resolves its shard count
// with the same block rule (core.NewSharded), so each block lands on exactly
// one fold worker.
func (c *Connection) routeRangeLens(ri int) []int {
	if c.rangeLens == nil {
		c.rangeLens = make([][]int, len(c.routes))
	}
	if c.rangeLens[ri] == nil {
		tr := c.routes[ri]
		part := c.Layout.Partitions[tr.ServerRank]
		shards := 1
		if tr.ServerRank < len(c.Layout.FoldShards) {
			shards = c.Layout.FoldShards[tr.ServerRank]
		}
		if shards < 1 {
			shards = 1
		}
		if n := part.Len(); shards > n {
			shards = n
		}
		lens := []int{}
		for _, sh := range mesh.BlockPartition(part.Len(), shards) {
			lo := max(sh.Lo+part.Lo, tr.Cells.Lo)
			hi := min(sh.Hi+part.Lo, tr.Cells.Hi)
			if lo < hi {
				lens = append(lens, hi-lo)
			}
		}
		c.rangeLens[ri] = lens
	}
	return c.rangeLens[ri]
}

// WireStats returns the bytes this connection put on the wire and the bytes
// the same payloads would have cost in the raw format (equal when the codec
// is off — the negotiated-codec savings is their ratio).
func (c *Connection) WireStats() (wireBytes, rawBytes int64) {
	return c.wireBytes, c.rawBytes
}

// bufferStep copies one route cut into route ri's batch buffer (reusing the
// storage of earlier batches) and flushes the route once it holds
// BatchSteps steps.
func (c *Connection) bufferStep(ri int, cut *wire.DataStep) error {
	if c.pending == nil {
		c.pending = make([][]wire.DataStep, len(c.routes))
	}
	steps := c.pending[ri]
	n := len(steps)
	if cap(steps) > n {
		steps = steps[:n+1] // keeps the slot's field storage
	} else {
		steps = append(steps, wire.DataStep{})
	}
	copyStep(&steps[n], cut)
	c.pending[ri] = steps
	if len(steps) >= c.opts.BatchSteps {
		return c.flushRoute(ri)
	}
	return nil
}

// copyStep deep-copies src into dst, reusing dst's field storage.
func copyStep(dst, src *wire.DataStep) {
	dst.Timestep = src.Timestep
	if cap(dst.Fields) < len(src.Fields) {
		dst.Fields = make([][]float64, len(src.Fields))
	}
	dst.Fields = dst.Fields[:len(src.Fields)]
	for i, f := range src.Fields {
		dst.Fields[i] = append(dst.Fields[i][:0], f...)
	}
}

// flushRoute ships route ri's buffered steps as one batch frame.
func (c *Connection) flushRoute(ri int) error {
	if len(c.pending[ri]) == 0 {
		return nil
	}
	err := c.shipSteps(ri, c.pending[ri], true)
	c.pending[ri] = c.pending[ri][:0] // keep field storage for the next batch
	return err
}

// Flush ships any partially filled batches. It is a no-op when batching is
// off; when batching is on, call it after the last SendTimestep (Close also
// flushes, but swallows errors).
func (c *Connection) Flush() error {
	for ri := range c.pending {
		if err := c.flushRoute(ri); err != nil {
			return err
		}
	}
	return nil
}

// Messages returns how many stage-2 messages one timestep produces.
func (c *Connection) Messages() int { return len(c.routes) }

// Close releases all server connections — the Finalize call. Buffered
// batches are flushed best-effort first.
func (c *Connection) Close() {
	c.Flush()
	for _, s := range c.senders {
		if s != nil {
			s.Close()
		}
	}
}
