package client

import (
	"errors"
	"fmt"
	"time"

	olog "melissa/internal/obs/log"
	"melissa/internal/wire"
)

// errDurableDrain marks a WaitDurable timeout (as opposed to a connection
// failure): the server is reachable but did not commit a checkpoint past the
// group's last step within the bound. Callers typically accept the legacy
// at-risk window on it rather than failing the attempt.
var errDurableDrain = errors.New("client: durable drain timed out")

// Durable-frontier client side. The server advertises, on every Welcome and
// ResumeAck, the last step per (group, rank) whose fold state a committed
// checkpoint covers. Steps at or below that floor can never be asked for
// again — a crashed server restores at least that far — so the floor, not the
// fold frontier, is the contract for how long a route cut must stay
// resendable. The retention ring is the physical cap; when the retained
// steps beyond the floor cross a high-water mark the connection asks the
// server for an early checkpoint (fire-and-forget advice) instead of ever
// blocking ingest, and if the ring wraps anyway a post-crash reconnect
// surfaces errResumeGap and the launcher falls back to a full replay.

// checkpointHighWater is how many retained-but-not-durable steps a route may
// accumulate before the connection asks the server for an early checkpoint:
// three quarters of the retention window, so the durable frontier advances
// before the ring wraps.
const checkpointHighWater = resendWindow * 3 / 4

// durableDrainTimeout bounds the completion-time durable drain (WaitDurable).
const durableDrainTimeout = 30 * time.Second

// durablePollCap caps the exponential poll backoff inside WaitDurable.
const durablePollCap = 100 * time.Millisecond

// noteAck folds a ResumeAck's durable frontier into the per-rank floor.
// Every resume handshake carries one, so reconnects, resume queries and
// drain polls all refresh it. A NoDurability sentinel (server running
// without a checkpoint directory) switches the whole connection back to
// fold-frontier retention.
func (c *Connection) noteAck(ack *wire.ResumeAck) {
	if ack.DurableStep == wire.NoDurability {
		c.durability = false
		return
	}
	if c.durable == nil || ack.ProcRank < 0 || ack.ProcRank >= len(c.durable) {
		return
	}
	if ack.DurableStep > c.durable[ack.ProcRank] {
		c.durable[ack.ProcRank] = ack.DurableStep
	}
}

// noteRetained runs after a route cut enters the retention ring: when the
// steps retained beyond rank's durable floor cross the high-water mark, it
// asks that server process for an early checkpoint so the durable frontier
// advances before the ring wraps. The request is advice — ingest never
// blocks on it — and requests are spaced at least half a high-water of
// steps apart per rank so a stalled checkpointer is not flooded.
func (c *Connection) noteRetained(rank, step int) {
	// Without a reconnect budget the retention ring is never replayed, so
	// there is nothing for the durable frontier to protect — stay silent.
	if !c.opts.Retry.enabled() || !c.durability || c.durable == nil || rank >= len(c.durable) {
		return
	}
	if step-c.durable[rank] < checkpointHighWater {
		return
	}
	if last := c.ckptReqAt[rank]; last >= 0 && step-last < checkpointHighWater/2 {
		return
	}
	c.ckptReqAt[rank] = step
	if s := c.senders[rank]; s != nil {
		// Best-effort: a broken connection surfaces on the next data frame.
		_ = s.Send(wire.Encode(&wire.CheckpointReq{GroupID: c.opts.GroupID}))
		cCkptReqs.Inc()
	}
}

// WaitDurable blocks until every server process's durable frontier covers
// the last timestep this connection sent, nudging the server with
// early-checkpoint requests while it polls. Groups call it once at
// completion (after the final Flush): a finished group has no live process
// left to resend its window, so its contribution must be durable before it
// exits or a later server crash would silently roll it back. Returns nil
// immediately when the server does not checkpoint, nothing was sent, or the
// group runs without a reconnect budget (then a post-crash server restart
// replays the whole group anyway — the legacy protocol — and the drain would
// only slow every study down); after durableDrainTimeout it returns an error
// and the caller decides whether to accept the legacy at-risk window.
func (c *Connection) WaitDurable() error {
	if !c.opts.Retry.enabled() || !c.durability || c.maxStep < 0 || c.durable == nil {
		return nil
	}
	deadline := time.Now().Add(durableDrainTimeout)
	poll := 2 * time.Millisecond
	for rank := range c.senders {
		if c.senders[rank] == nil {
			continue
		}
		for c.durability && c.durable[rank] < c.maxStep {
			ack, err := c.resumeQueryOn(c.senders[rank], rank)
			if err != nil {
				if rerr := c.recoverRank(rank, err); rerr != nil {
					return rerr
				}
				continue
			}
			c.noteAck(ack)
			if !c.durability || c.durable[rank] >= c.maxStep {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%w: group %d server %d durable step %d < last sent %d",
					errDurableDrain, c.opts.GroupID, rank, c.durable[rank], c.maxStep)
			}
			_ = c.senders[rank].Send(wire.Encode(&wire.CheckpointReq{GroupID: c.opts.GroupID}))
			cCkptReqs.Inc()
			time.Sleep(poll)
			if poll < durablePollCap {
				poll *= 2
			}
		}
	}
	olog.Debugw("client.durable_drain", "group", c.opts.GroupID, "last_step", c.maxStep)
	return nil
}
