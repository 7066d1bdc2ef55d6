package client

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	olog "melissa/internal/obs/log"
	"melissa/internal/transport"
	"melissa/internal/wire"
)

// reconnLim and pingLim rate-limit the reconnect and resume-ping study-log
// lines per (group, server rank): a long server outage produces backoff
// attempts and liveness pings by the thousand, and the log should carry one
// line per interval with a suppressed count while the counters stay exact.
var (
	reconnLim = olog.Limiter{Interval: 5 * time.Second}
	pingLim   = olog.Limiter{Interval: 5 * time.Second}
)

// limKey packs (group, server rank) into one rate-limiter key.
func limKey(group, rank int) uint64 { return uint64(uint32(group))<<16 | uint64(uint16(rank)) }

// RetryPolicy configures the connection-resilience layer: how often a group
// may re-establish a broken server connection (dial and send paths both
// count against the same per-group budget) and how the capped exponential
// backoff between attempts grows: each delay doubles the previous one up to
// MaxDelay, then gets a ±20% random spread. A zero budget disables retries
// entirely — a failed dial or send fails the attempt immediately, exactly the
// pre-resilience behavior (the launcher then treats it as a group death and
// replays, Sec. 4.2) — and with them retention and the durable drain.
type RetryPolicy struct {
	// MaxReconnects is the per-group reconnect budget; 0 disables retries.
	MaxReconnects int
	// BaseDelay is the first backoff delay (default 5ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 1s).
	MaxDelay time.Duration
	// AckTimeout bounds the wait for a ResumeAck after a reconnect
	// (default 5s).
	AckTimeout time.Duration
	// Seed drives the jitter; mixed with the group id, so a fixed seed makes
	// backoff sequences reproducible study-wide.
	Seed int64
}

// The backoff growth factor per attempt and the relative random spread of
// each delay.
const (
	backoffMultiplier = 2
	backoffJitter     = 0.2
)

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = 5 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	if p.AckTimeout <= 0 {
		p.AckTimeout = 5 * time.Second
	}
	return p
}

// delay returns the backoff before retry number attempt (0-based), spread
// uniformly within ±backoffJitter of itself. The first draw seeds rng.
func (p RetryPolicy) delay(attempt int, rng *backoffRNG) time.Duration {
	if rng.src == nil {
		rng.src = rand.New(rand.NewSource(rng.seed))
	}
	return time.Duration(float64(p.backoff(attempt)) * (1 + backoffJitter*(2*rng.src.Float64()-1)))
}

// backoff returns the exact backoff before retry number attempt (0-based):
// BaseDelay multiplied by backoffMultiplier per attempt, capped at MaxDelay.
func (p RetryPolicy) backoff(attempt int) time.Duration {
	d := p.BaseDelay
	for i := 0; i < attempt && d < p.MaxDelay; i++ {
		d *= backoffMultiplier
	}
	return min(d, p.MaxDelay)
}

// backoffRNG is a group's jitter stream. delay seeds its source on the first
// draw, so a group that never retries never builds one. A copy taken after
// the first draw shares the source and continues the stream.
type backoffRNG struct {
	seed int64
	src  *rand.Rand
}

// retryRNG returns group groupID's jitter stream, unseeded.
func retryRNG(p RetryPolicy, groupID int) backoffRNG {
	return backoffRNG{seed: p.Seed ^ int64(uint64(groupID)*0x9e3779b97f4a7c15)}
}

// resendWindow is the per-route retention depth in timesteps backing
// post-reconnect resends: deep enough to cover the frames a broken connection
// can have in flight (kernel socket buffers + receive inbox) at default
// transport buffering.
const resendWindow = 128

// resumePingEvery is how many skipped pieces a resumed attempt sends per
// liveness ping: while the solver recomputes steps the server already
// folded, no data flows, so periodic Resume pings keep the server's
// per-group message clock fresh and the timeout machinery quiet.
const resumePingEvery = 64

// errResumeGap marks an unrecoverable reconnect: the server's fold frontier
// is behind the oldest step the client still retains, so the unacked window
// cannot be resent and only a full group replay can heal the study.
var errResumeGap = errors.New("client: resume gap exceeds retention window")

// retainRing keeps its own copies of the most recent frames sent on one
// route (a fixed-size ring whose slot storage is reused across pushes).
type retainRing struct {
	buf  []retained
	head int // index of the oldest entry
	n    int
}

// retained is one frame of a retention ring: a copy of the bytes handed to
// Send, the first and last timestep they carry and their raw-format size.
type retained struct {
	frame       []byte
	first, last int
	raw         int64
}

func (r *retainRing) push(window int, frame []byte, first, last int, raw int64) {
	if r.buf == nil {
		r.buf = make([]retained, max(window, 1))
	}
	idx := (r.head + r.n) % len(r.buf)
	if r.n == len(r.buf) {
		idx = r.head
		r.head = (r.head + 1) % len(r.buf)
	} else {
		r.n++
	}
	e := &r.buf[idx]
	e.frame = append(e.frame[:0], frame...)
	e.first, e.last, e.raw = first, last, raw
}

// at returns the i-th oldest retained frame.
func (r *retainRing) at(i int) *retained {
	return &r.buf[(r.head+i)%len(r.buf)]
}

// retainFrame copies a frame of route ri into its retention ring before
// Send takes it; a later reconnect resends the retained frames the server
// has not folded. The ring spans resendWindow timesteps.
func (c *Connection) retainFrame(ri int, frame []byte, first, last int, raw int64) {
	// Cost gate: retain only with a budget. Without one nothing is ever
	// resent, and the ring would copy every frame for nothing.
	if c.opts.Retry.MaxReconnects <= 0 {
		return
	}
	if c.retain == nil {
		c.retain = make([]retainRing, len(c.routes))
	}
	c.retain[ri].push((resendWindow+c.frameSteps-1)/c.frameSteps, frame, first, last, raw)
	c.noteRetained(c.routes[ri].ServerRank, last)
}

// sendFrame sends one encoded frame to a server rank, transparently
// reconnecting and resending the unacked window on failure while the
// reconnect budget lasts.
func (c *Connection) sendFrame(rank int, payload []byte) error {
	if err := c.senders[rank].Send(payload); err != nil {
		return c.recoverRank(rank, err)
	}
	return nil
}

// recoverRank re-establishes the connection to one server process after a
// send failure: backoff, redial, resume handshake, then resend of every
// retained frame beyond the server's acknowledged fold frontier. The frame
// whose send failed is covered by the retention ring (frames are retained
// before they are sent), so nothing is lost between the failure and the
// resend.
func (c *Connection) recoverRank(rank int, cause error) error {
	budget := c.opts.Retry.MaxReconnects
	for attempt := 0; ; attempt++ {
		if c.reconnects >= budget {
			return fmt.Errorf("client: group %d server %d: retry budget (%d) exhausted: %w",
				c.opts.GroupID, rank, budget, cause)
		}
		c.reconnects++
		time.Sleep(c.opts.Retry.delay(attempt, &c.rng))
		cReconnects.Inc()
		if ok, suppressed := reconnLim.Allow(limKey(c.opts.GroupID, rank)); ok {
			kv := []any{"group", c.opts.GroupID, "server", rank,
				"used", c.reconnects, "budget", budget, "cause", cause}
			if suppressed > 0 {
				kv = append(kv, "suppressed", suppressed)
			}
			olog.Infow("client.reconnect", kv...)
		}
		if c.opts.OnReconnect != nil {
			c.opts.OnReconnect(rank, c.reconnects)
		}
		s, err := c.net.Dial(c.Layout.ServerAddr[rank])
		if err != nil {
			cause = err
			continue
		}
		ack, err := c.resumeQueryOn(s, rank)
		if err != nil {
			s.Close()
			cause = err
			continue
		}
		if old := c.senders[rank]; old != nil {
			old.Close()
		}
		c.senders[rank] = s
		c.noteDurable(rank, ack.DurableStep)
		err = c.resendRank(rank, ack.LastStep)
		if err == nil {
			olog.Debugw("client.reconnected", "group", c.opts.GroupID, "server", rank,
				"acked_step", ack.LastStep, "durable_step", ack.DurableStep, "used", c.reconnects)
			return nil
		}
		if errors.Is(err, errResumeGap) {
			return err
		}
		cause = err
	}
}

// resumeQueryOn performs the resume handshake on a fresh connection: it asks
// the server process for its contiguous fold frontier of this group and
// waits for the dialed-back ResumeAck (which also carries the durable
// frontier — the caller feeds it to noteDurable).
func (c *Connection) resumeQueryOn(s transport.Sender, rank int) (*wire.ResumeAck, error) {
	inbox, err := c.net.Listen("")
	if err != nil {
		return nil, fmt.Errorf("client: group %d resume inbox: %w", c.opts.GroupID, err)
	}
	defer inbox.Close()
	if err := s.Send(wire.Encode(&wire.Resume{GroupID: c.opts.GroupID, ReplyAddr: inbox.Addr()})); err != nil {
		return nil, fmt.Errorf("client: group %d resume query to server %d: %w", c.opts.GroupID, rank, err)
	}
	msg, err := inbox.Recv(c.opts.Retry.AckTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: group %d resume ack from server %d: %w", c.opts.GroupID, rank, err)
	}
	decoded, err := wire.Decode(msg.Payload)
	transport.Recycle(msg.Payload)
	if err != nil {
		return nil, fmt.Errorf("client: group %d resume ack: %w", c.opts.GroupID, err)
	}
	ack, ok := decoded.(*wire.ResumeAck)
	if !ok || ack.GroupID != c.opts.GroupID {
		return nil, fmt.Errorf("client: group %d: unexpected resume reply %T", c.opts.GroupID, decoded)
	}
	cResumeAcks.Inc()
	return ack, nil
}

// resendRank replays the retained frames that carry a step beyond the
// server's acknowledged frontier on the (re-established) connection to rank,
// each as a fresh copy of the frame as it was sent. A batch frame may carry
// steps the server already folded; replay-discard drops those, as it does
// any overlap with frames that were still in flight.
func (c *Connection) resendRank(rank, ack int) error {
	if c.retain == nil {
		return nil
	}
	for ri, tr := range c.routes {
		r := &c.retain[ri]
		if tr.ServerRank != rank || r.n == 0 {
			continue
		}
		if oldest := r.at(0).first; oldest > ack+1 {
			return fmt.Errorf("%w: server %d acked step %d, oldest retained step %d",
				errResumeGap, rank, ack, oldest)
		}
		for i := 0; i < r.n; i++ {
			e := r.at(i)
			if e.last <= ack {
				continue
			}
			frame := append(transport.GetPayload(len(e.frame))[:0], e.frame...)
			c.count(frame, e.raw)
			if err := c.senders[rank].Send(frame); err != nil {
				return err
			}
			cResentFrames.Inc()
		}
	}
	return nil
}

// skipResumed reports whether a resumed attempt should skip sending this
// route piece because the server rank already folded the step (resume
// floor). Every resumePingEvery skipped pieces a liveness Resume ping is
// sent so the server's timeout machinery sees the group alive while the
// solver recomputes folded steps without producing traffic.
func (c *Connection) skipResumed(rank, step int) (bool, error) {
	r := &c.ranks[rank]
	if step > r.resumeFloor {
		return false, nil
	}
	cSkippedPieces.Inc()
	r.skipped++
	if r.skipped%resumePingEvery == 1 && c.senders[rank] != nil {
		if ok, suppressed := pingLim.Allow(limKey(c.opts.GroupID, rank)); ok {
			kv := []any{"group", c.opts.GroupID, "server", rank, "skipped", r.skipped}
			if suppressed > 0 {
				kv = append(kv, "suppressed", suppressed)
			}
			olog.Debugw("client.resume_ping", kv...)
		}
		if err := c.sendFrame(rank, wire.Encode(&wire.Resume{GroupID: c.opts.GroupID})); err != nil {
			return true, fmt.Errorf("client: group %d liveness ping to server %d: %w", c.opts.GroupID, rank, err)
		}
	}
	return true, nil
}
