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
// MaxDelay, then gets a ±20% random spread. The zero value disables retries
// entirely — a failed dial or send fails the attempt immediately, exactly the
// pre-resilience behavior (the launcher then treats it as a group death and
// replays, Sec. 4.2).
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

func (p RetryPolicy) enabled() bool { return p.MaxReconnects > 0 }

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

// delay returns the jittered backoff before retry number attempt (0-based).
func (p RetryPolicy) delay(attempt int, rng *rand.Rand) time.Duration {
	return jitter(p.backoff(attempt), rng)
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

// jitter spreads d uniformly within ±backoffJitter of itself.
func jitter(d time.Duration, rng *rand.Rand) time.Duration {
	return time.Duration(float64(d) * (1 + backoffJitter*(2*rng.Float64()-1)))
}

func retryRNG(p RetryPolicy, groupID int) *rand.Rand {
	return rand.New(rand.NewSource(p.Seed ^ int64(uint64(groupID)*0x9e3779b97f4a7c15)))
}

// resendWindow is the per-route retention depth in timesteps backing
// post-reconnect resends: deep enough to cover the frames a broken connection
// can have in flight (send queue + receive inbox) at default transport
// buffering.
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

// retainRing keeps copies of the most recent sent steps of one route (a
// fixed-size ring; storage is reused across pushes).
type retainRing struct {
	buf  []wire.DataStep
	head int // index of the oldest entry
	n    int
}

func (r *retainRing) push(window int, st *wire.DataStep) {
	if r.buf == nil {
		if window < 1 {
			window = 1
		}
		r.buf = make([]wire.DataStep, window)
	}
	idx := (r.head + r.n) % len(r.buf)
	if r.n == len(r.buf) {
		idx = r.head
		r.head = (r.head + 1) % len(r.buf)
	} else {
		r.n++
	}
	copyStep(&r.buf[idx], st)
}

// at returns the i-th oldest retained step as a one-element slice of the ring.
func (r *retainRing) at(i int) []wire.DataStep {
	j := (r.head + i) % len(r.buf)
	return r.buf[j : j+1]
}

// retainStep copies one route cut into the retention ring; a later reconnect
// resends the retained steps the server has not folded. No-op when retries
// are disabled, so the legacy path carries no copy cost.
func (c *Connection) retainStep(ri int, st *wire.DataStep) {
	if !c.opts.Retry.enabled() {
		return
	}
	if c.retain == nil {
		c.retain = make([]retainRing, len(c.routes))
	}
	c.retain[ri].push(resendWindow, st)
	c.noteRetained(c.routes[ri].ServerRank, st.Timestep)
}

// sendFrame sends one encoded frame to a server rank, transparently
// reconnecting and resending the unacked window on failure when the retry
// policy allows.
func (c *Connection) sendFrame(rank int, payload []byte) error {
	err := c.senders[rank].Send(payload)
	if err == nil || !c.opts.Retry.enabled() {
		return err
	}
	return c.recoverRank(rank, err)
}

// recoverRank re-establishes the connection to one server process after a
// send failure: backoff, redial, resume handshake, then resend of every
// retained step beyond the server's acknowledged fold frontier. The frame
// whose send failed is covered by the retention ring (steps are retained
// before they are sent), so nothing is lost between the failure and the
// resend.
func (c *Connection) recoverRank(rank int, cause error) error {
	for attempt := 0; ; attempt++ {
		if c.reconnects >= c.opts.Retry.MaxReconnects {
			return fmt.Errorf("client: group %d server %d: retry budget (%d) exhausted: %w",
				c.opts.GroupID, rank, c.opts.Retry.MaxReconnects, cause)
		}
		c.reconnects++
		time.Sleep(c.opts.Retry.delay(attempt, c.rng))
		cReconnects.Inc()
		if ok, suppressed := reconnLim.Allow(limKey(c.opts.GroupID, rank)); ok {
			kv := []any{"group", c.opts.GroupID, "server", rank,
				"used", c.reconnects, "budget", c.opts.Retry.MaxReconnects, "cause", cause}
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
		c.noteAck(ack)
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
// frontier — the caller feeds it to noteAck).
func (c *Connection) resumeQueryOn(s transport.Sender, rank int) (*wire.ResumeAck, error) {
	inbox, err := c.net.Listen("")
	if err != nil {
		return nil, fmt.Errorf("client: group %d resume inbox: %w", c.opts.GroupID, err)
	}
	defer inbox.Close()
	if err := s.Send(wire.Encode(&wire.Resume{GroupID: c.opts.GroupID, ReplyAddr: inbox.Addr()})); err != nil {
		return nil, fmt.Errorf("client: group %d resume query to server %d: %w", c.opts.GroupID, rank, err)
	}
	ackTimeout := c.opts.Retry.AckTimeout
	if ackTimeout <= 0 {
		ackTimeout = 5 * time.Second // resume without a retry policy
	}
	msg, err := inbox.Recv(ackTimeout)
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

// resendRank replays the retained steps beyond the server's acknowledged
// frontier on the (re-established) connection to rank, as single-step
// frames. Steps the server already folded are skipped; replay-discard makes
// any overlap with frames that were still in flight idempotent.
func (c *Connection) resendRank(rank, ack int) error {
	if c.retain == nil {
		return nil
	}
	for ri, tr := range c.routes {
		if tr.ServerRank != rank {
			continue
		}
		r := &c.retain[ri]
		if r.n == 0 {
			continue
		}
		if oldest := r.at(0)[0].Timestep; oldest > ack+1 {
			return fmt.Errorf("%w: server %d acked step %d, oldest retained step %d",
				errResumeGap, rank, ack, oldest)
		}
		for i := 0; i < r.n; i++ {
			st := r.at(i)
			if st[0].Timestep <= ack {
				continue
			}
			if err := c.shipSteps(ri, st, false); err != nil {
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
	if c.resumeFloor == nil || rank >= len(c.resumeFloor) || step > c.resumeFloor[rank] {
		return false, nil
	}
	cSkippedPieces.Inc()
	if c.skipped == nil {
		c.skipped = make([]int, len(c.senders))
	}
	c.skipped[rank]++
	if c.skipped[rank]%resumePingEvery == 1 && c.senders[rank] != nil {
		if ok, suppressed := pingLim.Allow(limKey(c.opts.GroupID, rank)); ok {
			kv := []any{"group", c.opts.GroupID, "server", rank, "skipped", c.skipped[rank]}
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
