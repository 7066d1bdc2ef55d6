package transport

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"melissa/internal/obs"
)

// ChaosNetwork is a deterministic fault-injecting wrapper around any Network.
// It plays the same role for the transport that faults.Plan plays for the
// application layer: failures are declared up front, keyed by connection, and
// a fixed seed reproduces the exact same failure sequence run after run — so
// a resilience bug found by a chaos soak is a deterministic repro, not a
// flake.
//
// Faults attach to dialed connections (the PUSH side, where all bulk traffic
// originates); Listen passes through untouched. A connection is identified by
// the receiver address it dials and by its per-address dial ordinal, so "the
// third connection ever made to server process 1" can be cut while every
// other connection stays clean.
//
// Corruption delivers a copy of the frame with its type tag (plus a few
// seeded body bytes) clobbered; the frame it was handed, which a retention
// ring may share, stays intact. The receiving side's strict decoder rejects
// the whole copy, modelling a checksummed transport that discards a damaged
// segment. A corrupted frame therefore never folds garbage into the
// statistics — it creates a *hole*, which the contiguous replay-discard
// tracker refuses to skip over.
type ChaosNetwork struct {
	inner Network
	plan  ChaosPlan

	mu    sync.Mutex
	dials map[string]int

	stats chaosCounters
}

// ChaosPlan declares the faults a ChaosNetwork injects. Rules are matched in
// order; the first rule matching a connection's (address, dial ordinal) pair
// wins. Seed drives every pseudo-random choice (corruption byte positions,
// latency jitter), mixed per connection so rule application is independent of
// goroutine scheduling.
type ChaosPlan struct {
	Seed  uint64
	Rules []ChaosRule
}

// ChaosRule is one declarative fault. Frame indices are 1-based counts of
// Send calls on the matched connection; a zero index disables that fault.
type ChaosRule struct {
	// Addr restricts the rule to connections dialed to this exact receiver
	// address; empty matches every address.
	Addr string
	// Dial restricts the rule to the n-th (0-based) dial to the matched
	// address; negative matches every dial.
	Dial int

	// Refuse makes Dial itself fail, as if the peer were down.
	Refuse bool
	// Latency is added to every frame delivered on the connection, with up
	// to 25% seeded jitter on top.
	Latency time.Duration
	// CorruptFrame delivers a clobbered copy of the n-th frame so the
	// receiver rejects it.
	CorruptFrame int
	// TruncateFrame delivers only a prefix of the n-th frame (a partial
	// write), which the strict decoder likewise rejects.
	TruncateFrame int
	// DuplicateFrame delivers the n-th frame twice.
	DuplicateFrame int
	// CutAfterFrames breaks the connection once it has carried that many
	// frames: the next Send fails with ErrClosed, as a broken TCP stream
	// surfaces on the sender's next write.
	CutAfterFrames int
	// DropTailFrames silently swallows the last n frames before the cut
	// (Send succeeds, nothing is delivered) — the sent-but-unacknowledged
	// kernel-buffer tail a real connection loses when it dies. Only
	// meaningful together with CutAfterFrames.
	DropTailFrames int
}

func (r *ChaosRule) matches(addr string, dial int) bool {
	return (r.Addr == "" || r.Addr == addr) && (r.Dial < 0 || r.Dial == dial)
}

// ChaosStats is a snapshot of the faults a ChaosNetwork actually injected.
type ChaosStats struct {
	Refusals   int64 // dials failed by Refuse rules
	Cuts       int64 // connections broken by CutAfterFrames
	Corrupted  int64 // frames clobbered
	Truncated  int64 // frames delivered as a prefix
	Duplicated int64 // frames delivered twice
	Dropped    int64 // frames silently swallowed (cut tail)
	Delayed    int64 // frames delivered after added latency
}

type chaosCounters struct {
	refusals, cuts, corrupted, truncated, duplicated, dropped, delayed atomic.Int64
}

// Process-wide chaos telemetry (summed over all ChaosNetworks), so a chaos
// run's injected-fault counts land on /metrics next to the reconnect
// counters they provoke.
var (
	mChaosRefusals = obs.NewCounter("melissa_chaos_refusals_total",
		"Connection dials refused by the chaos plan.")
	mChaosCuts = obs.NewCounter("melissa_chaos_cuts_total",
		"Connections cut mid-stream by the chaos plan.")
	mChaosCorrupted = obs.NewCounter("melissa_chaos_corrupted_frames_total",
		"Frames clobbered by the chaos plan (rejected by the receiver's decoder).")
	mChaosTruncated = obs.NewCounter("melissa_chaos_truncated_frames_total",
		"Frames truncated by the chaos plan (partial writes).")
	mChaosDuplicated = obs.NewCounter("melissa_chaos_duplicated_frames_total",
		"Frames duplicated by the chaos plan.")
	mChaosDropped = obs.NewCounter("melissa_chaos_dropped_frames_total",
		"Frames silently swallowed by the chaos plan (lost cut tails).")
	mChaosDelayed = obs.NewCounter("melissa_chaos_delayed_frames_total",
		"Frames delivered late by the chaos plan's latency rules.")
)

// NewChaosNetwork wraps inner with the fault plan. A plan with no rules is a
// transparent pass-through.
func NewChaosNetwork(inner Network, plan ChaosPlan) *ChaosNetwork {
	return &ChaosNetwork{inner: inner, plan: plan, dials: make(map[string]int)}
}

// Stats returns the faults injected so far by this network.
func (n *ChaosNetwork) Stats() ChaosStats {
	return ChaosStats{
		Refusals:   n.stats.refusals.Load(),
		Cuts:       n.stats.cuts.Load(),
		Corrupted:  n.stats.corrupted.Load(),
		Truncated:  n.stats.truncated.Load(),
		Duplicated: n.stats.duplicated.Load(),
		Dropped:    n.stats.dropped.Load(),
		Delayed:    n.stats.delayed.Load(),
	}
}

// Listen passes through to the wrapped network: faults attach to dialed
// connections only.
func (n *ChaosNetwork) Listen(hint string) (Receiver, error) { return n.inner.Listen(hint) }

// Dial opens a connection and attaches the first matching chaos rule, if any.
func (n *ChaosNetwork) Dial(addr string) (Sender, error) {
	n.mu.Lock()
	ordinal := n.dials[addr]
	n.dials[addr] = ordinal + 1
	n.mu.Unlock()

	var rule *ChaosRule
	for i := range n.plan.Rules {
		if n.plan.Rules[i].matches(addr, ordinal) {
			rule = &n.plan.Rules[i]
			break
		}
	}
	if rule == nil {
		return n.inner.Dial(addr)
	}
	if rule.Refuse {
		n.stats.refusals.Add(1)
		mChaosRefusals.Inc()
		return nil, fmt.Errorf("chaos: dial %d to %s refused by plan", ordinal, addr)
	}
	s, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &chaosSender{
		inner: s,
		rule:  *rule,
		net:   n,
		rng:   rand.New(rand.NewSource(int64(chaosConnSeed(n.plan.Seed, addr, ordinal)))),
	}, nil
}

// chaosConnSeed mixes the plan seed with the connection identity so each
// connection draws an independent but reproducible random stream.
func chaosConnSeed(seed uint64, addr string, ordinal int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(seed >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(addr))
	for i := range b {
		b[i] = byte(uint64(ordinal) >> (8 * i))
	}
	h.Write(b[:])
	return h.Sum64()
}

type chaosSender struct {
	inner Sender
	rule  ChaosRule
	net   *ChaosNetwork

	mu     sync.Mutex
	rng    *rand.Rand
	frames int
	cut    bool
}

// Send passes the payload's reference on to the wrapped sender. It never
// writes into the payload — a held frame is shared with its holder, who may
// resend it — and a frame it swallows, or refuses on a cut connection, it
// recycles.
func (s *chaosSender) Send(payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cut {
		discard(payload)
		return fmt.Errorf("chaos: connection already cut: %w", ErrClosed)
	}
	r := &s.rule
	if r.CutAfterFrames > 0 && s.frames >= r.CutAfterFrames {
		s.cut = true
		s.net.stats.cuts.Add(1)
		mChaosCuts.Inc()
		discard(payload)
		return fmt.Errorf("chaos: connection cut after %d frames: %w", r.CutAfterFrames, ErrClosed)
	}
	s.frames++
	n := s.frames

	if r.Latency > 0 {
		jitter := time.Duration(s.rng.Int63n(int64(r.Latency)/4 + 1))
		time.Sleep(r.Latency + jitter)
		s.net.stats.delayed.Add(1)
		mChaosDelayed.Inc()
	}
	if r.CutAfterFrames > 0 && r.DropTailFrames > 0 && n > r.CutAfterFrames-r.DropTailFrames {
		// Within the doomed tail: accept the frame, deliver nothing.
		s.net.stats.dropped.Add(1)
		mChaosDropped.Inc()
		discard(payload)
		return nil
	}
	if n == r.CorruptFrame && len(payload) > 0 {
		// The damage goes into a private copy; the frame itself stays intact.
		bad := append(GetPayload(len(payload))[:0], payload...)
		discard(payload)
		bad[0] ^= 0x5A // type tag → unknown type, strict decode rejects
		for i := 0; i < 3 && len(bad) > 1; i++ {
			bad[1+s.rng.Intn(len(bad)-1)] ^= byte(1 + s.rng.Intn(255))
		}
		s.net.stats.corrupted.Add(1)
		mChaosCorrupted.Inc()
		return s.inner.Send(bad)
	}
	if n == r.TruncateFrame {
		s.net.stats.truncated.Add(1)
		mChaosTruncated.Inc()
		return s.inner.Send(payload[:len(payload)/2])
	}
	if n == r.DuplicateFrame {
		dup := append(GetPayload(len(payload))[:0], payload...)
		if err := s.inner.Send(payload); err != nil {
			return err
		}
		s.net.stats.duplicated.Add(1)
		mChaosDuplicated.Inc()
		return s.inner.Send(dup)
	}
	return s.inner.Send(payload)
}

// discard ends the reference a Send was handed without delivering it.
func discard(payload []byte) { Recycle(take(payload)) }

func (s *chaosSender) Close() error { return s.inner.Close() }
