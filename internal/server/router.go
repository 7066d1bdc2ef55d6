package server

import (
	"fmt"
	"sync/atomic"
	"time"

	"melissa/internal/core"
	"melissa/internal/enc"
	olog "melissa/internal/obs/log"
	"melissa/internal/transport"
	"melissa/internal/wire"
)

// router is the inbox stage: it decodes control frames, parses bulk-message
// headers, validates shape once per message, filters replays against the
// group tracker and hands retained payloads to the fold pool. The tracker and
// the liveness clocks are owned by the run-loop goroutine and never locked;
// the counters are atomics other goroutines may read.
type router struct {
	cfg  *procConfig
	fold *foldPool
	ckpt *checkpointer

	tracker *core.GroupTracker
	// lastMsg is each group's liveness clock: the last frame that could
	// advance its contiguous fold frontier.
	lastMsg map[int]time.Time

	messages atomic.Int64 // bulk messages folded or discarded
	// Bytes of bulk payloads as received vs what the same content costs in
	// the raw framing.
	wireBytes, rawBytes atomic.Int64
	// Group progress mirrored out of the tracker at the commit sites, so
	// /status and the gauges can read it without touching the maps.
	running, finished atomic.Int64

	dropLim olog.Limiter
}

func newRouter(cfg *procConfig, fold *foldPool, ckpt *checkpointer) *router {
	return &router{
		cfg:     cfg,
		fold:    fold,
		ckpt:    ckpt,
		tracker: core.NewGroupTracker(cfg.Timesteps - 1),
		lastMsg: make(map[int]time.Time),
		dropLim: olog.Limiter{Interval: dropLogInterval},
	}
}

// adopt installs restored bookkeeping. It arms the liveness clock of every
// restored running group: that grants full grace for the reconnect storm
// after a server restart, and — crucially — makes a group that never comes
// back (its data rolled back past what it had drained) trip the group
// timeout so the launcher replays it instead of hanging the study.
func (r *router) adopt(tracker *core.GroupTracker, messages int64) {
	r.tracker = tracker
	r.messages.Store(messages)
	running := tracker.Running()
	r.running.Store(int64(len(running)))
	r.finished.Store(int64(len(tracker.Finished())))
	now := time.Now()
	for _, g := range running {
		r.lastMsg[g] = now
	}
}

// capture serializes the tracker into w and returns the message count and
// per-group fold frontiers — the router state a checkpoint begun now must
// carry.
func (r *router) capture(w *enc.Writer) (messages int64, frontiers map[int]int) {
	r.tracker.Encode(w)
	return r.messages.Load(), r.tracker.Frontiers()
}

func (r *router) frontiers() map[int]int { return r.tracker.Frontiers() }

// mergeInto folds this process's group states into dst (after the server
// stopped).
func (r *router) mergeInto(dst *core.GroupTracker) { dst.Merge(r.tracker) }

// groupCounts returns the running and finished group counts. Safe from any
// goroutine.
func (r *router) groupCounts() (running, finished int64) {
	return r.running.Load(), r.finished.Load()
}

// wireStats returns this process's bulk-message byte accounting. Safe from
// any goroutine.
func (r *router) wireStats() WireStats {
	return WireStats{Messages: r.messages.Load(), WireBytes: r.wireBytes.Load(), RawBytes: r.rawBytes.Load()}
}

// fillReport writes the bookkeeping lists of Sec. 4.2.2 into rep, reusing
// its slices: running and finished groups, plus any running group whose
// message gap exceeded the timeout.
func (r *router) fillReport(rep *wire.Report) {
	rep.Messages = r.messages.Load()
	rep.Running = r.tracker.AppendRunning(rep.Running)
	rep.Finished = r.tracker.AppendFinished(rep.Finished)
	rep.TimedOut = rep.TimedOut[:0]
	if r.cfg.GroupTimeout > 0 {
		cutoff := time.Now().Add(-r.cfg.GroupTimeout)
		for _, g := range rep.Running {
			if last, ok := r.lastMsg[g]; ok && last.Before(cutoff) {
				rep.TimedOut = append(rep.TimedOut, g)
			}
		}
	}
}

// dropFrame records one dropped frame: the counter is exact, the log line is
// rate-limited per offending group so a corruption flood cannot spam the log.
// kv carries the event-specific fields; the suppressed count since the last
// emitted line is appended when nonzero.
func (r *router) dropFrame(reason string, key uint64, kv ...any) {
	mDrops.With(reason).Inc()
	if ok, suppressed := r.dropLim.Allow(key); ok {
		kv = append(kv, "rank", r.cfg.Rank, "reason", reason)
		if suppressed > 0 {
			kv = append(kv, "suppressed", suppressed)
		}
		olog.Warnw("server.frame_drop", kv...)
	}
}

// dispatch routes one inbox payload. The bulk data types take the lazy-view
// path: the payload is retained, only its header is parsed here, and the
// float decoding happens on the shard workers (zero steady-state
// allocation, no inbox-side copy). Everything else takes the generic decode
// path, with the buffer recycled immediately. A Stop frame is returned to
// the run loop, which owns the stop flags.
func (r *router) dispatch(payload []byte) *wire.Stop {
	switch wire.PayloadType(payload) {
	case wire.TypeData, wire.TypeDataBatch, wire.TypeDataBatchC:
		r.handleBulk(payload)
		return nil
	}
	msg, err := wire.Decode(payload)
	transport.Recycle(payload)
	if err != nil {
		r.dropFrame("undecodable", dropKeyNoGroup, "err", err)
		return nil
	}
	switch m := msg.(type) {
	case *wire.Hello:
		r.handleHello(m)
	case *wire.Resume:
		r.handleResume(m)
	case *wire.CheckpointReq:
		// The group's retention ring crossed the durable high-water mark. A
		// group throttled by its own ring is alive and waiting on us.
		mCkptReqs.Inc()
		r.lastMsg[m.GroupID] = time.Now()
		r.ckpt.request()
	case *wire.Stop:
		return m
	case *wire.Heartbeat:
		// Clients may ping data endpoints; nothing to do.
	default:
		r.dropFrame("unexpected_type", dropKeyNoGroup, "type", fmt.Sprintf("%T", msg))
	}
	return nil
}

// reply dials a group's reply endpoint and sends it one message; failures
// are logged under the given event names and otherwise ignored (the group
// retries).
func (r *router) reply(addr string, group int, msg any, unreachableEvent, failedEvent string) {
	s, err := r.cfg.Network.Dial(addr)
	if err != nil {
		olog.Warnw(unreachableEvent, "rank", r.cfg.Rank, "group", group, "addr", addr, "err", err)
		return
	}
	defer s.Close()
	if err := s.Send(wire.Encode(msg)); err != nil {
		olog.Warnw(failedEvent, "rank", r.cfg.Rank, "group", group, "err", err)
	}
}

// handleHello implements the server side of the dynamic connection handshake
// (Sec. 4.1.3): process zero answers with the full layout so the group can
// open direct connections to every relevant server process.
func (r *router) handleHello(m *wire.Hello) {
	cfg := r.cfg
	if cfg.Rank != 0 {
		olog.Warnw("server.hello_misrouted", "rank", cfg.Rank, "group", m.GroupID)
		return
	}
	if olog.Default.Enabled(olog.Debug) {
		olog.Debugw("server.group_connect", "group", m.GroupID, "addr", m.ReplyAddr, "caps", m.Caps)
	}
	w := &wire.Welcome{
		Timesteps:  cfg.Timesteps,
		Cells:      cfg.Cells,
		P:          cfg.P,
		ServerAddr: cfg.AllAddrs,
		Partitions: cfg.Partitions,
		FoldShards: cfg.FoldShards,
	}
	// Grant a capability only when this server opted in AND the client
	// advertised it: either side lacking the codec keeps the raw format.
	if cfg.WireCodec {
		w.Caps = m.Caps & wire.CapWireCodec
	}
	// A resuming group gets this process's contiguous fold frontier so it can
	// skip recomputed-and-already-folded steps (the client queries the other
	// ranks' frontiers itself, over the direct connections it opens next).
	// The durable frontier rides along unconditionally: it tells the client
	// whether this server checkpoints at all, and up to which step retained
	// frames may be discarded.
	w.LastStep = -1
	if m.Resume {
		if last, ok := r.tracker.LastStep(m.GroupID); ok {
			w.LastStep = last
		}
	}
	w.DurableStep = r.ckpt.durableStep(m.GroupID)
	r.reply(m.ReplyAddr, m.GroupID, w, "server.group_unreachable", "server.welcome_failed")
}

// handleResume answers a resume query from a reconnecting group: any rank
// (not just process zero) reports its contiguous fold frontier, so the
// client resends only the unacked window on the re-established connection. A
// Resume without a reply address is a liveness ping — it refreshes the
// group's message clock (a resumed attempt recomputing already-folded steps
// produces no data traffic) and gets no reply.
func (r *router) handleResume(m *wire.Resume) {
	mResumes.Inc()
	r.lastMsg[m.GroupID] = time.Now()
	if m.ReplyAddr == "" {
		return
	}
	last, ok := r.tracker.LastStep(m.GroupID)
	if !ok {
		last = -1
	}
	if olog.Default.Enabled(olog.Debug) {
		olog.Debugw("server.group_resume", "rank", r.cfg.Rank, "group", m.GroupID, "last_step", last)
	}
	ack := &wire.ResumeAck{ProcRank: r.cfg.Rank, GroupID: m.GroupID,
		LastStep: last, DurableStep: r.ckpt.durableStep(m.GroupID)}
	r.reply(m.ReplyAddr, m.GroupID, ack, "server.resume_unreachable", "server.resume_ack_failed")
}

// handleBulk is the route stage for one Data/DataBatch/DataBatchC payload:
// parse the header view, validate the message shape once (field count,
// cell-range bounds — a malformed message is rejected with a single log
// line, not one per step), then route each applicable step to the fold pool,
// which does all float decoding. The payload is retained until every routed
// task has run.
func (r *router) handleBulk(payload []byte) {
	t0 := time.Now()
	m, err := parseBulk(payload)
	if err != nil {
		transport.Recycle(payload)
		r.dropFrame("undecodable", dropKeyNoGroup, "err", err)
		return
	}
	r.messages.Add(1)
	mMessages.Inc()
	r.wireBytes.Add(int64(len(payload)))
	mWireBytes.Add(int64(len(payload)))
	raw := m.rawBytes()
	r.rawBytes.Add(raw)
	mRawBytes.Add(raw)

	part := r.cfg.Partition
	switch {
	case m.fields != r.cfg.P+2:
		r.dropFrame("field_count", uint64(m.group),
			"group", m.group, "fields", m.fields, "want", r.cfg.P+2)
	case m.cellLo < part.Lo || m.cellHi > part.Hi:
		r.dropFrame("cell_bounds", uint64(m.group),
			"group", m.group, "lo", m.cellLo, "hi", m.cellHi,
			"part_lo", part.Lo, "part_hi", part.Hi)
	default:
		r.refreshClock(m, t0)
		for s := 0; s < m.steps; s++ {
			r.routeStep(m, s)
		}
	}
	r.fold.release(m) // the inbox's own reference
	mRouteSeconds.ObserveSince(t0)
}

// refreshClock advances the group's liveness clock only when the frame can
// touch the contiguous fold frontier (it carries some step ≤ frontier+1). A
// group whose frontier is stalled on a lost frame keeps streaming ahead-steps
// that fold fine, but those must not count as progress — the stall has to
// trip the group timeout so the launcher replays and the hole is filled.
// Well-formed traffic refreshes as before: in-order frames always carry the
// next frontier step, and a sim rank whose pieces feed a pending assembly
// carries steps at the frontier until the assembly completes.
func (r *router) refreshClock(m *bulkMsg, t0 time.Time) {
	next := 0
	if last, ok := r.tracker.LastStep(m.group); ok {
		next = last + 1
	}
	for s := 0; s < m.steps; s++ {
		if m.stepTimestep(s) <= next {
			r.lastMsg[m.group] = t0
			return
		}
	}
}

// routeStep applies the admission rules to one (piece, timestep) of a bulk
// message — timestep range, and the discard-on-replay policy (Sec. 4.2.1)
// that drops steps whose (group, timestep) was already committed — then
// hands it to the fold pool and commits the (group, timestep) the piece
// completed.
func (r *router) routeStep(m *bulkMsg, s int) {
	group, step := m.group, m.stepTimestep(s)
	if step < 0 || step >= r.cfg.Timesteps {
		// Out-of-range timesteps would panic the accumulator on a worker
		// goroutine; reject them here with the rest of the shape checks.
		r.dropFrame("timestep_range", uint64(group),
			"group", group, "timestep", step, "timesteps", r.cfg.Timesteps)
		return
	}
	if !r.tracker.ShouldApply(group, step) {
		return // replayed message after a group restart
	}
	if !r.fold.route(m, s) {
		return
	}
	// tracker.Commit plus the live status mirror. Group completion is a study
	// lifecycle event (Sec. 4.2.2's "finished" list) — logged at Debug here
	// because every process sees it; the launcher owns the Info-level event.
	before := r.tracker.State(group)
	r.tracker.Commit(group, step)
	after := r.tracker.State(group)
	if after == before {
		return
	}
	if before == core.GroupUnknown {
		r.running.Add(1)
	}
	if after == core.GroupFinished {
		r.running.Add(-1)
		r.finished.Add(1)
		if olog.Default.Enabled(olog.Debug) {
			olog.Debugw("server.group_complete", "rank", r.cfg.Rank, "group", group)
		}
	}
}
