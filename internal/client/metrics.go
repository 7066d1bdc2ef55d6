package client

import (
	"melissa/internal/obs"
)

// Client-side instrumentation: what the simulation groups are doing to the
// wire. The message and byte counters are process-wide sums of what
// Connection.WireStats reports per connection.
var (
	cMessages = obs.NewCounter("melissa_client_messages_total",
		"Stage-2 field messages sent to server processes.")
	cWireBytes = obs.NewCounter("melissa_client_wire_bytes_total",
		"Field payload bytes as put on the wire.")
	cRawBytes = obs.NewCounter("melissa_client_raw_bytes_total",
		"Bytes the same payloads cost in the uncompressed framing.")

	// Connection-resilience counters: how often groups had to reconnect,
	// what the resume handshake saved (pieces never resent) and what the
	// retention window had to replay.
	cReconnects = obs.NewCounter("melissa_client_reconnects_total",
		"Server connections re-established after a dial or send failure.")
	cResumeAcks = obs.NewCounter("melissa_client_resume_acks_total",
		"Resume handshakes answered by server processes (fold-frontier queries).")
	cResentFrames = obs.NewCounter("melissa_client_resent_frames_total",
		"Retained frames re-sent after a reconnect (the unacked window).")
	cSkippedPieces = obs.NewCounter("melissa_client_resume_skipped_pieces_total",
		"Route pieces a resumed attempt skipped because the server had already folded them.")
	cCkptReqs = obs.NewCounter("melissa_client_checkpoint_requests_total",
		"Early-checkpoint requests sent because retained-but-not-durable steps crossed the high-water mark (or a completion drain was waiting).")
)
