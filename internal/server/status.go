package server

import (
	"math"
	"time"

	"melissa/internal/transport"
)

// Status is the live study snapshot served at /status: every end-of-run
// quantity of Result (wire stats, checkpoint stats, quantile memory,
// convergence width) mirrored from atomics and mutex-guarded state, so it is
// safe to assemble at scrape time while the fold pipeline runs at full
// speed. Maps owned by the inbox goroutines are never touched.
type Status struct {
	// Shape of the study.
	Cells     int `json:"cells"`
	Timesteps int `json:"timesteps"`
	P         int `json:"p"`
	Procs     int `json:"procs"`

	// Aggregate progress. Every process tracks groups independently, so the
	// aggregate takes the conservative view: a group counts as finished only
	// when the slowest process has finished it (min), and as running when any
	// process still sees it running (max).
	Messages       int64 `json:"messages"`
	Folds          int64 `json:"folds"`
	GroupsRunning  int64 `json:"groups_running"`
	GroupsFinished int64 `json:"groups_finished"`

	// MaxCIWidth is the worst published confidence-interval width across
	// processes: null until every process has completed a convergence scan,
	// and scans run only on demand — while reports carry the width
	// (Config.ConvergenceReports) or for two report intervals after a
	// snapshot or /metrics scrape asked. A first snapshot therefore reads
	// null and the next one a fresh value; after a pause in asking, the
	// value is the one last scanned.
	MaxCIWidth *float64 `json:"max_ci_width"`

	// Backpressure is the worst fold-queue occupancy fraction [0,1] across
	// processes.
	Backpressure float64 `json:"backpressure"`

	// Wire traffic and the compression ratio raw/wire (1 when the codec is
	// off or no traffic arrived yet).
	WireBytes        int64   `json:"wire_bytes"`
	RawBytes         int64   `json:"raw_bytes"`
	CompressionRatio float64 `json:"compression_ratio"`

	// Quantile sketch memory from the last completed telemetry scan.
	QuantileTuples      int64 `json:"quantile_tuples"`
	QuantileSketchBytes int64 `json:"quantile_sketch_bytes"`

	// Checkpoint pipeline counters (summed over processes).
	CheckpointWrites       int     `json:"checkpoint_writes"`
	CheckpointSkipped      int     `json:"checkpoint_skipped"`
	CheckpointStallSeconds float64 `json:"checkpoint_stall_seconds"`
	CheckpointWriteSeconds float64 `json:"checkpoint_write_seconds"`
	CheckpointBytes        int64   `json:"checkpoint_bytes"`

	// Payload pool balance (process-wide transport counters): buffers taken
	// vs returned, and live payload references.
	PoolOutstanding int64 `json:"pool_outstanding"`
	PoolRefsActive  int64 `json:"pool_refs_active"`

	// Durability is the durable-frontier protocol state: checkpoint
	// staleness and how far the fold frontiers run ahead of the last
	// committed checkpoint (the window a server crash would roll back).
	Durability DurabilityStatus `json:"durability"`

	// Per-process detail.
	ProcStatus []ProcStatus `json:"proc"`
}

// DurabilityStatus summarizes the durable frontier across processes.
type DurabilityStatus struct {
	// Enabled is false when the server runs without a checkpoint directory —
	// nothing ever becomes durable and clients fall back to fold-frontier
	// retention.
	Enabled bool `json:"enabled"`
	// MaxGapSteps is the worst per-group fold-vs-durable frontier gap across
	// processes (timesteps a crash right now would roll back).
	MaxGapSteps int64 `json:"max_gap_steps"`
	// OldestCheckpointAgeSeconds is the staleness of the least recently
	// committed per-process checkpoint (0 until every process committed one).
	OldestCheckpointAgeSeconds float64 `json:"oldest_checkpoint_age_seconds"`
	// Procs is the per-process detail.
	Procs []ProcDurability `json:"proc"`
}

// ProcDurability is one process's durability detail.
type ProcDurability struct {
	Rank int `json:"rank"`
	// DurableGroups counts groups with any durable fold state.
	DurableGroups int `json:"durable_groups"`
	// GapSteps is the worst per-group fold-vs-durable gap at the last
	// durability publish.
	GapSteps int64 `json:"gap_steps"`
	// CheckpointAgeSeconds is the time since this process's last committed
	// checkpoint (0 before the first commit).
	CheckpointAgeSeconds float64 `json:"checkpoint_age_seconds"`
}

// ProcStatus is one server process's slice of the snapshot.
type ProcStatus struct {
	Rank           int     `json:"rank"`
	CellLo         int     `json:"cell_lo"`
	CellHi         int     `json:"cell_hi"`
	FoldWorkers    int     `json:"fold_workers"`
	Messages       int64   `json:"messages"`
	Folds          int64   `json:"folds"`
	GroupsRunning  int64   `json:"groups_running"`
	GroupsFinished int64   `json:"groups_finished"`
	Backpressure   float64 `json:"backpressure"`
	// MaxCIWidth is null until a convergence scan was demanded and has
	// completed on this process (see Status.MaxCIWidth).
	MaxCIWidth     *float64 `json:"max_ci_width"`
	QuantileTuples int64    `json:"quantile_tuples"`
	SketchBytes    int64    `json:"quantile_sketch_bytes"`
}

// finiteOrNil maps the pre-first-scan +Inf sentinel to a JSON null (Inf is
// not representable in JSON).
func finiteOrNil(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

// Status assembles the live snapshot. Safe to call at any time, from any
// goroutine, including while ingest runs.
func (s *Server) Status() Status {
	st := Status{
		Cells:     s.cfg.Cells,
		Timesteps: s.cfg.Timesteps,
		P:         s.cfg.P,
		Procs:     len(s.procs),
	}
	worstCI := math.Inf(-1) // +Inf (→ null) while any process has no scan yet
	firstOwner := true
	now := time.Now()
	for _, p := range s.procs {
		p.fold.ask(now) // the answer is in the next snapshot
		w := p.fold.ciWidth()
		tuples, bytes := p.fold.sketchTelemetry()
		running, finished := p.route.groupCounts()
		wire := p.route.wireStats()
		ps := ProcStatus{
			Rank:           p.cfg.Rank,
			CellLo:         p.cfg.Partition.Lo,
			CellHi:         p.cfg.Partition.Hi,
			FoldWorkers:    p.FoldWorkers(),
			Messages:       wire.Messages,
			Folds:          p.Folds(),
			GroupsRunning:  running,
			GroupsFinished: finished,
			Backpressure:   p.fold.backpressure(),
			MaxCIWidth:     finiteOrNil(w),
			QuantileTuples: tuples,
			SketchBytes:    bytes,
		}
		st.ProcStatus = append(st.ProcStatus, ps)

		st.Messages += ps.Messages
		st.Folds += ps.Folds
		if p.cfg.Partition.Lo < p.cfg.Partition.Hi {
			if ps.GroupsRunning > st.GroupsRunning {
				st.GroupsRunning = ps.GroupsRunning
			}
			if firstOwner || ps.GroupsFinished < st.GroupsFinished {
				st.GroupsFinished = ps.GroupsFinished
			}
			firstOwner = false
		}
		if ps.Backpressure > st.Backpressure {
			st.Backpressure = ps.Backpressure
		}
		worstCI = max(worstCI, w)
		st.QuantileTuples += tuples
		st.QuantileSketchBytes += bytes
		st.WireBytes += wire.WireBytes
		st.RawBytes += wire.RawBytes

		ck := p.Checkpoints()
		st.CheckpointWrites += ck.Writes
		st.CheckpointSkipped += ck.Skipped
		st.CheckpointStallSeconds += ck.StallDuration.Seconds()
		st.CheckpointWriteSeconds += ck.WriteDuration.Seconds()
		st.CheckpointBytes += ck.BytesWritten
	}
	st.MaxCIWidth = finiteOrNil(worstCI)
	st.Durability = s.durabilityStatus()
	st.CompressionRatio = 1
	if st.WireBytes > 0 {
		st.CompressionRatio = float64(st.RawBytes) / float64(st.WireBytes)
	}
	pool := transport.ReadPoolStats()
	st.PoolOutstanding = pool.Outstanding()
	st.PoolRefsActive = pool.RefsActive()
	return st
}

// durabilityStatus assembles the durable-frontier snapshot. Reads only
// atomics and the mutex-guarded frontier, so it is scrape-safe mid-ingest.
func (s *Server) durabilityStatus() DurabilityStatus {
	d := DurabilityStatus{Enabled: s.cfg.CheckpointDir != ""}
	if !d.Enabled {
		return d
	}
	now := time.Now()
	for _, p := range s.procs {
		pd := ProcDurability{Rank: p.cfg.Rank}
		pd.CheckpointAgeSeconds, pd.DurableGroups, pd.GapSteps = p.ckpt.durability(now)
		d.Procs = append(d.Procs, pd)
		if pd.GapSteps > d.MaxGapSteps {
			d.MaxGapSteps = pd.GapSteps
		}
		if pd.CheckpointAgeSeconds > d.OldestCheckpointAgeSeconds {
			d.OldestCheckpointAgeSeconds = pd.CheckpointAgeSeconds
		}
	}
	return d
}
