// Package wire defines the binary message protocol spoken between the
// Melissa clients (simulation groups), the parallel server and the launcher.
// It is the Go analogue of the message layer the paper builds on ZeroMQ
// (Sec. 4.1.3): a handful of small control messages plus the bulk Data
// message carrying the p+2 fields of one group for one timestep and one
// cell range.
//
// Every message is a one-byte type tag followed by a type-specific payload
// encoded with the enc codec. Decoding is strict: trailing bytes or
// truncated payloads are errors.
package wire

import (
	"fmt"

	"melissa/internal/enc"
	"melissa/internal/mesh"
)

// MsgType tags a wire message.
type MsgType uint8

// Message types.
const (
	// TypeHello announces a simulation group to the server main process.
	TypeHello MsgType = iota + 1
	// TypeWelcome answers a Hello with the server layout (dynamic
	// connection handshake of Sec. 4.1.3).
	TypeWelcome
	// TypeData carries simulation results: one group, one timestep, one
	// cell range, all p+2 simulations.
	TypeData
	// TypeHeartbeat is a liveness beacon (server process → launcher).
	TypeHeartbeat
	// TypeReport carries a server process's group bookkeeping to the
	// launcher (Sec. 4.2.2) plus convergence information (Sec. 4.1.5).
	TypeReport
	// TypeStop asks a server process to checkpoint (if configured) and exit.
	TypeStop
	// TypeDataBatch carries several timesteps of one group for one cell
	// range in a single message, cutting per-message framing and syscall
	// overhead on the simulation→server hot path.
	TypeDataBatch
	// TypeDataBatchC is the compressed form of TypeDataBatch (codecframe.go):
	// the same timesteps and cell range, with the float payload delta-XOR'd
	// and entropy-coded per shard-aligned cell sub-range. Only sent after
	// both sides advertised CapWireCodec in the Hello/Welcome exchange.
	TypeDataBatchC
	// TypeResume is a group → server-process query on a fresh connection:
	// "what is the last contiguous timestep you folded for my group?". The
	// addressed process dials ReplyAddr back with a ResumeAck. An empty
	// ReplyAddr turns the message into a pure liveness ping (it refreshes
	// the server's per-group message clock without requesting an answer),
	// which a resuming group emits while it recomputes already-folded steps
	// it will never resend.
	TypeResume
	// TypeResumeAck answers a Resume with the process's contiguous fold
	// frontier for the group; the reconnecting client resends only the
	// retained steps after LastStep.
	TypeResumeAck
	// TypeCheckpointReq is a client → server-process nudge: "my retention
	// ring for your rank is filling with acked-but-not-durable frames —
	// please checkpoint soon so the durable frontier advances". It is
	// fire-and-forget advice, never an ingest blocker: the process folds it
	// into its next run-loop pass and starts an early (skippable) checkpoint.
	TypeCheckpointReq
)

// Capability bits exchanged in Hello.Caps/Welcome.Caps. A capability takes
// effect only when both sides advertise it, so a peer built (or configured)
// without it transparently falls back to the raw wire format.
const (
	// CapWireCodec: the peer can produce/consume TypeDataBatchC frames.
	CapWireCodec uint32 = 1 << 0
)

// Hello announces a new simulation group. ReplyAddr is an address the
// server dials back to deliver the Welcome. Caps carries the capability
// bitmask the client supports (always its full capability set — whether a
// capability is *used* is decided by the server's answer).
type Hello struct {
	GroupID   int
	SimRanks  int // parallel ranks per simulation (N of the N×M pattern)
	ReplyAddr string
	Caps      uint32
	// Resume marks a re-connection of a group that may already have folded
	// data on the server (a retried dial or a restarted attempt). The server
	// then fills Welcome.LastStep so the group can skip resending what is
	// already folded.
	Resume bool
}

// Welcome describes the server layout to a freshly connected group: the
// address and cell partition of every server process, plus the study shape
// the client must conform to. Caps echoes the subset of the client's
// capabilities the server accepts; a bit set here is a contract that the
// server understands the corresponding frames. FoldShards carries each
// server process's fold-worker shard count so codec-enabled clients can cut
// their compressed payloads on shard boundaries (each fold worker then
// decompresses exactly its own block); it is advisory — misaligned cuts
// still decode, they just cost a worker a neighbouring block.
type Welcome struct {
	Timesteps  int
	Cells      int
	P          int
	ServerAddr []string
	Partitions []mesh.Partition
	Caps       uint32
	FoldShards []int
	// LastStep is the answering process's (rank 0's) last contiguous folded
	// timestep for the group, or -1 when nothing was folded or the Hello did
	// not set Resume. Other ranks are queried individually with Resume
	// messages; rank 0's answer rides along in the handshake for free.
	LastStep int
	// DurableStep is rank 0's durable frontier for the group: the last
	// contiguous timestep whose fold state survived a checkpoint Commit
	// (fsync + atomic rename). -1 when nothing is durable yet,
	// NoDurability when the server runs without checkpointing — then the
	// client must fall back to treating the fold frontier as final, since
	// a restarted server would have no state to resume from anyway.
	DurableStep int
}

// NoDurability in Welcome.DurableStep/ResumeAck.DurableStep marks a server
// running without a checkpoint directory: no frontier is ever durable and
// clients should not retain frames past the fold ack (a crashed server
// loses everything regardless).
const NoDurability = -2

// Data is the bulk payload: the fields of all p+2 simulations of one group
// restricted to [CellLo, CellHi), at one timestep. Fields[0] is f(A_i),
// Fields[1] is f(B_i), Fields[2+k] is f(C^k_i).
type Data struct {
	GroupID  int
	Timestep int
	CellLo   int
	CellHi   int
	Fields   [][]float64
}

// DataStep is one timestep's worth of fields inside a DataBatch.
type DataStep struct {
	Timestep int
	Fields   [][]float64
}

// DataBatch carries several consecutive timesteps of one group restricted
// to [CellLo, CellHi): the batched form of Data. Batching amortizes the
// per-message overhead (type tag, framing, channel/syscall round trips)
// across Steps, which matters once simulations emit faster than the
// transport can frame individual messages.
type DataBatch struct {
	GroupID int
	CellLo  int
	CellHi  int
	Steps   []DataStep
}

// Heartbeat is a liveness beacon.
type Heartbeat struct {
	// Sender identifies the beating process, e.g. "server-3".
	Sender string
	// TimeMillis is the sender's clock (for launcher-side staleness checks).
	TimeMillis int64
	// Epoch is the server incarnation that emitted this beacon. The launcher
	// bumps the epoch on every server (re)start and discards beacons from
	// earlier incarnations, so a dying server's backlog cannot refresh the
	// liveness clock of its replacement.
	Epoch int
}

// Report is the periodic server→launcher status message: which groups this
// server process believes are running or finished, and how converged the
// statistics are.
type Report struct {
	ProcRank int
	// Running and Finished are group ids as tracked by core.GroupTracker.
	Running  []int
	Finished []int
	// TimedOut lists running groups whose inter-message gap exceeded the
	// server's group timeout (Sec. 4.2.2, unfinished-group detection); the
	// launcher kills and restarts them.
	TimedOut []int
	// MaxCIWidth is the widest 95% confidence interval across all indices
	// (+Inf encoded as math.Inf). Used for convergence control.
	MaxCIWidth float64
	// Messages is the total number of data messages folded so far.
	Messages int64
	// Backpressure is the occupancy fraction [0, 1] of the sender's
	// fold-pipeline work queues at report time: a monitoring gauge the
	// launcher republishes on /status. Flow control does not read it; the
	// transport's bounded buffers suspend the simulations on their own.
	Backpressure float64
	// Epoch is the server incarnation that produced this report. A stopping
	// server keeps folding its inbound backlog (and keeps reporting) for a
	// short drain window; after a crash+restart those trailing reports can
	// claim groups finished whose folds were rolled back to the durable
	// frontier. The launcher only applies reports whose epoch matches the
	// current incarnation.
	Epoch int
	// TupleCount and SketchBytes are the sender's live quantile-sketch
	// telemetry (retained GK tuples and their byte estimate, summed over
	// cells and timesteps, from the last completed worker scan) — the memory
	// quantity a future sketch-resizing governor steers on. Zero when
	// quantiles are disabled or no scan has completed yet.
	TupleCount  int64
	SketchBytes int64
}

// Stop asks a server process to shut down cleanly.
type Stop struct {
	// Checkpoint requests a final checkpoint before exiting.
	Checkpoint bool
}

// Resume asks one server process for its fold frontier of a group (see
// TypeResume). With an empty ReplyAddr it is a liveness ping only.
type Resume struct {
	GroupID   int
	ReplyAddr string
}

// ResumeAck answers a Resume: LastStep is the process's last contiguous
// folded timestep for the group, -1 if it never folded anything.
// DurableStep is the process's durable frontier for the group — the last
// contiguous timestep committed by a checkpoint (NoDurability when the
// process runs without checkpointing). A reconnecting client resends from
// LastStep+1 but may only discard retained frames at or below DurableStep:
// after a server crash the restored fold frontier rolls back exactly to the
// durable one.
type ResumeAck struct {
	ProcRank    int
	GroupID     int
	LastStep    int
	DurableStep int
}

// CheckpointReq asks one server process for an early checkpoint (see
// TypeCheckpointReq). GroupID identifies the requesting group for logging
// and liveness accounting only; the resulting checkpoint covers the whole
// process state as usual.
type CheckpointReq struct {
	GroupID int
}

// Encode serializes any supported message with its type tag into a fresh
// buffer. Hot paths should prefer EncodeTo with a pooled enc.Writer.
func Encode(msg any) []byte {
	w := enc.NewWriter(encodedSizeHint(msg))
	EncodeTo(w, msg)
	return w.Bytes()
}

// encodedSizeHint returns a capacity that avoids regrowth for the bulk
// messages (their exact size models live below); small control messages
// just use a small default.
func encodedSizeHint(msg any) int {
	switch m := msg.(type) {
	case *Data:
		return int(DataSizeBytes(len(m.Fields), m.CellHi-m.CellLo))
	case *DataBatch:
		fields := 0
		if len(m.Steps) > 0 {
			fields = len(m.Steps[0].Fields)
		}
		return int(DataBatchSizeBytes(len(m.Steps), fields, m.CellHi-m.CellLo))
	default:
		return 64
	}
}

// EncodeTo serializes any supported message with its type tag, appending to
// w. Callers that encode per-timestep messages should obtain w from
// enc.GetWriter and release it after the transport copied the payload.
func EncodeTo(w *enc.Writer, msg any) {
	switch m := msg.(type) {
	case *Hello:
		w.U8(uint8(TypeHello))
		w.Int(m.GroupID)
		w.Int(m.SimRanks)
		w.String(m.ReplyAddr)
		w.U32(m.Caps)
		w.Bool(m.Resume)
	case *Welcome:
		w.U8(uint8(TypeWelcome))
		w.Int(m.Timesteps)
		w.Int(m.Cells)
		w.Int(m.P)
		w.U32(uint32(len(m.ServerAddr)))
		for _, a := range m.ServerAddr {
			w.String(a)
		}
		w.U32(uint32(len(m.Partitions)))
		for _, p := range m.Partitions {
			w.Int(p.Lo)
			w.Int(p.Hi)
		}
		w.U32(m.Caps)
		w.U32(uint32(len(m.FoldShards)))
		for _, s := range m.FoldShards {
			w.Int(s)
		}
		w.Int(m.LastStep)
		w.Int(m.DurableStep)
	case *Data:
		w.U8(uint8(TypeData))
		w.Int(m.GroupID)
		w.Int(m.Timestep)
		w.Int(m.CellLo)
		w.Int(m.CellHi)
		w.U32(uint32(len(m.Fields)))
		for _, f := range m.Fields {
			w.F64Slice(f)
		}
	case *DataBatch:
		w.U8(uint8(TypeDataBatch))
		w.Int(m.GroupID)
		w.Int(m.CellLo)
		w.Int(m.CellHi)
		w.U32(uint32(len(m.Steps)))
		for _, st := range m.Steps {
			w.Int(st.Timestep)
			w.U32(uint32(len(st.Fields)))
			for _, f := range st.Fields {
				w.F64Slice(f)
			}
		}
	case *Heartbeat:
		w.U8(uint8(TypeHeartbeat))
		w.String(m.Sender)
		w.I64(m.TimeMillis)
		w.Int(m.Epoch)
	case *Report:
		w.U8(uint8(TypeReport))
		w.Int(m.ProcRank)
		w.U32(uint32(len(m.Running)))
		for _, g := range m.Running {
			w.Int(g)
		}
		w.U32(uint32(len(m.Finished)))
		for _, g := range m.Finished {
			w.Int(g)
		}
		w.U32(uint32(len(m.TimedOut)))
		for _, g := range m.TimedOut {
			w.Int(g)
		}
		w.F64(m.MaxCIWidth)
		w.I64(m.Messages)
		w.F64(m.Backpressure)
		w.I64(m.TupleCount)
		w.I64(m.SketchBytes)
		w.Int(m.Epoch)
	case *Stop:
		w.U8(uint8(TypeStop))
		w.Bool(m.Checkpoint)
	case *Resume:
		w.U8(uint8(TypeResume))
		w.Int(m.GroupID)
		w.String(m.ReplyAddr)
	case *ResumeAck:
		w.U8(uint8(TypeResumeAck))
		w.Int(m.ProcRank)
		w.Int(m.GroupID)
		w.Int(m.LastStep)
		w.Int(m.DurableStep)
	case *CheckpointReq:
		w.U8(uint8(TypeCheckpointReq))
		w.Int(m.GroupID)
	default:
		panic(fmt.Sprintf("wire: cannot encode %T", msg))
	}
}

// Decode parses a wire payload into one of the message structs.
func Decode(payload []byte) (any, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("wire: empty message")
	}
	r := enc.NewReader(payload)
	typ := MsgType(r.U8())
	var msg any
	switch typ {
	case TypeHello:
		m := &Hello{}
		m.GroupID = r.Int()
		m.SimRanks = r.Int()
		m.ReplyAddr = r.String()
		m.Caps = r.U32()
		m.Resume = r.Bool()
		msg = m
	case TypeWelcome:
		m := &Welcome{}
		m.Timesteps = r.Int()
		m.Cells = r.Int()
		m.P = r.Int()
		na := int(r.U32())
		if r.Err() == nil && na >= 0 && na < 1<<20 {
			m.ServerAddr = make([]string, na)
			for i := range m.ServerAddr {
				m.ServerAddr[i] = r.String()
			}
		}
		np := int(r.U32())
		if r.Err() == nil && np >= 0 && np < 1<<20 {
			m.Partitions = make([]mesh.Partition, np)
			for i := range m.Partitions {
				m.Partitions[i].Lo = r.Int()
				m.Partitions[i].Hi = r.Int()
			}
		}
		m.Caps = r.U32()
		nw := int(r.U32())
		if r.Err() == nil && nw > 0 && nw < 1<<20 {
			m.FoldShards = make([]int, nw)
			for i := range m.FoldShards {
				m.FoldShards[i] = r.Int()
			}
		}
		m.LastStep = r.Int()
		m.DurableStep = r.Int()
		msg = m
	case TypeData:
		m := &Data{}
		m.GroupID = r.Int()
		m.Timestep = r.Int()
		m.CellLo = r.Int()
		m.CellHi = r.Int()
		nf := int(r.U32())
		if r.Err() == nil && nf >= 0 && nf < 1<<16 {
			m.Fields = make([][]float64, nf)
			for i := range m.Fields {
				m.Fields[i] = r.F64Slice()
			}
		}
		msg = m
	case TypeDataBatch:
		m := &DataBatch{}
		m.GroupID = r.Int()
		m.CellLo = r.Int()
		m.CellHi = r.Int()
		ns := int(r.U32())
		if r.Err() == nil && ns >= 0 && ns < 1<<20 {
			m.Steps = make([]DataStep, ns)
			for i := range m.Steps {
				m.Steps[i].Timestep = r.Int()
				nf := int(r.U32())
				if r.Err() != nil || nf < 0 || nf >= 1<<16 {
					break
				}
				m.Steps[i].Fields = make([][]float64, nf)
				for f := range m.Steps[i].Fields {
					m.Steps[i].Fields[f] = r.F64Slice()
				}
			}
		}
		msg = m
	case TypeDataBatchC:
		// The compressed frame has its own parser (the reader-based decode
		// cannot express the patched range table); delegate and skip the
		// trailing-bytes epilogue, which DataBatchCView already enforces.
		return DecodeDataBatchC(payload)
	case TypeHeartbeat:
		m := &Heartbeat{}
		m.Sender = r.String()
		m.TimeMillis = r.I64()
		m.Epoch = r.Int()
		msg = m
	case TypeReport:
		m := &Report{}
		m.ProcRank = r.Int()
		nr := int(r.U32())
		if r.Err() == nil && nr > 0 && nr < 1<<24 {
			m.Running = make([]int, nr)
			for i := range m.Running {
				m.Running[i] = r.Int()
			}
		}
		nf := int(r.U32())
		if r.Err() == nil && nf > 0 && nf < 1<<24 {
			m.Finished = make([]int, nf)
			for i := range m.Finished {
				m.Finished[i] = r.Int()
			}
		}
		nt := int(r.U32())
		if r.Err() == nil && nt > 0 && nt < 1<<24 {
			m.TimedOut = make([]int, nt)
			for i := range m.TimedOut {
				m.TimedOut[i] = r.Int()
			}
		}
		m.MaxCIWidth = r.F64()
		m.Messages = r.I64()
		m.Backpressure = r.F64()
		m.TupleCount = r.I64()
		m.SketchBytes = r.I64()
		m.Epoch = r.Int()
		msg = m
	case TypeStop:
		m := &Stop{}
		m.Checkpoint = r.Bool()
		msg = m
	case TypeResume:
		m := &Resume{}
		m.GroupID = r.Int()
		m.ReplyAddr = r.String()
		msg = m
	case TypeResumeAck:
		m := &ResumeAck{}
		m.ProcRank = r.Int()
		m.GroupID = r.Int()
		m.LastStep = r.Int()
		m.DurableStep = r.Int()
		msg = m
	case TypeCheckpointReq:
		m := &CheckpointReq{}
		m.GroupID = r.Int()
		msg = m
	default:
		return nil, fmt.Errorf("wire: unknown message type %d", typ)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("wire: decoding %d: %w", typ, err)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after message type %d", r.Remaining(), typ)
	}
	return msg, nil
}

// PayloadType peeks at the type tag of an encoded message without decoding
// it, so receivers can route bulk payloads to scratch-reusing decoders.
func PayloadType(payload []byte) MsgType {
	if len(payload) == 0 {
		return 0
	}
	return MsgType(payload[0])
}

// DecodeDataInto decodes a TypeData payload into m, reusing m's field
// storage when capacities allow. Steady-state decoding of same-shaped data
// messages allocates nothing.
func DecodeDataInto(payload []byte, m *Data) error {
	r := enc.NewReader(payload)
	if typ := MsgType(r.U8()); typ != TypeData {
		return fmt.Errorf("wire: DecodeDataInto on message type %d", typ)
	}
	m.GroupID = r.Int()
	m.Timestep = r.Int()
	m.CellLo = r.Int()
	m.CellHi = r.Int()
	nf := int(r.U32())
	if err := r.Err(); err != nil {
		return fmt.Errorf("wire: decoding %d: %w", TypeData, err)
	}
	if nf < 0 || nf >= 1<<16 {
		return fmt.Errorf("wire: data message with %d fields", nf)
	}
	m.Fields = growFields(m.Fields, nf)
	for i := range m.Fields {
		m.Fields[i] = r.F64SliceReuse(m.Fields[i])
	}
	return finishDecode(r, TypeData)
}

// DecodeDataBatchInto decodes a TypeDataBatch payload into m, reusing the
// step and field storage when capacities allow.
func DecodeDataBatchInto(payload []byte, m *DataBatch) error {
	r := enc.NewReader(payload)
	if typ := MsgType(r.U8()); typ != TypeDataBatch {
		return fmt.Errorf("wire: DecodeDataBatchInto on message type %d", typ)
	}
	m.GroupID = r.Int()
	m.CellLo = r.Int()
	m.CellHi = r.Int()
	ns := int(r.U32())
	if err := r.Err(); err != nil {
		return fmt.Errorf("wire: decoding %d: %w", TypeDataBatch, err)
	}
	if ns < 0 || ns >= 1<<20 {
		return fmt.Errorf("wire: data batch with %d steps", ns)
	}
	if cap(m.Steps) < ns {
		steps := make([]DataStep, ns)
		copy(steps, m.Steps)
		m.Steps = steps
	} else {
		m.Steps = m.Steps[:ns]
	}
	for i := range m.Steps {
		st := &m.Steps[i]
		st.Timestep = r.Int()
		nf := int(r.U32())
		if err := r.Err(); err != nil {
			return fmt.Errorf("wire: decoding %d: %w", TypeDataBatch, err)
		}
		if nf < 0 || nf >= 1<<16 {
			return fmt.Errorf("wire: data batch step with %d fields", nf)
		}
		st.Fields = growFields(st.Fields, nf)
		for f := range st.Fields {
			st.Fields[f] = r.F64SliceReuse(st.Fields[f])
		}
	}
	return finishDecode(r, TypeDataBatch)
}

func growFields(fields [][]float64, n int) [][]float64 {
	if cap(fields) < n {
		grown := make([][]float64, n)
		copy(grown, fields)
		return grown
	}
	return fields[:n]
}

func finishDecode(r *enc.Reader, typ MsgType) error {
	if err := r.Err(); err != nil {
		return fmt.Errorf("wire: decoding %d: %w", typ, err)
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("wire: %d trailing bytes after message type %d", r.Remaining(), typ)
	}
	return nil
}

// DataSizeBytes returns the encoded size of a Data message carrying `fields`
// fields of `cells` cells — the quantity the performance model uses for
// bandwidth accounting.
func DataSizeBytes(fields, cells int) int64 {
	return 1 + 4*8 + 4 + int64(fields)*(8+8*int64(cells))
}

// DataBatchSizeBytes returns the encoded size of a DataBatch carrying
// `steps` timesteps of `fields` fields over `cells` cells.
func DataBatchSizeBytes(steps, fields, cells int) int64 {
	return 1 + 3*8 + 4 + int64(steps)*(8+4+int64(fields)*(8+8*int64(cells)))
}
