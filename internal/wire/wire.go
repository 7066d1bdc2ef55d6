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
	"encoding/binary"
	"fmt"

	"melissa/internal/codec"
	"melissa/internal/enc"
	"melissa/internal/mesh"
)

// MsgType tags a wire message.
type MsgType uint8

// Message types; each value is the message's one-byte wire tag. Tags 4 and
// 6 are reserved: they carried the server → launcher heartbeat, which the
// periodic Report replaced, and a stop request, which no frame may make
// now. Decode rejects them as unknown types.
const (
	// TypeHello announces a simulation group to the server main process.
	TypeHello MsgType = 1
	// TypeWelcome answers a Hello with the server layout (dynamic
	// connection handshake of Sec. 4.1.3).
	TypeWelcome MsgType = 2
	// TypeData carries simulation results: one group, one timestep, one
	// cell range, all p+2 simulations.
	TypeData MsgType = 3
	// TypeReport carries a server process's group bookkeeping to the
	// launcher (Sec. 4.2.2) plus convergence information (Sec. 4.1.5).
	TypeReport MsgType = 5
	// TypeDataBatch carries several timesteps of one group for one cell
	// range in a single message, cutting per-message framing and syscall
	// overhead on the simulation→server hot path.
	TypeDataBatch MsgType = 7
	// TypeDataBatchC is the compressed form of TypeDataBatch (codecframe.go):
	// the same timesteps and cell range, with the float payload delta-XOR'd
	// and entropy-coded per shard-aligned cell sub-range. Only sent after
	// both sides advertised CapWireCodec in the Hello/Welcome exchange.
	TypeDataBatchC MsgType = 8
	// TypeResume is a group → server-process query on a fresh connection:
	// "what is the last contiguous timestep you folded for my group?". The
	// addressed process dials ReplyAddr back with a ResumeAck. An empty
	// ReplyAddr turns the message into a pure liveness ping (it refreshes
	// the server's per-group message clock without requesting an answer),
	// which a resuming group emits while it recomputes already-folded steps
	// it will never resend.
	TypeResume MsgType = 9
	// TypeResumeAck answers a Resume with the process's contiguous fold
	// frontier for the group; the reconnecting client resends only the
	// retained steps after LastStep.
	TypeResumeAck MsgType = 10
	// TypeCheckpointReq is a client → server-process nudge: "my retention
	// ring for your rank is filling with acked-but-not-durable frames —
	// please checkpoint soon so the durable frontier advances". It is
	// fire-and-forget advice, never an ingest blocker: the process folds it
	// into its next run-loop pass and starts an early (skippable) checkpoint.
	TypeCheckpointReq MsgType = 11
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
	// Epoch is the server incarnation that produced this report. After a
	// crash+restart, the dead incarnation's final report and any of its
	// reports still queued at the launcher can claim groups finished whose
	// folds were rolled back to the durable frontier. The launcher only
	// applies reports whose epoch matches the current incarnation, and
	// counts each one it applies as a heartbeat.
	Epoch int
	// TupleCount and SketchBytes are the sender's live quantile-sketch
	// telemetry (retained GK tuples and their byte estimate, summed over
	// cells and timesteps, from the last completed worker scan) — the memory
	// quantity a future sketch-resizing governor steers on. Zero when
	// quantiles are disabled or no scan has completed yet.
	TupleCount  int64
	SketchBytes int64
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
// buffer. Bulk frames bound for Send are laid out in a transport buffer
// instead (EncodeTo, AppendFieldSlot).
func Encode(msg any) []byte {
	w := enc.NewWriter(64)
	EncodeTo(w, msg)
	return w.Bytes()
}

// EncodeTo serializes any supported message with its type tag, appending to
// w. A per-timestep frame bound for Send is encoded straight into a
// transport buffer (enc.Writer.ResetTo), which Send then takes.
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
		AppendDataHead(w, m.GroupID, m.Timestep, m.CellLo, m.CellHi, len(m.Fields))
		for _, f := range m.Fields {
			putField(w, f)
		}
	case *DataBatch:
		AppendBatchHead(w, m.GroupID, m.CellLo, m.CellHi, len(m.Steps))
		for _, st := range m.Steps {
			AppendStepHead(w, st.Timestep, len(st.Fields))
			for _, f := range st.Fields {
				putField(w, f)
			}
		}
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

// The raw bulk frames are laid out by the calls below and nothing else.
// EncodeTo fills each field slot as it appends it; a sender whose group
// members write their own fields (client.Connection) appends the heads and
// slots first and has each member fill its slots later. A frame that grows
// a step at a time heads its batch with 0 steps and sets the count last.

// AppendDataHead appends the head of a Data frame carrying nf fields.
func AppendDataHead(w *enc.Writer, group, step, lo, hi, nf int) {
	w.U8(uint8(TypeData))
	w.Int(group)
	w.Int(step)
	w.Int(lo)
	w.Int(hi)
	w.U32(uint32(nf))
	w.Raw(zeroPad[:dataPad])
}

// AppendBatchHead appends the head of a DataBatch frame carrying ns steps.
func AppendBatchHead(w *enc.Writer, group, lo, hi, ns int) {
	w.U8(uint8(TypeDataBatch))
	w.Int(group)
	w.Int(lo)
	w.Int(hi)
	w.U32(uint32(ns))
	w.Raw(zeroPad[:dataPad])
}

// SetBatchSteps sets the step count in the head of DataBatch frame b.
func SetBatchSteps(b []byte, ns int) {
	binary.LittleEndian.PutUint32(b[batchStepsOff:], uint32(ns))
}

// AppendStepHead appends the head of one DataBatch step carrying nf fields.
func AppendStepHead(w *enc.Writer, step, nf int) {
	w.Int(step)
	w.U32(uint32(nf))
	w.Raw(zeroPad[:stepPad])
}

// AppendFieldSlot appends a field's length prefix for n floats and room for
// them, and returns the room's byte offset (8-byte aligned in an aligned
// frame).
func AppendFieldSlot(w *enc.Writer, n int) int {
	w.U64(uint64(n))
	off := w.Len()
	w.Extend(8 * n)
	return off
}

// putField appends a slot for field f and fills it.
func putField(w *enc.Writer, f []float64) {
	off := AppendFieldSlot(w, len(f))
	enc.PutF64s(w.Bytes()[off:], f)
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
		if na := count(r, 4); r.Err() == nil {
			m.ServerAddr = make([]string, na)
			for i := range m.ServerAddr {
				m.ServerAddr[i] = r.String()
			}
		}
		if np := count(r, 16); r.Err() == nil {
			m.Partitions = make([]mesh.Partition, np)
			for i := range m.Partitions {
				m.Partitions[i].Lo = r.Int()
				m.Partitions[i].Hi = r.Int()
			}
		}
		m.Caps = r.U32()
		if nw := count(r, 8); nw > 0 {
			m.FoldShards = make([]int, nw)
			for i := range m.FoldShards {
				m.FoldShards[i] = r.Int()
			}
		}
		m.LastStep = r.Int()
		m.DurableStep = r.Int()
		msg = m
	case TypeData, TypeDataBatch, TypeDataBatchC:
		return decodeBulk(payload, typ)
	case TypeReport:
		m := &Report{}
		m.ProcRank = r.Int()
		if nr := count(r, 8); nr > 0 {
			m.Running = make([]int, nr)
			for i := range m.Running {
				m.Running[i] = r.Int()
			}
		}
		if nf := count(r, 8); nf > 0 {
			m.Finished = make([]int, nf)
			for i := range m.Finished {
				m.Finished[i] = r.Int()
			}
		}
		if nt := count(r, 8); nt > 0 {
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

// count reads a U32 element count whose elements encode to at least minSize
// bytes each. A count the unread payload cannot hold fails r before the
// caller allocates for it, so a frame's allocation is bounded by its size;
// on failure count returns 0.
func count(r *enc.Reader, minSize int) int {
	n := int(r.U32())
	if r.Err() == nil && n > r.Remaining()/minSize {
		r.Fail(fmt.Errorf("count %d exceeds the %d bytes left", n, r.Remaining()))
	}
	if r.Err() != nil {
		return 0
	}
	return n
}

// PayloadType peeks at the type tag of an encoded message without decoding
// it, so receivers can route bulk payloads to scratch-reusing decoders.
func PayloadType(payload []byte) MsgType {
	if len(payload) == 0 {
		return 0
	}
	return MsgType(payload[0])
}

// DataSizeBytes returns the encoded size of a Data message carrying `fields`
// fields of `cells` cells — the quantity the performance model uses for
// bandwidth accounting.
func DataSizeBytes(fields, cells int) int64 {
	return dataHeaderSize + int64(fields)*(fieldLenSize+8*int64(cells))
}

// DataBatchSizeBytes returns the encoded size of a DataBatch carrying
// `steps` timesteps of `fields` fields over `cells` cells.
func DataBatchSizeBytes(steps, fields, cells int) int64 {
	return dataBatchHeaderSize + int64(steps)*(stepHeaderSize+int64(fields)*(fieldLenSize+8*int64(cells)))
}

// MaxBulkFrameBytes bounds every bulk frame a sender cuts from at most steps
// timesteps of fields fields over at most cells cells: the raw DataBatch,
// and the compressed frame at its worst — every range incompressible
// (codec.MaxCompressedLen) and as many ranges as cells.
func MaxBulkFrameBytes(steps, fields, cells int) int64 {
	raw := DataBatchSizeBytes(steps, fields, cells)
	words := 8 * int64(steps) * int64(fields) * int64(cells)
	comp := dataBatchCFixedSize + 8*int64(steps) + 4 + 4 + rangeEntrySize*int64(cells) +
		int64(codec.MaxCompressedLen(int(words))) + int64(cells-1)*int64(codec.MaxCompressedLen(0))
	return max(raw, comp)
}
