package wire

import (
	"encoding/binary"
	"fmt"

	"melissa/internal/codec"
	"melissa/internal/enc"
)

// Lazy view decoders. DataBatchView is the one raw view: it parses only the
// header of a Data or DataBatch payload — ids, timesteps, the cell range and
// the byte offset of every field's float block — without touching the float
// payload itself, reading a Data frame as a one-step batch (DataView is its
// Data-only face). Consumers that own a cell sub-range (the server's shard
// workers) then read exactly their cells straight out of the wire bytes:
// FieldRange hands them out in place, and DecodeFieldRange copies them where
// a view is not possible, so a payload shared by W workers is never decoded
// up front. Decode builds its bulk messages through the same views.
//
// Parsing is strict and hoists all shape validation to one place: a view
// refuses payloads whose field lengths disagree with the cell range, whose
// steps carry differing field counts, whose pad bytes are not zero, or that
// have trailing bytes. A payload that parses is therefore rectangular —
// every later FieldRange or DecodeFieldRange is infallible.

// The bulk frame layout. Pad bytes after the counts put every field's float
// run at a payload offset that is a multiple of 8, so a receiver whose
// buffer is 8-byte aligned reads the floats where they lie:
//
//	Data:      tag u8, group, step, lo, hi i64, nf u32, 3 pad   (40 bytes)
//	           nf × { len i64, len × f64 }
//	DataBatch: tag u8, group, lo, hi i64, ns u32, 3 pad         (32 bytes)
//	           ns × { step i64, nf u32, 4 pad                   (16 bytes)
//	                  nf × { len i64, len × f64 } }
const (
	dataPad             = 3
	stepPad             = 4
	dataHeaderSize      = 1 + 4*8 + 4 + dataPad // tag, group, step, lo, hi, nf, pad
	dataBatchHeaderSize = 1 + 3*8 + 4 + dataPad // tag, group, lo, hi, ns, pad
	stepHeaderSize      = 8 + 4 + stepPad       // timestep, nf, pad
	fieldLenSize        = 8                     // per-field length prefix
	batchStepsOff       = 1 + 3*8               // DataBatch step count: after tag, group, lo, hi
)

// zeroPad is the source of every pad run the encoder writes.
var zeroPad [stepPad]byte

// zeroBytes reports whether every byte of b is zero.
func zeroBytes(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// DataBatchView is the zero-copy view of an encoded raw bulk payload: a
// TypeDataBatch, or through ParseRaw a TypeData read as a one-step batch
// whose timestep is the frame's. The zero value is ready for Parse; a view
// may be re-Parsed to amortize its offset storage. The view aliases the
// payload — it must not outlive the buffer's recycling. Parse enforces that
// every step carries the same field count, so a malformed batch is rejected
// wholesale instead of surfacing one shape error per step downstream.
type DataBatchView struct {
	GroupID int
	CellLo  int
	CellHi  int

	payload   []byte
	timesteps []int
	fieldOff  []int // flattened [step*numFields+field] float-block offsets
	numFields int
}

// Cells returns the number of cells per field (CellHi - CellLo).
func (v *DataBatchView) Cells() int { return v.CellHi - v.CellLo }

// NumSteps returns the number of timesteps in the batch.
func (v *DataBatchView) NumSteps() int { return len(v.timesteps) }

// NumFields returns the per-step field count (uniform across the batch).
func (v *DataBatchView) NumFields() int { return v.numFields }

// StepTimestep returns the timestep of batch entry s.
func (v *DataBatchView) StepTimestep(s int) int { return v.timesteps[s] }

// Parse validates payload as a TypeDataBatch message and records every
// (step, field) float-block offset. No float data is decoded or copied.
func (v *DataBatchView) Parse(payload []byte) error { return v.parse(payload, TypeDataBatch) }

// ParseRaw parses either raw bulk frame: a TypeDataBatch as Parse does, a
// TypeData as a one-step batch. It accepts exactly what Parse and
// DataView.Parse accept.
func (v *DataBatchView) ParseRaw(payload []byte) error {
	return v.parse(payload, PayloadType(payload))
}

// parse validates payload as a raw bulk frame of type typ.
func (v *DataBatchView) parse(payload []byte, typ MsgType) error {
	name := "batch"
	if typ == TypeData {
		name = "data"
	}
	if err := v.parseFrame(payload, typ); err != nil {
		return fmt.Errorf("wire: %s view: %w", name, err)
	}
	return nil
}

// parseFrame walks a Data or DataBatch frame. A Data frame is a one-step
// batch whose step head (timestep, field count) sits in the frame head.
func (v *DataBatchView) parseFrame(payload []byte, typ MsgType) error {
	data := typ == TypeData
	head, rangeAt := dataBatchHeaderSize, 9 // cell range after tag, group
	if data {
		head, rangeAt = dataHeaderSize, 17 // after tag, group, timestep
	}
	if len(payload) < head {
		return fmt.Errorf("%d-byte payload shorter than header", len(payload))
	}
	if got := MsgType(payload[0]); got != typ || !data && typ != TypeDataBatch {
		return fmt.Errorf("message type %d", got)
	}
	v.GroupID = int(int64(binary.LittleEndian.Uint64(payload[1:])))
	v.CellLo = int(int64(binary.LittleEndian.Uint64(payload[rangeAt:])))
	v.CellHi = int(int64(binary.LittleEndian.Uint64(payload[rangeAt+8:])))
	if !zeroBytes(payload[head-dataPad : head]) {
		return fmt.Errorf("non-zero header pad")
	}
	// Bound the counts by what the payload could physically hold before
	// allocating offset storage: a crafted header must not OOM the parser
	// (every step costs at least its header, every field its length prefix).
	ns := 1
	if !data {
		ns = int(binary.LittleEndian.Uint32(payload[batchStepsOff:]))
		if ns <= 0 || ns > (len(payload)-head)/stepHeaderSize {
			return fmt.Errorf("step count %d would exceed payload", ns)
		}
	}
	cells := v.CellHi - v.CellLo
	if cells <= 0 {
		return fmt.Errorf("empty cell range [%d,%d)", v.CellLo, v.CellHi)
	}
	v.payload = payload
	v.timesteps = growOffsets(v.timesteps, ns)
	off := head
	for s := 0; s < ns; s++ {
		stepAt, nfAt := 9, head-dataPad-4 // a Data step head is in the frame head
		if !data {
			if off+stepHeaderSize > len(payload) {
				return fmt.Errorf("truncated step %d header", s)
			}
			if !zeroBytes(payload[off+stepHeaderSize-stepPad : off+stepHeaderSize]) {
				return fmt.Errorf("non-zero pad in step %d header", s)
			}
			stepAt, nfAt = off, off+8
			off += stepHeaderSize
		}
		v.timesteps[s] = int(int64(binary.LittleEndian.Uint64(payload[stepAt:])))
		nf := int(binary.LittleEndian.Uint32(payload[nfAt:]))
		if s == 0 {
			// Every field costs at least its length prefix in every step,
			// so the ns×nf offset table may never exceed payload/8 entries
			// — this also bounds the product, not just each factor. Only a
			// batch step must carry a field.
			if ns*nf > len(payload)/fieldLenSize || !data && nf == 0 {
				return fmt.Errorf("%d steps x %d fields exceed payload", ns, nf)
			}
			v.numFields = nf
			v.fieldOff = growOffsets(v.fieldOff, ns*nf)
		} else if nf != v.numFields {
			return fmt.Errorf("step %d has %d fields, step 0 has %d", s, nf, v.numFields)
		}
		for f := 0; f < nf; f++ {
			next, err := fieldOffset(payload, off, cells)
			if err != nil {
				return fmt.Errorf("step %d field %d: %w", s, f, err)
			}
			v.fieldOff[s*nf+f] = off + fieldLenSize
			off = next
		}
	}
	if off != len(payload) {
		return fmt.Errorf("%d trailing bytes", len(payload)-off)
	}
	return nil
}

// FieldRange returns cells [lo, hi) of field f at batch entry s — offsets
// relative to CellLo — in place in the payload, or nil when they cannot be
// viewed (see enc.F64View); the caller then copies them with
// DecodeFieldRange. The slice aliases the payload: it must not be written,
// nor outlive the buffer's recycling.
func (v *DataBatchView) FieldRange(s, f, lo, hi int) []float64 {
	off := v.fieldOff[s*v.numFields+f]
	return enc.F64View(v.payload[off+8*lo : off+8*hi])
}

// DecodeFieldRange copies cells [lo, hi) of field f at batch entry s —
// offsets relative to CellLo — into dst[:hi-lo]. The range must lie within
// [0, Cells()).
func (v *DataBatchView) DecodeFieldRange(s, f, lo, hi int, dst []float64) {
	enc.DecodeF64s(dst[:hi-lo], v.payload[v.fieldOff[s*v.numFields+f]+8*lo:])
}

// DataView is the TypeData face of DataBatchView: it accepts only Data
// frames, and its DecodeFieldRange reads their one step. It parses nothing
// itself; everything else is the raw view's (FieldRange takes step 0).
type DataView struct {
	DataBatchView
	Timestep int
}

// Parse validates payload as a TypeData message (see DataBatchView.ParseRaw).
func (v *DataView) Parse(payload []byte) error {
	if err := v.parse(payload, TypeData); err != nil {
		return err
	}
	v.Timestep = v.timesteps[0]
	return nil
}

// DecodeFieldRange is DataBatchView.DecodeFieldRange of the frame's one step.
func (v *DataView) DecodeFieldRange(f, lo, hi int, dst []float64) {
	v.DataBatchView.DecodeFieldRange(0, f, lo, hi, dst)
}

// decodeBulk builds the message a bulk frame of type typ carries, read
// through that tag's view: the frame decodes exactly when the view parses,
// and every field holds the bits the view hands out. A Data frame decodes
// to *Data, the two batch framings to *DataBatch.
func decodeBulk(payload []byte, typ MsgType) (any, error) {
	if typ == TypeDataBatchC {
		var v DataBatchCView
		if err := v.Parse(payload); err != nil {
			return nil, err
		}
		m := newDataBatch(v.GroupID, v.CellLo, v.Cells(), v.timesteps, v.numFields)
		var d codec.Decoder
		for r := 0; r < v.NumRanges(); r++ {
			words := make([]uint64, v.RangeWords(r))
			if err := v.DecompressRange(r, &d, words); err != nil {
				return nil, err
			}
			rlo, rhi := v.RangeBounds(r)
			for s, st := range m.Steps {
				for f, field := range st.Fields {
					at := (s*v.numFields + f) * (rhi - rlo)
					codec.WordsToFloat64s(field[rlo:rhi], words[at:at+rhi-rlo])
				}
			}
		}
		return m, nil
	}
	var v DataBatchView
	if err := v.parse(payload, typ); err != nil {
		return nil, err
	}
	m := newDataBatch(v.GroupID, v.CellLo, v.Cells(), v.timesteps, v.numFields)
	for s, st := range m.Steps {
		for f, field := range st.Fields {
			v.DecodeFieldRange(s, f, 0, len(field), field)
		}
	}
	if typ == TypeData {
		st := m.Steps[0]
		return &Data{GroupID: m.GroupID, Timestep: st.Timestep, CellLo: m.CellLo, CellHi: m.CellHi, Fields: st.Fields}, nil
	}
	return m, nil
}

// newDataBatch allocates a batch over cells cells from lo, of one step per
// timestep, each of nf fields.
func newDataBatch(group, lo, cells int, timesteps []int, nf int) *DataBatch {
	m := &DataBatch{GroupID: group, CellLo: lo, CellHi: lo + cells, Steps: make([]DataStep, len(timesteps))}
	for s := range m.Steps {
		m.Steps[s] = DataStep{Timestep: timesteps[s], Fields: make([][]float64, nf)}
		for f := range m.Steps[s].Fields {
			m.Steps[s].Fields[f] = make([]float64, cells)
		}
	}
	return m
}

// fieldOffset validates one field's length prefix at off (it must equal
// cells and fit the payload) and returns the offset just past its floats.
func fieldOffset(payload []byte, off, cells int) (int, error) {
	if off+fieldLenSize > len(payload) {
		return 0, fmt.Errorf("truncated length prefix")
	}
	n := int(int64(binary.LittleEndian.Uint64(payload[off:])))
	if n != cells {
		return 0, fmt.Errorf("%d cells, want %d", n, cells)
	}
	// Divide instead of multiplying: 8*cells overflows on a crafted huge
	// cell range, driving the offset negative (same guard as enc.Reader).
	if cells > (len(payload)-off-fieldLenSize)/8 {
		return 0, fmt.Errorf("%d-cell field floats exceed payload", cells)
	}
	return off + fieldLenSize + 8*cells, nil
}

func growOffsets(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
