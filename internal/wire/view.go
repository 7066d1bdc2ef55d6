package wire

import (
	"encoding/binary"
	"fmt"

	"melissa/internal/enc"
)

// Lazy view decoders. DataView and DataBatchView parse only the header of an
// encoded bulk payload — ids, timesteps, the cell range and the byte offset
// of every field's float block — without touching the float payload itself.
// Consumers that own a cell sub-range (the server's shard workers) then read
// exactly their cells straight out of the wire bytes: FieldRange hands them
// out in place, and DecodeFieldRange copies them where a view is not
// possible, so a payload shared by W workers is never decoded up front.
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

// DataView is a zero-copy view of an encoded TypeData payload. The zero
// value is ready for Parse; a view may be re-Parsed to amortize its offset
// storage. The view aliases the payload — it must not outlive the buffer's
// recycling.
type DataView struct {
	GroupID  int
	Timestep int
	CellLo   int
	CellHi   int

	payload  []byte
	fieldOff []int // byte offset of field f's first float64
}

// Cells returns the number of cells per field (CellHi - CellLo).
func (v *DataView) Cells() int { return v.CellHi - v.CellLo }

// NumFields returns the number of fields carried by the payload.
func (v *DataView) NumFields() int { return len(v.fieldOff) }

// Parse validates payload as a TypeData message and records the per-field
// byte offsets. No float data is decoded or copied.
func (v *DataView) Parse(payload []byte) error {
	if len(payload) < dataHeaderSize {
		return fmt.Errorf("wire: data view: %d-byte payload shorter than header", len(payload))
	}
	if typ := MsgType(payload[0]); typ != TypeData {
		return fmt.Errorf("wire: data view on message type %d", typ)
	}
	v.GroupID = int(int64(binary.LittleEndian.Uint64(payload[1:])))
	v.Timestep = int(int64(binary.LittleEndian.Uint64(payload[9:])))
	v.CellLo = int(int64(binary.LittleEndian.Uint64(payload[17:])))
	v.CellHi = int(int64(binary.LittleEndian.Uint64(payload[25:])))
	nf := int(binary.LittleEndian.Uint32(payload[33:]))
	if !zeroBytes(payload[dataHeaderSize-dataPad : dataHeaderSize]) {
		return fmt.Errorf("wire: data view: non-zero header pad")
	}
	cells := v.CellHi - v.CellLo
	if cells <= 0 {
		return fmt.Errorf("wire: data view: empty cell range [%d,%d)", v.CellLo, v.CellHi)
	}
	// Bound the count by what the payload could physically hold before
	// allocating offset storage: a crafted header must not OOM the parser.
	if nf < 0 || nf > (len(payload)-dataHeaderSize)/fieldLenSize {
		return fmt.Errorf("wire: data view: %d fields exceed payload", nf)
	}
	v.payload = payload
	v.fieldOff = growOffsets(v.fieldOff, nf)
	off := dataHeaderSize
	for f := 0; f < nf; f++ {
		next, err := fieldOffset(payload, off, cells)
		if err != nil {
			return fmt.Errorf("wire: data view: field %d: %w", f, err)
		}
		v.fieldOff[f] = off + fieldLenSize
		off = next
	}
	if off != len(payload) {
		return fmt.Errorf("wire: data view: %d trailing bytes", len(payload)-off)
	}
	return nil
}

// FieldRange returns cells [lo, hi) of field f — offsets relative to CellLo
// — in place in the payload, or nil when they cannot be viewed (see
// enc.F64View); the caller then copies them with DecodeFieldRange. The
// slice aliases the payload: it must not be written, nor outlive the
// buffer's recycling.
func (v *DataView) FieldRange(f, lo, hi int) []float64 {
	return enc.F64View(v.payload[v.fieldOff[f]+8*lo : v.fieldOff[f]+8*hi])
}

// DecodeFieldRange copies cells [lo, hi) of field f — offsets relative to
// CellLo — into dst[:hi-lo]. The range must lie within [0, Cells()).
func (v *DataView) DecodeFieldRange(f, lo, hi int, dst []float64) {
	enc.DecodeF64s(dst[:hi-lo], v.payload[v.fieldOff[f]+8*lo:])
}

// DataBatchView is the zero-copy view of an encoded TypeDataBatch payload:
// the batched analogue of DataView. Parse enforces that every step carries
// the same field count, so a malformed batch is rejected wholesale instead
// of surfacing one shape error per step downstream.
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
func (v *DataBatchView) Parse(payload []byte) error {
	if len(payload) < dataBatchHeaderSize {
		return fmt.Errorf("wire: batch view: %d-byte payload shorter than header", len(payload))
	}
	if typ := MsgType(payload[0]); typ != TypeDataBatch {
		return fmt.Errorf("wire: batch view on message type %d", typ)
	}
	v.GroupID = int(int64(binary.LittleEndian.Uint64(payload[1:])))
	v.CellLo = int(int64(binary.LittleEndian.Uint64(payload[9:])))
	v.CellHi = int(int64(binary.LittleEndian.Uint64(payload[17:])))
	ns := int(binary.LittleEndian.Uint32(payload[25:]))
	if !zeroBytes(payload[dataBatchHeaderSize-dataPad : dataBatchHeaderSize]) {
		return fmt.Errorf("wire: batch view: non-zero header pad")
	}
	cells := v.CellHi - v.CellLo
	if cells <= 0 {
		return fmt.Errorf("wire: batch view: empty cell range [%d,%d)", v.CellLo, v.CellHi)
	}
	// Bound the counts by what the payload could physically hold before
	// allocating offset storage: a crafted header must not OOM the parser
	// (every step costs at least its header, every field its length prefix).
	if ns <= 0 || ns > (len(payload)-dataBatchHeaderSize)/stepHeaderSize {
		return fmt.Errorf("wire: batch view: %d steps exceed payload", ns)
	}
	v.payload = payload
	v.timesteps = growOffsets(v.timesteps, ns)
	v.numFields = 0
	off := dataBatchHeaderSize
	for s := 0; s < ns; s++ {
		if off+stepHeaderSize > len(payload) {
			return fmt.Errorf("wire: batch view: truncated step %d header", s)
		}
		v.timesteps[s] = int(int64(binary.LittleEndian.Uint64(payload[off:])))
		nf := int(binary.LittleEndian.Uint32(payload[off+8:]))
		if !zeroBytes(payload[off+stepHeaderSize-stepPad : off+stepHeaderSize]) {
			return fmt.Errorf("wire: batch view: non-zero pad in step %d header", s)
		}
		off += stepHeaderSize
		if s == 0 {
			// Every field costs at least its length prefix in every step, so
			// the ns×nf offset table may never exceed payload/8 entries —
			// this also bounds the product, not just each factor.
			if nf <= 0 || ns*nf > len(payload)/fieldLenSize {
				return fmt.Errorf("wire: batch view: %d steps x %d fields exceed payload", ns, nf)
			}
			v.numFields = nf
			v.fieldOff = growOffsets(v.fieldOff, ns*nf)
		} else if nf != v.numFields {
			return fmt.Errorf("wire: batch view: step %d has %d fields, step 0 has %d",
				s, nf, v.numFields)
		}
		for f := 0; f < nf; f++ {
			next, err := fieldOffset(payload, off, cells)
			if err != nil {
				return fmt.Errorf("wire: batch view: step %d field %d: %w", s, f, err)
			}
			v.fieldOff[s*v.numFields+f] = off + fieldLenSize
			off = next
		}
	}
	if off != len(payload) {
		return fmt.Errorf("wire: batch view: %d trailing bytes", len(payload)-off)
	}
	return nil
}

// FieldRange returns cells [lo, hi) of field f at batch entry s — offsets
// relative to CellLo — in place in the payload, or nil when they cannot be
// viewed; see DataView.FieldRange.
func (v *DataBatchView) FieldRange(s, f, lo, hi int) []float64 {
	off := v.fieldOff[s*v.numFields+f]
	return enc.F64View(v.payload[off+8*lo : off+8*hi])
}

// DecodeFieldRange copies cells [lo, hi) of field f at batch entry s —
// offsets relative to CellLo — into dst[:hi-lo].
func (v *DataBatchView) DecodeFieldRange(s, f, lo, hi int, dst []float64) {
	enc.DecodeF64s(dst[:hi-lo], v.payload[v.fieldOff[s*v.numFields+f]+8*lo:])
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
