// Package enc provides small, allocation-conscious binary encoding helpers
// shared by the wire protocol, the checkpoint format and the statistics
// accumulators. All values are little-endian.
//
// The package deliberately avoids reflection (encoding/gob, binary.Write on
// structs): checkpoints can reach hundreds of megabytes per server process
// (Sec. 5.4 of the paper reports 959 MB per process), so float runs — the
// bulk of every wire frame and checkpoint — move as bytes: on a
// little-endian host a run is one copy of its memory, and only a
// big-endian host converts value by value.
package enc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"unsafe"
)

// nativeLE reports whether the host lays out a float64 in memory exactly as
// the encoding does, so that a float run can be copied as bytes.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// f64Bytes is the memory of vs as bytes.
func f64Bytes(vs []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), 8*len(vs))
}

// appendF64s appends vs to buf in the encoding's byte order.
func appendF64s(buf []byte, vs []float64) []byte {
	if nativeLE {
		return append(buf, f64Bytes(vs)...)
	}
	return appendF64sPortable(buf, vs)
}

// appendF64sPortable is appendF64s value by value, for any host.
func appendF64sPortable(buf []byte, vs []float64) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// DecodeF64s fills dst with the first len(dst) float64s encoded in src,
// which must hold at least 8·len(dst) bytes.
func DecodeF64s(dst []float64, src []byte) {
	src = src[:8*len(dst)]
	if nativeLE {
		copy(f64Bytes(dst), src)
		return
	}
	decodeF64sPortable(dst, src)
}

// decodeF64sPortable is DecodeF64s value by value, for any host.
func decodeF64sPortable(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// F64View returns the float64s encoded in b as a slice sharing b's memory,
// or nil when b is empty, the host is big-endian or b does not start 8-byte
// aligned — then the caller copies with DecodeF64s instead. len(b) must be
// a multiple of 8. The view is valid for as long as b is.
func F64View(b []byte) []float64 {
	p := unsafe.SliceData(b)
	if !nativeLE || len(b) == 0 || uintptr(unsafe.Pointer(p))%8 != 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(p)), len(b)/8)
}

// ErrShortBuffer is returned when a decoder runs out of input bytes.
var ErrShortBuffer = errors.New("enc: short buffer")

// Writer accumulates a binary payload. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer whose underlying buffer has the given capacity.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// writerPool recycles Writers across hot encode paths (per-timestep wire
// messages). Buffers above maxPooledWriter are dropped on PutWriter so one
// checkpoint-sized encode does not pin hundreds of megabytes in the pool.
var writerPool = sync.Pool{New: func() any { return &Writer{} }}

const maxPooledWriter = 1 << 22 // 4 MiB

// GetWriter returns a pooled Writer, reset and grown to at least the given
// capacity. Release it with PutWriter once the encoded bytes have been
// consumed. Bytes handed to a transport Send are the transport's, so a frame
// bound for Send is encoded into the transport's buffer instead (ResetTo).
func GetWriter(capacity int) *Writer {
	w := writerPool.Get().(*Writer)
	w.Reset()
	w.grow(capacity)
	return w
}

// PutWriter returns w to the pool. The caller must not touch w — or any
// slice previously obtained from w.Bytes() — afterwards.
func PutWriter(w *Writer) {
	if w == nil || cap(w.buf) > maxPooledWriter {
		return
	}
	writerPool.Put(w)
}

// Bytes returns the encoded payload. The slice is owned by the Writer and is
// invalidated by further writes.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset discards all written data, retaining the allocation.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// ResetTo discards all written data and makes w append into buf's storage.
func (w *Writer) ResetTo(buf []byte) { w.buf = buf[:0] }

// U8 appends a single byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U32 appends a uint32.
func (w *Writer) U32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// U64 appends a uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I64 appends an int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as a 64-bit value.
func (w *Writer) Int(v int) { w.U64(uint64(int64(v))) }

// Bool appends a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// F64 appends a float64.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// String appends a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// F64Slice appends a length-prefixed []float64.
func (w *Writer) F64Slice(vs []float64) {
	w.U64(uint64(len(vs)))
	w.F64Raw(vs)
}

// Raw appends b verbatim, with no length prefix. It splices pre-encoded
// fragments (e.g. a tracker serialized earlier on another goroutine) into a
// stream whose overall layout the caller controls.
func (w *Writer) Raw(b []byte) {
	w.buf = append(w.buf, b...)
}

// F64Raw appends the float64 values with no length prefix — the building
// block of stitched encodes, where one logical F64Slice is assembled from
// several contiguous sub-range arrays: write the total length with U64, then
// each part with F64Raw, and the bytes are identical to one F64Slice call
// over the concatenation.
func (w *Writer) F64Raw(vs []float64) {
	w.grow(8 * len(vs))
	w.buf = appendF64s(w.buf, vs)
}

func (w *Writer) grow(n int) {
	if cap(w.buf)-len(w.buf) < n {
		nb := make([]byte, len(w.buf), 2*cap(w.buf)+n)
		copy(nb, w.buf)
		w.buf = nb
	}
}

// Reader decodes a payload produced by Writer. Decoding methods record the
// first error encountered; callers may batch several reads and check Err
// once at the end.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records err as the reader's error unless one is already set,
// poisoning all subsequent reads. Decoders use it to reject byte streams
// that parse but are semantically invalid (e.g. inconsistent counts), so
// corruption surfaces as a decode error instead of a later panic.
func (r *Reader) Fail(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("%w: need %d bytes at offset %d, have %d",
			ErrShortBuffer, n, r.off, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads a single byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int encoded as 64 bits.
func (r *Reader) Int() int { return int(r.I64()) }

// Bool reads a bool.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := int(r.U32())
	b := r.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// F64Slice reads a length-prefixed []float64 into a fresh slice.
func (r *Reader) F64Slice() []float64 {
	n := int(r.U64())
	if r.err != nil || n < 0 {
		return nil
	}
	if n > r.Remaining()/8 { // division sidesteps 8*n overflow on corrupt lengths
		r.err = fmt.Errorf("%w: float64 slice of %d elements exceeds remaining %d bytes",
			ErrShortBuffer, n, r.Remaining())
		return nil
	}
	vs := make([]float64, n)
	r.F64RawInto(vs)
	return vs
}

// F64SliceInto reads a length-prefixed []float64 into dst, which must have
// exactly the encoded length.
func (r *Reader) F64SliceInto(dst []float64) {
	n := int(r.U64())
	if r.err != nil {
		return
	}
	if n != len(dst) {
		r.err = fmt.Errorf("enc: encoded slice length %d does not match destination %d", n, len(dst))
		return
	}
	r.F64RawInto(dst)
}

// F64RawInto fills dst with len(dst) float64 values that carry no length
// prefix — the reading counterpart of F64Raw, for a run whose length the
// caller has already checked.
func (r *Reader) F64RawInto(dst []float64) {
	if b := r.take(8 * len(dst)); b != nil {
		DecodeF64s(dst, b)
	}
}

// I64Slice reads a length-prefixed []int64.
func (r *Reader) I64Slice() []int64 {
	n := int(r.U64())
	if r.err != nil || n < 0 {
		return nil
	}
	if n > r.Remaining()/8 { // division sidesteps 8*n overflow on corrupt lengths
		r.err = fmt.Errorf("%w: int64 slice of %d elements exceeds remaining %d bytes",
			ErrShortBuffer, n, r.Remaining())
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = r.I64()
	}
	return vs
}
