package enc

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestScalarRoundTrip(t *testing.T) {
	w := NewWriter(0)
	w.U8(0xAB)
	w.U32(0xDEADBEEF)
	w.U64(1 << 60)
	w.I64(-42)
	w.Int(-7)
	w.Bool(true)
	w.Bool(false)
	w.F64(math.Pi)
	w.F64(math.Inf(-1))
	w.String("melissa")
	w.String("")

	r := NewReader(w.Bytes())
	if r.U8() != 0xAB || r.U32() != 0xDEADBEEF || r.U64() != 1<<60 {
		t.Fatal("unsigned round-trip failed")
	}
	if r.I64() != -42 || r.Int() != -7 {
		t.Fatal("signed round-trip failed")
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bool round-trip failed")
	}
	if r.F64() != math.Pi || !math.IsInf(r.F64(), -1) {
		t.Fatal("float round-trip failed")
	}
	if r.String() != "melissa" || r.String() != "" {
		t.Fatal("string round-trip failed")
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", r.Err(), r.Remaining())
	}
}

func TestSliceRoundTrip(t *testing.T) {
	w := NewWriter(16)
	fs := []float64{1.5, -2.25, math.MaxFloat64, 0}
	is := []int64{-1, 0, 1 << 40}
	w.F64Slice(fs)
	w.U64(uint64(len(is)))
	for _, v := range is {
		w.I64(v)
	}
	w.F64Slice(nil)

	r := NewReader(w.Bytes())
	gotF := r.F64Slice()
	gotI := r.I64Slice()
	empty := r.F64Slice()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	for i := range fs {
		if gotF[i] != fs[i] {
			t.Fatalf("f64[%d] = %v", i, gotF[i])
		}
	}
	for i := range is {
		if gotI[i] != is[i] {
			t.Fatalf("i64[%d] = %v", i, gotI[i])
		}
	}
	if len(empty) != 0 {
		t.Fatalf("empty slice decoded as %v", empty)
	}
}

func TestF64SliceInto(t *testing.T) {
	w := NewWriter(16)
	w.F64Slice([]float64{1, 2, 3})
	r := NewReader(w.Bytes())
	dst := make([]float64, 3)
	r.F64SliceInto(dst)
	if r.Err() != nil || dst[2] != 3 {
		t.Fatalf("into: %v %v", dst, r.Err())
	}
	// Length mismatch is an error.
	r2 := NewReader(w.Bytes())
	r2.F64SliceInto(make([]float64, 4))
	if r2.Err() == nil {
		t.Fatal("length mismatch accepted")
	}
}

// TestF64RawInto: a run written as F64Raw parts reads back bit-exactly in
// parts of other sizes, and a run longer than the input is an error.
func TestF64RawInto(t *testing.T) {
	vs := []float64{1, math.Copysign(0, -1), math.NaN(), math.Inf(1), -2.5}
	w := NewWriter(0)
	w.F64Raw(vs[:2])
	w.F64Raw(vs[2:])
	r := NewReader(w.Bytes())
	got := make([]float64, len(vs))
	r.F64RawInto(got[:3])
	r.F64RawInto(got[3:])
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", r.Err(), r.Remaining())
	}
	for i := range vs {
		if math.Float64bits(got[i]) != math.Float64bits(vs[i]) {
			t.Fatalf("[%d] = %v, want %v", i, got[i], vs[i])
		}
	}
	r2 := NewReader(w.Bytes())
	r2.F64RawInto(make([]float64, len(vs)+1))
	if r2.Err() == nil {
		t.Fatal("run past the end of the input accepted")
	}
}

func TestShortBufferErrors(t *testing.T) {
	w := NewWriter(0)
	w.F64(1)
	w.F64Slice([]float64{1, 2, 3})
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.F64()
		r.F64Slice()
		if cut < len(full) && r.Err() == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
	// Error is sticky: further reads return zero values.
	r := NewReader(nil)
	if r.U64() != 0 || r.F64() != 0 || r.String() != "" {
		t.Fatal("reads after error not zero")
	}
	if r.Err() == nil {
		t.Fatal("error not sticky")
	}
}

func TestCorruptLengthPrefixRejected(t *testing.T) {
	// A slice header claiming more elements than bytes remain must fail
	// without allocating the bogus length.
	// 1<<61 elements would overflow the byte count 8·n.
	for _, n := range []uint64{1 << 40, 1 << 61} {
		w := NewWriter(0)
		w.U64(n)
		r := NewReader(w.Bytes())
		if out := r.F64Slice(); out != nil || r.Err() == nil {
			t.Fatalf("corrupt f64 slice length %d accepted", n)
		}
		r2 := NewReader(w.Bytes())
		if out := r2.I64Slice(); out != nil || r2.Err() == nil {
			t.Fatalf("corrupt i64 slice length %d accepted", n)
		}
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(8)
	w.F64(1)
	if w.Len() != 8 {
		t.Fatalf("len %d", w.Len())
	}
	w.Reset()
	if w.Len() != 0 {
		t.Fatal("reset failed")
	}
	w.U8(1)
	if w.Len() != 1 {
		t.Fatal("write after reset failed")
	}
}

// Property: arbitrary float slices round-trip bit-exactly (including NaN
// payloads and signed zeros).
func TestQuickF64SliceRoundTrip(t *testing.T) {
	f := func(vs []float64) bool {
		w := NewWriter(8 * len(vs))
		w.F64Slice(vs)
		r := NewReader(w.Bytes())
		got := r.F64Slice()
		if r.Err() != nil || len(got) != len(vs) {
			return false
		}
		for i := range vs {
			if math.Float64bits(got[i]) != math.Float64bits(vs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// specialFloats are the values a value-by-value conversion could disturb:
// NaN payloads of both signs (quiet and signalling), signed zeros,
// subnormals and infinities.
var specialFloats = []float64{
	math.Float64frombits(0x7ff8_0000_0000_0001),
	math.Float64frombits(0x7ff0_0000_0000_0001),
	math.Float64frombits(0xfff8_dead_0000_beef),
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000f_ffff_ffff_ffff),
	math.Inf(1), math.Inf(-1), math.MaxFloat64, -1.5,
}

// sameBits reports whether got and want hold identical bit patterns.
func sameBits(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// checkF64Paths: the byte-copy path and the portable loop encode vs to the
// same bytes, and every reader gives back the same bits.
func checkF64Paths(t *testing.T, vs []float64) {
	t.Helper()
	want := appendF64sPortable(nil, vs)
	if got := appendF64s(nil, vs); !bytes.Equal(got, want) {
		t.Fatalf("%d floats: copy path wrote % x, loop % x", len(vs), got, want)
	}
	w := NewWriter(0)
	w.F64Raw(vs)
	w.F64Slice(vs)
	if !bytes.Equal(w.Bytes()[:8*len(vs)], want) || !bytes.Equal(w.Bytes()[8*len(vs)+8:], want) {
		t.Fatalf("%d floats: writer bytes differ from the portable loop", len(vs))
	}

	fast, slow := make([]float64, len(vs)), make([]float64, len(vs))
	DecodeF64s(fast, want)
	decodeF64sPortable(slow, want)
	if !sameBits(fast, vs) || !sameBits(slow, vs) {
		t.Fatalf("%d floats: decoded %v (copy) and %v (loop), want %v", len(vs), fast, slow, vs)
	}
	r := NewReader(w.Bytes())
	raw, into := make([]float64, len(vs)), make([]float64, len(vs))
	r.F64RawInto(raw)
	r.F64SliceInto(into)
	r2 := NewReader(w.Bytes()[8*len(vs):])
	fresh := r2.F64Slice()
	if r.Err() != nil || r2.Err() != nil || !sameBits(raw, vs) || !sameBits(into, vs) || !sameBits(fresh, vs) {
		t.Fatalf("%d floats: reader round trip lost bits (errs %v, %v)", len(vs), r.Err(), r2.Err())
	}
	if view := F64View(want); view != nil && !sameBits(view, vs) {
		t.Fatalf("%d floats: in-place view %v, want %v", len(vs), view, vs)
	}
}

// TestF64CopyPathMatchesPortableLoop pins the little-endian byte copy to the
// value-by-value loop a big-endian host runs, on the special values at
// lengths 0, 1, odd and full, and on random bit patterns.
func TestF64CopyPathMatchesPortableLoop(t *testing.T) {
	for _, n := range []int{0, 1, 3, 7, len(specialFloats)} {
		checkF64Paths(t, specialFloats[:n])
	}
	check := func(bits []uint64) bool {
		vs := make([]float64, len(bits))
		for i, b := range bits {
			vs[i] = math.Float64frombits(b)
		}
		checkF64Paths(t, vs)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestF64ReadGuards: the copy path keeps the short-buffer and length guards
// of the loop it replaced.
func TestF64ReadGuards(t *testing.T) {
	w := NewWriter(0)
	w.F64Slice([]float64{1, 2, 3})
	full := w.Bytes()

	r := NewReader(full[8:])
	r.F64RawInto(make([]float64, 4))
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Fatalf("raw run past the input: %v, want ErrShortBuffer", r.Err())
	}
	r = NewReader(full[:len(full)-1])
	if vs := r.F64Slice(); vs != nil || !errors.Is(r.Err(), ErrShortBuffer) {
		t.Fatalf("truncated slice: %v, %v", vs, r.Err())
	}
	r = NewReader(full[:len(full)-1])
	r.F64SliceInto(make([]float64, 3))
	if !errors.Is(r.Err(), ErrShortBuffer) {
		t.Fatalf("truncated slice into: %v, want ErrShortBuffer", r.Err())
	}
	r = NewReader(full)
	r.F64SliceInto(make([]float64, 2))
	if r.Err() == nil || errors.Is(r.Err(), ErrShortBuffer) {
		t.Fatalf("length mismatch: %v, want a length error", r.Err())
	}
	if DecodeF64s(nil, nil); F64View(nil) != nil {
		t.Fatal("empty input gave a view")
	}
	if F64View(make([]byte, 16)[1:9]) != nil {
		t.Fatal("misaligned input gave a view")
	}
}
