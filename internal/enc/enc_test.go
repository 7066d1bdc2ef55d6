package enc

import (
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
