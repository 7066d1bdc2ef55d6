package quantiles

import (
	"bytes"
	"math/rand"
	"testing"

	"melissa/internal/enc"
)

// TestEncodeStitchedMatchesDense: the stitched encode of extracted sub-range
// fields must be byte-identical to encoding the dense field they came from.
func TestEncodeStitchedMatchesDense(t *testing.T) {
	const cells = 23
	rng := rand.New(rand.NewSource(9))
	f := NewField(cells, 0.05)
	a := make([]float64, cells)
	b := make([]float64, cells)
	for s := 0; s < 40; s++ {
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		f.UpdatePair(a, b)
	}
	f.Compact()

	for _, bounds := range [][]int{{0, cells}, {0, 8, 15, cells}} {
		var parts []*Field
		for i := 0; i+1 < len(bounds); i++ {
			parts = append(parts, f.Extract(bounds[i], bounds[i+1]))
		}
		want := enc.NewWriter(1 << 14)
		f.Encode(want)
		got := enc.NewWriter(1 << 14)
		EncodeStitched(got, parts)
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("%d parts: stitched encode differs from dense", len(parts))
		}

		// DecodeStitched restores the dense bytes straight into fresh parts
		// of the same shape; they stitch back to the same bytes.
		fresh := make([]*Field, len(parts))
		for i := range fresh {
			fresh[i] = NewField(parts[i].Cells(), 0.05)
		}
		r := enc.NewReader(want.Bytes())
		DecodeStitched(r, fresh)
		if r.Err() != nil || r.Remaining() != 0 {
			t.Fatalf("%d parts: decode err=%v remaining=%d", len(parts), r.Err(), r.Remaining())
		}
		again := enc.NewWriter(1 << 14)
		EncodeStitched(again, fresh)
		if !bytes.Equal(want.Bytes(), again.Bytes()) {
			t.Fatalf("%d parts: decoded parts encode differently", len(parts))
		}
	}
	// Parts that do not add up to the encoded cell count are rejected.
	w := enc.NewWriter(1 << 14)
	f.Encode(w)
	r := enc.NewReader(w.Bytes())
	DecodeStitched(r, []*Field{NewField(cells-1, 0.05)})
	if r.Err() == nil {
		t.Fatal("stitched decode into the wrong cell count accepted")
	}
}

// TestCopyInto: a pooled-buffer deep copy must encode identically to the
// source and stay independent of it afterwards.
func TestCopyInto(t *testing.T) {
	const cells = 11
	rng := rand.New(rand.NewSource(3))
	src := NewField(cells, 0.1)
	dst := NewField(cells, 0.1)
	a := make([]float64, cells)
	b := make([]float64, cells)
	fold := func(f *Field, n int) {
		for s := 0; s < n; s++ {
			for i := range a {
				a[i] = rng.NormFloat64()
				b[i] = rng.NormFloat64()
			}
			f.UpdatePair(a, b)
		}
	}

	fold(src, 15)
	src.CopyInto(dst)
	wantBytes := func(f *Field) []byte {
		w := enc.NewWriter(1 << 12)
		f.Encode(w)
		return append([]byte(nil), w.Bytes()...)
	}
	if !bytes.Equal(wantBytes(src), wantBytes(dst)) {
		t.Fatal("copy encodes differently from source")
	}

	// Further folding into src must not leak into the copy, and a second
	// CopyInto must fully refresh the reused buffers.
	before := wantBytes(dst)
	fold(src, 10)
	if !bytes.Equal(before, wantBytes(dst)) {
		t.Fatal("copy aliases source state")
	}
	src.CopyInto(dst)
	if !bytes.Equal(wantBytes(src), wantBytes(dst)) {
		t.Fatal("refreshed copy encodes differently from source")
	}
}
