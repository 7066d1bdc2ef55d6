package quantiles

import (
	"bytes"
	"math/rand"
	"testing"

	"melissa/internal/enc"
)

func randomFields(rng *rand.Rand, n, cells int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		f := make([]float64, cells)
		for c := range f {
			f[c] = rng.NormFloat64() + float64(c)
		}
		out[i] = f
	}
	return out
}

// TestFieldMatchesPerCellSketches: the field wrapper is exactly one
// independent sketch per cell.
func TestFieldMatchesPerCellSketches(t *testing.T) {
	const cells, n, eps = 9, 500, 0.02
	rng := rand.New(rand.NewSource(10))
	fields := randomFields(rng, n, cells)

	f := NewField(cells, eps)
	refs := make([]*Sketch, cells)
	for c := range refs {
		refs[c] = New(eps)
	}
	for _, sample := range fields {
		f.Update(sample)
		for c, v := range sample {
			refs[c].Update(v)
		}
	}
	if f.N() != n || f.Cells() != cells || f.Epsilon() != eps {
		t.Fatalf("field shape %d/%d/%v", f.N(), f.Cells(), f.Epsilon())
	}
	dst := f.QueryField(0.5, nil)
	for c := 0; c < cells; c++ {
		if f.Query(c, 0.5) != refs[c].Query(0.5) {
			t.Fatalf("cell %d: field %v vs direct sketch %v", c, f.Query(c, 0.5), refs[c].Query(0.5))
		}
		if dst[c] != refs[c].Query(0.5) {
			t.Fatalf("QueryField cell %d mismatch", c)
		}
	}
}

// TestFieldExtractStitchRoundTrip: extracted sub-range fields stitch back to
// the bytes of the field they came from, and are deep copies.
func TestFieldExtractStitchRoundTrip(t *testing.T) {
	const cells, n, eps = 12, 300, 0.02
	rng := rand.New(rand.NewSource(11))
	f := NewField(cells, eps)
	for _, sample := range randomFields(rng, n, cells) {
		f.Update(sample)
	}

	var parts []*Field
	for _, r := range [][2]int{{0, 5}, {5, 9}, {9, 12}} {
		part := f.Extract(r[0], r[1])
		if part.Cells() != r[1]-r[0] || part.N() != f.N() {
			t.Fatalf("extract [%d,%d) shape %d/%d", r[0], r[1], part.Cells(), part.N())
		}
		parts = append(parts, part)
	}
	var w1, w2 enc.Writer
	EncodeStitched(&w1, []*Field{f})
	EncodeStitched(&w2, parts)
	if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
		t.Fatal("extracted parts stitch to a different encoded state")
	}
	// Extract is a deep copy: updating the part must not disturb the parent.
	part := f.Extract(0, 3)
	part.Update([]float64{1, 2, 3})
	var w3 enc.Writer
	EncodeStitched(&w3, []*Field{f})
	if !bytes.Equal(w1.Bytes(), w3.Bytes()) {
		t.Fatal("Extract aliases parent state")
	}
}

func TestFieldEncodeDecodeRoundTrip(t *testing.T) {
	const cells, n = 7, 400
	rng := rand.New(rand.NewSource(12))
	f := NewField(cells, 0.01)
	for _, sample := range randomFields(rng, n, cells) {
		f.Update(sample)
	}
	var w enc.Writer
	EncodeStitched(&w, []*Field{f})

	d := NewField(cells, 0.01)
	r := enc.NewReader(w.Bytes())
	DecodeStitched(r, []*Field{d})
	if r.Err() != nil {
		t.Fatalf("decode: %v", r.Err())
	}
	if d.Cells() != cells || d.N() != f.N() {
		t.Fatalf("decoded shape %d/%d", d.Cells(), d.N())
	}
	for c := 0; c < cells; c++ {
		for _, q := range []float64{0.1, 0.5, 0.9} {
			if d.Query(c, q) != f.Query(c, q) {
				t.Fatalf("cell %d q=%v mismatch", c, q)
			}
		}
	}
	short := enc.NewReader(w.Bytes()[:w.Len()-3])
	DecodeStitched(short, []*Field{NewField(cells, 0.01)})
	if short.Err() == nil {
		t.Fatal("truncated field decoded without error")
	}
}

func TestFieldUpdateDimensionPanics(t *testing.T) {
	const cells, eps = 4, 0.02
	a := NewField(cells, eps)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	a.Update(make([]float64, cells+1))
}
