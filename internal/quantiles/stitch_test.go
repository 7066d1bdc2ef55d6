package quantiles

import (
	"bytes"
	"math/rand"
	"testing"

	"melissa/internal/enc"
)

// stitch encodes parts the way a checkpoint does: each part frozen, then
// the frozen views stitched into one EncodeStitched image.
func stitch(parts []*Field) []byte {
	frozen := make([]*FrozenField, len(parts))
	for i, p := range parts {
		frozen[i] = p.FreezeInto(nil)
	}
	w := enc.NewWriter(1 << 14)
	EncodeFrozenStitched(w, frozen, nil)
	return w.Bytes()
}

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
		EncodeStitched(want, []*Field{f})
		if !bytes.Equal(want.Bytes(), stitch(parts)) {
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
		if !bytes.Equal(want.Bytes(), stitch(fresh)) {
			t.Fatalf("%d parts: decoded parts encode differently", len(parts))
		}
	}
	// Parts that do not add up to the encoded cell count are rejected.
	w := enc.NewWriter(1 << 14)
	EncodeStitched(w, []*Field{f})
	r := enc.NewReader(w.Bytes())
	DecodeStitched(r, []*Field{NewField(cells-1, 0.05)})
	if r.Err() == nil {
		t.Fatal("stitched decode into the wrong cell count accepted")
	}
}
