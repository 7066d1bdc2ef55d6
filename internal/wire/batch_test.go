package wire

import (
	"reflect"
	"testing"
)

func benchBatch(steps, fields, cells int) *DataBatch {
	b := &DataBatch{GroupID: 3, CellLo: 0, CellHi: cells}
	for s := 0; s < steps; s++ {
		st := DataStep{Timestep: s, Fields: make([][]float64, fields)}
		for f := range st.Fields {
			vals := make([]float64, cells)
			for c := range vals {
				vals[c] = float64(s*1000 + f*cells + c)
			}
			st.Fields[f] = vals
		}
		b.Steps = append(b.Steps, st)
	}
	return b
}

func TestDataBatchRoundTrip(t *testing.T) {
	b := benchBatch(3, 4, 17)
	payload := Encode(b)
	if got := int64(len(payload)); got != DataBatchSizeBytes(3, 4, 17) {
		t.Fatalf("encoded %d bytes, size model says %d", got, DataBatchSizeBytes(3, 4, 17))
	}
	decoded, err := Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, b) {
		t.Fatalf("round trip: %+v", decoded)
	}
	if PayloadType(payload) != TypeDataBatch {
		t.Fatalf("PayloadType = %d", PayloadType(payload))
	}

	// Empty batch survives too.
	empty := &DataBatch{GroupID: 1, CellLo: 5, CellHi: 9}
	got := roundTrip(t, empty).(*DataBatch)
	if got.GroupID != 1 || got.CellLo != 5 || got.CellHi != 9 || len(got.Steps) != 0 {
		t.Fatalf("empty batch: %+v", got)
	}
}
