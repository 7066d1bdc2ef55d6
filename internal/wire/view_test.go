package wire

import (
	"reflect"
	"strings"
	"testing"

	"melissa/internal/enc"
)

// The view builders, for the external tests (transport_test.go).
var ViewTestData, ViewTestBatch = viewTestData, viewTestBatch

func viewTestData(cells, fields int) *Data {
	m := &Data{GroupID: 7, Timestep: 3, CellLo: 10, CellHi: 10 + cells}
	m.Fields = make([][]float64, fields)
	for f := range m.Fields {
		m.Fields[f] = make([]float64, cells)
		for c := range m.Fields[f] {
			m.Fields[f][c] = float64(f*1000+c) + 0.25
		}
	}
	return m
}

func viewTestBatch(steps, cells, fields int) *DataBatch {
	b := &DataBatch{GroupID: 9, CellLo: 5, CellHi: 5 + cells}
	for s := 0; s < steps; s++ {
		st := DataStep{Timestep: s * 2}
		for f := 0; f < fields; f++ {
			vals := make([]float64, cells)
			for c := range vals {
				vals[c] = float64(s)*1e6 + float64(f)*1e3 + float64(c)
			}
			st.Fields = append(st.Fields, vals)
		}
		b.Steps = append(b.Steps, st)
	}
	return b
}

// TestDataViewMatchesDecode: the lazy view must agree with the eager decoder
// on the header and reproduce the float payload exactly, for any decoded
// sub-range.
func TestDataViewMatchesDecode(t *testing.T) {
	m := viewTestData(13, 4)
	payload := Encode(m)

	var v DataView
	if err := v.Parse(payload); err != nil {
		t.Fatal(err)
	}
	if v.GroupID != m.GroupID || v.Timestep != m.Timestep ||
		v.CellLo != m.CellLo || v.CellHi != m.CellHi || v.NumFields() != len(m.Fields) {
		t.Fatalf("view header %+v does not match message %+v", v, m)
	}
	dst := make([]float64, 13)
	for f := range m.Fields {
		for _, r := range [][2]int{{0, 13}, {0, 1}, {5, 9}, {12, 13}} {
			lo, hi := r[0], r[1]
			v.DecodeFieldRange(f, lo, hi, dst[:hi-lo])
			for i, got := range dst[:hi-lo] {
				if want := m.Fields[f][lo+i]; got != want {
					t.Fatalf("field %d cells [%d,%d): dst[%d] = %v, want %v", f, lo, hi, i, got, want)
				}
			}
		}
	}
}

// TestDataBatchViewMatchesDecode is the batched analogue.
func TestDataBatchViewMatchesDecode(t *testing.T) {
	b := viewTestBatch(3, 11, 5)
	payload := Encode(b)

	var v DataBatchView
	if err := v.Parse(payload); err != nil {
		t.Fatal(err)
	}
	if v.GroupID != b.GroupID || v.CellLo != b.CellLo || v.CellHi != b.CellHi ||
		v.NumSteps() != len(b.Steps) || v.NumFields() != len(b.Steps[0].Fields) {
		t.Fatalf("view header does not match message")
	}
	dst := make([]float64, 11)
	for s := range b.Steps {
		if v.StepTimestep(s) != b.Steps[s].Timestep {
			t.Fatalf("step %d timestep %d, want %d", s, v.StepTimestep(s), b.Steps[s].Timestep)
		}
		for f := range b.Steps[s].Fields {
			for _, r := range [][2]int{{0, 11}, {4, 7}} {
				lo, hi := r[0], r[1]
				v.DecodeFieldRange(s, f, lo, hi, dst[:hi-lo])
				for i, got := range dst[:hi-lo] {
					if want := b.Steps[s].Fields[f][lo+i]; got != want {
						t.Fatalf("step %d field %d cell %d = %v, want %v", s, f, lo+i, got, want)
					}
				}
			}
		}
	}
}

// TestViewReuseAcrossParses: re-parsing a view over messages of different
// shapes must not leak state from the previous payload.
func TestViewReuseAcrossParses(t *testing.T) {
	var v DataView
	if err := v.Parse(Encode(viewTestData(20, 5))); err != nil {
		t.Fatal(err)
	}
	small := viewTestData(3, 2)
	if err := v.Parse(Encode(small)); err != nil {
		t.Fatal(err)
	}
	if v.NumFields() != 2 || v.Cells() != 3 {
		t.Fatalf("reused view kept stale shape: %d fields, %d cells", v.NumFields(), v.Cells())
	}
	dst := make([]float64, 3)
	v.DecodeFieldRange(1, 0, 3, dst)
	for i, got := range dst {
		if want := small.Fields[1][i]; got != want {
			t.Fatalf("dst[%d] = %v, want %v", i, got, want)
		}
	}
}

// TestViewRejectsMalformed: every malformed shape must fail Parse with a
// descriptive error, so a server can drop the whole message with one log
// line instead of validating per step downstream.
func TestViewRejectsMalformed(t *testing.T) {
	goodData := Encode(viewTestData(8, 3))
	goodBatch := Encode(viewTestBatch(2, 8, 3))

	ragged := viewTestData(8, 3)
	ragged.Fields[1] = ragged.Fields[1][:5] // field length != cell range
	raggedBatch := viewTestBatch(2, 8, 3)
	raggedBatch.Steps[1].Fields = raggedBatch.Steps[1].Fields[:2] // step 1 has fewer fields

	empty := viewTestData(8, 3)
	empty.CellHi = empty.CellLo // empty cell range (fields still carry data)

	cases := []struct {
		name    string
		payload []byte
		batch   bool
		errSub  string
	}{
		{"data-wrong-type", goodBatch, false, "message type"},
		{"batch-wrong-type", goodData, true, "message type"},
		{"data-truncated-header", goodData[:10], false, "shorter than header"},
		{"data-truncated-floats", goodData[:len(goodData)-4], false, "exceed payload"},
		{"data-trailing", append(append([]byte(nil), goodData...), 0xAB), false, "trailing"},
		{"data-ragged-field", Encode(ragged), false, "cells, want"},
		{"data-empty-range", Encode(empty), false, "empty cell range"},
		{"batch-ragged-steps", Encode(raggedBatch), true, "fields, step 0 has"},
		{"batch-truncated", goodBatch[:len(goodBatch)-2], true, "exceed payload"},
		{"batch-trailing", append(append([]byte(nil), goodBatch...), 1, 2), true, "trailing"},
	}
	for _, tc := range cases {
		var err error
		if tc.batch {
			var v DataBatchView
			err = v.Parse(tc.payload)
		} else {
			var v DataView
			err = v.Parse(tc.payload)
		}
		if err == nil {
			t.Fatalf("%s: Parse accepted a malformed payload", tc.name)
		}
		if !strings.Contains(err.Error(), tc.errSub) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.errSub)
		}
	}
}

// TestViewRejectsOverflowingCellRange: a crafted payload with a ~2^60 cell
// range and a matching field length prefix must fail Parse instead of
// overflowing 8*cells into a negative offset and panicking — a hostile
// client must never be able to crash the server inbox.
func TestViewRejectsOverflowingCellRange(t *testing.T) {
	huge := int64(1) << 60
	build := func(batch bool) []byte {
		w := make([]byte, 0, 64)
		app64 := func(v int64) {
			var b [8]byte
			for i := range b {
				b[i] = byte(uint64(v) >> (8 * i))
			}
			w = append(w, b[:]...)
		}
		app32 := func(v uint32) {
			w = append(w, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		if batch {
			w = append(w, byte(TypeDataBatch))
			app64(0)                  // group
			app64(0)                  // lo
			app64(huge)               // hi
			app32(1)                  // steps
			w = append(w, 0, 0, 0)    // pad
			app64(0)                  // timestep
			app32(2)                  // fields
			w = append(w, 0, 0, 0, 0) // pad
		} else {
			w = append(w, byte(TypeData))
			app64(0)               // group
			app64(0)               // timestep
			app64(0)               // lo
			app64(huge)            // hi
			app32(1)               // fields
			w = append(w, 0, 0, 0) // pad
		}
		app64(huge) // field 0 length prefix matches the cell range
		return w
	}
	var dv DataView
	if err := dv.Parse(build(false)); err == nil || !strings.Contains(err.Error(), "floats exceed payload") {
		t.Fatalf("DataView.Parse of an overflowing cell range: %v", err)
	}
	var bv DataBatchView
	if err := bv.Parse(build(true)); err == nil || !strings.Contains(err.Error(), "floats exceed payload") {
		t.Fatalf("DataBatchView.Parse of an overflowing cell range: %v", err)
	}
}

// TestViewRejectsAllocationBomb: a tiny payload whose header claims the
// maximum step and field counts must fail Parse before any count-sized
// allocation happens — otherwise ~41 hostile bytes make the parser attempt
// a multi-gigabyte make and the process dies on OOM instead of logging.
func TestViewRejectsAllocationBomb(t *testing.T) {
	w := enc.NewWriter(64)
	w.U8(uint8(TypeDataBatch))
	w.Int(0)         // group
	w.Int(0)         // lo
	w.Int(1)         // hi (1 cell)
	w.U32(1<<20 - 1) // steps: max that passed the old per-factor check
	w.Raw([]byte{0, 0, 0})
	w.Int(0)         // step 0 timestep
	w.U32(1<<16 - 1) // step 0 fields
	w.Raw([]byte{0, 0, 0, 0})
	var bv DataBatchView
	if err := bv.Parse(w.Bytes()); err == nil || !strings.Contains(err.Error(), "exceed payload") {
		t.Fatalf("DataBatchView.Parse of an allocation-bomb header: %v", err)
	}

	dw := enc.NewWriter(64)
	dw.U8(uint8(TypeData))
	dw.Int(0)         // group
	dw.Int(0)         // timestep
	dw.Int(0)         // lo
	dw.Int(1)         // hi
	dw.U32(1<<16 - 1) // fields
	dw.Raw([]byte{0, 0, 0})
	var dv DataView
	if err := dv.Parse(dw.Bytes()); err == nil || !strings.Contains(err.Error(), "exceed payload") {
		t.Fatalf("DataView.Parse of an allocation-bomb header: %v", err)
	}
}

// TestReportBackpressureRoundTrip: the backpressure gauge must survive the
// wire (it rides the existing report plumbing to the launcher).
func TestReportBackpressureRoundTrip(t *testing.T) {
	in := &Report{ProcRank: 2, Started: []int{1}, MaxCIWidth: 0.5, Messages: 9, Backpressure: 0.625}
	out, err := Decode(Encode(in))
	if err != nil {
		t.Fatal(err)
	}
	rep, ok := out.(*Report)
	if !ok {
		t.Fatalf("decoded %T", out)
	}
	if rep.Backpressure != in.Backpressure {
		t.Fatalf("backpressure %v, want %v", rep.Backpressure, in.Backpressure)
	}
}

// TestFieldRangeMisalignedFallsBack: a payload that does not start 8-byte
// aligned lends nothing, and DecodeFieldRange still copies the exact values.
func TestFieldRangeMisalignedFallsBack(t *testing.T) {
	d := viewTestData(5, 3)
	frame := Encode(d)
	shifted := append(make([]byte, 1, len(frame)+1), frame...)[1:]
	var v DataView
	if err := v.Parse(shifted); err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 5)
	for f := range d.Fields {
		if got := v.FieldRange(0, f, 0, 5); got != nil {
			t.Fatalf("field %d: misaligned payload lent %v", f, got)
		}
		v.DecodeFieldRange(f, 0, 5, dst)
		if !reflect.DeepEqual(dst, d.Fields[f]) {
			t.Fatalf("field %d: copied %v, want %v", f, dst, d.Fields[f])
		}
	}
}

// TestFramesRejectNonZeroPad: every pad byte of a Data or DataBatch frame
// must be zero, for the decoder and the views alike.
func TestFramesRejectNonZeroPad(t *testing.T) {
	// The second batch step's header starts after the first step's fields.
	second := dataBatchHeaderSize + stepHeaderSize + 2*(fieldLenSize+8*4)
	cases := []struct {
		name  string
		frame []byte
		parse func([]byte) error
		pads  []int
	}{
		{"data", Encode(viewTestData(4, 2)), new(DataView).Parse, []int{37, 38, 39}},
		{"batch", Encode(viewTestBatch(2, 4, 2)), new(DataBatchView).Parse,
			[]int{29, 30, 31, 44, 45, 46, 47, second + 12, second + 15}},
	}
	for _, tc := range cases {
		for _, at := range tc.pads {
			bad := append([]byte(nil), tc.frame...)
			bad[at] = 1
			if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "pad") {
				t.Errorf("%s: Decode with pad byte %d set: %v", tc.name, at, err)
			}
			if err := tc.parse(bad); err == nil || !strings.Contains(err.Error(), "pad") {
				t.Errorf("%s: view with pad byte %d set: %v", tc.name, at, err)
			}
		}
	}
}
