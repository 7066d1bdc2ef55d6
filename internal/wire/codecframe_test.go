package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"melissa/internal/codec"
	"melissa/internal/enc"
)

// testBatch builds a DataBatch whose fields carry smooth, correlated values
// (distinct per step/field/cell so mis-routed cells are caught).
func testBatch(group, cellLo, cellHi, steps, fields int) *DataBatch {
	m := &DataBatch{GroupID: group, CellLo: cellLo, CellHi: cellHi}
	cells := cellHi - cellLo
	m.Steps = make([]DataStep, steps)
	for s := range m.Steps {
		m.Steps[s].Timestep = 10 + s
		m.Steps[s].Fields = make([][]float64, fields)
		for f := range m.Steps[s].Fields {
			vals := make([]float64, cells)
			for c := range vals {
				vals[c] = math.Sin(float64(c)/50+float64(f)) + 0.01*float64(s)
			}
			m.Steps[s].Fields[f] = vals
		}
	}
	return m
}

func encodeBatchC(t *testing.T, m *DataBatch, rangeLens []int) []byte {
	t.Helper()
	var bc BatchCompressor
	w := enc.NewWriter(0)
	bc.EncodeTo(w, m, rangeLens)
	return w.Bytes()
}

func TestDataBatchCRoundTrip(t *testing.T) {
	for _, rangeLens := range [][]int{{96}, {32, 32, 32}, {1, 95}, {50, 46}} {
		in := testBatch(7, 100, 196, 3, 5)
		payload := encodeBatchC(t, in, rangeLens)
		out, err := Decode(payload)
		if err != nil {
			t.Fatalf("ranges %v: %v", rangeLens, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("ranges %v: round trip mismatch", rangeLens)
		}
	}
}

func TestDataBatchCGenericDecode(t *testing.T) {
	in := testBatch(3, 0, 64, 2, 4)
	payload := encodeBatchC(t, in, []int{64})
	got, err := Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("got %+v want %+v", got, in)
	}
}

func TestDataBatchCViewAccessors(t *testing.T) {
	in := testBatch(9, 40, 104, 2, 3)
	payload := encodeBatchC(t, in, []int{24, 40})
	var v DataBatchCView
	if err := v.Parse(payload); err != nil {
		t.Fatal(err)
	}
	if v.GroupID != 9 || v.CellLo != 40 || v.CellHi != 104 || v.Cells() != 64 {
		t.Fatalf("header: %+v", v)
	}
	if v.NumSteps() != 2 || v.NumFields() != 3 || v.NumRanges() != 2 {
		t.Fatalf("shape: %d steps %d fields %d ranges", v.NumSteps(), v.NumFields(), v.NumRanges())
	}
	if v.StepTimestep(0) != 10 || v.StepTimestep(1) != 11 {
		t.Fatalf("timesteps: %d %d", v.StepTimestep(0), v.StepTimestep(1))
	}
	if lo, hi := v.RangeBounds(0); lo != 0 || hi != 24 {
		t.Fatalf("range 0: [%d,%d)", lo, hi)
	}
	if lo, hi := v.RangeBounds(1); lo != 24 || hi != 64 {
		t.Fatalf("range 1: [%d,%d)", lo, hi)
	}
	var d codec.Decoder
	for r := 0; r < v.NumRanges(); r++ {
		words := make([]uint64, v.RangeWords(r))
		if err := v.DecompressRange(r, &d, words); err != nil {
			t.Fatalf("range %d: %v", r, err)
		}
		rlo, rhi := v.RangeBounds(r)
		rc := rhi - rlo
		for s := 0; s < 2; s++ {
			for f := 0; f < 3; f++ {
				got := make([]float64, rc)
				codec.WordsToFloat64s(got, words[(s*3+f)*rc:(s*3+f+1)*rc])
				want := in.Steps[s].Fields[f][rlo:rhi]
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("range %d step %d field %d mismatch", r, s, f)
				}
			}
		}
	}
}

// TestDataBatchCCompresses pins that the compressed frame beats the raw one
// on correlated data — the reason the codec exists.
func TestDataBatchCCompresses(t *testing.T) {
	in := testBatch(1, 0, 2048, 8, 8)
	payload := encodeBatchC(t, in, []int{512, 512, 512, 512})
	raw := DataBatchSizeBytes(8, 8, 2048)
	t.Logf("compressed %d vs raw %d bytes (%.2fx)", len(payload), raw, float64(raw)/float64(len(payload)))
	if int64(len(payload)) >= raw {
		t.Fatalf("compressed frame (%d) not smaller than raw (%d)", len(payload), raw)
	}
}

// TestDataBatchCDeterministic pins byte-stable encoding, which the
// replay-discard policy and the bitwise-equivalence tests rely on.
func TestDataBatchCDeterministic(t *testing.T) {
	in := testBatch(5, 0, 300, 4, 4)
	a := encodeBatchC(t, in, []int{150, 150})
	b := encodeBatchC(t, in, []int{150, 150})
	if !bytes.Equal(a, b) {
		t.Fatal("compressed encoding is not deterministic")
	}
}

// TestDataBatchCViewRejectsCorrupt fuzzes the parser with truncations, bit
// flips, appended garbage and overwritten windows: Parse must either reject
// the frame or hand out a view whose every range still decompresses without
// error — never panic.
func TestDataBatchCViewRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := testBatch(2, 0, 256, 3, 4)
	good := encodeBatchC(t, in, []int{64, 64, 128})
	var v DataBatchCView
	var d codec.Decoder
	for trial := 0; trial < 4000; trial++ {
		corrupt := append([]byte(nil), good...)
		switch trial % 4 {
		case 0:
			pos := rng.Intn(len(corrupt))
			corrupt[pos] ^= 1 << rng.Intn(8)
		case 1:
			corrupt = corrupt[:rng.Intn(len(corrupt))]
		case 2:
			corrupt = append(corrupt, byte(rng.Intn(256)))
		case 3:
			pos := rng.Intn(len(corrupt))
			n := min(rng.Intn(24)+1, len(corrupt)-pos)
			rng.Read(corrupt[pos : pos+n])
		}
		if err := v.Parse(corrupt); err != nil {
			continue
		}
		for r := 0; r < v.NumRanges(); r++ {
			words := make([]uint64, v.RangeWords(r))
			if err := v.DecompressRange(r, &d, words); err != nil {
				t.Fatalf("trial %d: Parse accepted but range %d failed: %v", trial, r, err)
			}
		}
	}
}

func TestDataBatchCViewRejectsBadShapes(t *testing.T) {
	in := testBatch(2, 10, 74, 2, 3)
	good := encodeBatchC(t, in, []int{64})
	var v DataBatchCView

	if err := v.Parse(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if err := v.Parse([]byte{byte(TypeDataBatch)}); err == nil {
		t.Fatal("wrong type tag accepted")
	}

	// Range table not covering the cell range.
	bad := append([]byte(nil), good...)
	// cells of range 0 lives right after tag+3*i64+u32+2*i64 timesteps+u32 nf+u32 nr
	off := dataBatchCFixedSize + 2*8 + 4 + 4
	bad[off] = 63 // 63 cells instead of 64
	if err := v.Parse(bad); err == nil {
		t.Fatal("short range coverage accepted")
	}
}

// TestDataBatchCViewExpansionGuard pins the guard that bounds a frame's
// decompressed size by codec.MaxExpansion before anything is sized by it:
// all-zero blocks expand the most (one byte per chunk), and a frame of them
// whose cell count sits exactly at the guard parses and decompresses, while
// the same payload claiming one cell more is rejected there.
func TestDataBatchCViewExpansionGuard(t *testing.T) {
	const steps, fields, cells = 2, 512, 3
	in := testBatch(1, 0, cells, steps, fields)
	for _, st := range in.Steps {
		for _, f := range st.Fields {
			clear(f)
		}
	}
	payload := encodeBatchC(t, in, []int{cells})
	// The guard's byte count: what follows the field count.
	remaining := len(payload) - (dataBatchCFixedSize + 8*steps + 4)
	if guard := codec.MaxExpansion / 8 * remaining / (steps * fields); guard != cells {
		t.Fatalf("%d cells, guard admits %d: the fixture no longer sits at the guard", cells, guard)
	}
	var v DataBatchCView
	if err := v.Parse(payload); err != nil {
		t.Fatalf("frame at the guard: %v", err)
	}
	words := make([]uint64, v.RangeWords(0))
	if err := v.DecompressRange(0, &codec.Decoder{}, words); err != nil {
		t.Fatalf("frame at the guard: %v", err)
	}
	over := append([]byte(nil), payload...)
	binary.LittleEndian.PutUint64(over[1+2*8:], cells+1) // cellHi
	if err := v.Parse(over); err == nil || !strings.Contains(err.Error(), "cells exceed payload") {
		t.Fatalf("one cell past the guard: %v, want a cells-exceed-payload error", err)
	}
}
